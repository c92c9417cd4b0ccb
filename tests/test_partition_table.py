"""Tests for the four-parameter restricted-partition table.

The reference point throughout is a tiny brute-force enumerator that
lists partitions directly and applies the prefix-slack test, so every
stored cell is checked against first principles.  A cell-at-a-time
transcription of the recurrence checks the vectorized layer fill.
"""

import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq import partition_table
from degseq.degree_counts import _extent, _matrix_params
from degseq.errors import MemoryBudgetError
from degseq.partition_table import (
    DEFAULT_MEMORY_CAP,
    BoundedPartitionTable,
    PartitionTable,
    TableParams,
    _PRIMES,
    _planes,
    _saturation,
    _slice_shape,
    estimate_bounded_bytes,
    estimate_table_bytes,
    graphical_params,
    memory_budget,
    unrestricted_p,
)


def iter_partitions(total, max_part, max_parts):
    """All partitions of total into at most max_parts parts, each at
    most max_part, as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    if total < 0 or max_parts == 0 or max_part == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in iter_partitions(total - first, first, max_parts - 1):
            yield (first,) + rest


def passes_slack(pi, s):
    """Prefix condition: s plus the running corank sum must reach every
    index up to the Durfee square size."""
    if not pi:
        return True
    conj = [sum(1 for part in pi if part > i) for i in range(pi[0])]
    durfee = sum(1 for i, part in enumerate(pi) if part >= i + 1)
    running = 0
    for j in range(1, durfee + 1):
        running += conj[j - 1] - pi[j - 1]
        if s + running < j:
            return False
    return True


def brute_count(N, k, l, s):
    return sum(1 for pi in iter_partitions(N, k, l) if passes_slack(pi, s))


def fill_layer_reference(cur, prev, l, off, max_sum, max_part):
    """Fill layer ``l`` one cell at a time, clamping every lookup explicitly.

    Every row 0..max_sum of every slice is computed, so the result needs
    no band bookkeeping.
    """

    def read(layer, N, k, s):
        if N < 0 or k < 0 or s < 0:
            return 0
        if N == 0:
            return 1
        if k == 0:
            return 0
        if k > N:
            k = N
        if s > N:
            s = N
        return layer[k][off[N] + s]

    for k in range(1, max_part + 1):
        out = cur[k]
        out[0] = 1
        for N in range(1, max_sum + 1):
            base = off[N]
            for s in range(N + 1):
                out[base + s] = (
                    read(cur, N, k - 1, s)
                    + read(prev, N, k, s)
                    - read(prev, N, k - 1, s)
                    + read(prev, N - k - l + 1, k - 1, s + l - k - 1)
                )


def reference_layers(params):
    """Run the reference fill on two rolling buffers.

    Yields (l, layer l, row offsets) for l = 0..target_parts, in a packed
    layout of exact Python ints: one flat list per k, row N at off[N]
    holding s = 0..N.  A yielded layer is overwritten two steps later.
    """
    M, K, target = params.max_sum, params.max_part, params.target_parts
    off = [0] * (M + 2)
    for N in range(1, M + 2):
        off[N] = off[N - 1] + N

    def fresh():
        cells = [0] * off[M + 1]
        cells[0] = 1
        return cells

    prev = [fresh() for _ in range(K + 1)]
    cur = [prev[0]] + [fresh() for _ in range(K)]
    yield 0, prev, off
    for l in range(1, target + 1):
        fill_layer_reference(cur, prev, l, off, M, K)
        prev, cur = cur, prev
        yield l, prev, off


def raised(params):
    """params with max_sum raised by max_part: its table stores every
    cell (N, k) with N <= params.max_sum and k <= params.max_part."""
    return replace(params, max_sum=params.max_sum + params.max_part)


def banded_read(read, table, k, s):
    """read(), a read of ``table`` at slice k and slack s after the clamp
    chain, or None where the table refuses it: a banded slice holds
    exactly only the slacks s <= target_parts - 1 - k, and refuses a
    read above them."""
    try:
        return read()
    except ValueError as exc:
        if "banded" not in str(exc):
            raise
        assert s > table.params.target_parts - 1 - k, (table.params, k, s)
        return None


def assert_fill_matches_reference(params):
    """Every cell of the held layer with N <= max_sum equals the
    reference, where the table answers it (banded_read)."""
    table = PartitionTable.build(raised(params))
    *_, (_, ref, off) = reference_layers(params)
    l = params.target_parts
    for N in range(params.max_sum + 1):
        for k in range(params.max_part + 1):
            for s in range(N + 1):
                got = banded_read(lambda: table.query_raw(N, k, l, s),
                                  table, min(k, N), s)
                assert got in (None, ref[k][off[N] + s]), (params, N, k, s)


# Random table shapes for the fill tests.
SHAPES = st.builds(
    TableParams,
    max_sum=st.integers(0, 12),
    max_part=st.integers(0, 8),
    target_parts=st.integers(0, 8),
)


def brute_exact(N, k, l, s):
    """Partitions of N with exactly l parts and largest part exactly k,
    under the same slack test."""
    return sum(
        1
        for pi in iter_partitions(N, k, l)
        if len(pi) == l and pi and pi[0] == k and passes_slack(pi, s)
    )


@pytest.fixture(scope="module")
def table_6():
    return PartitionTable.build(TableParams(18, 6, 6))


@pytest.fixture(scope="module")
def tables_all_targets():
    return {
        l: PartitionTable.build(TableParams(18, 6, l)) for l in range(7)
    }


class TestStoredCellsAgainstBruteForce:
    def test_all_cells_match_enumeration(self, tables_all_targets):
        for l, table in tables_all_targets.items():
            for N in range(11):
                for k in range(7):
                    if min(k, N) > 6:
                        continue
                    for s in range(11):
                        assert table.query_raw(N, k, l, s) == brute_count(
                            N, k, l, s
                        ), (N, k, l, s)

    def test_kernels_agree(self):
        assert_fill_matches_reference(TableParams(14, 5, 5))

    @settings(max_examples=60, deadline=None)
    @given(SHAPES)
    @example(TableParams(3, 6, 2))  # max_part > max_sum
    @example(TableParams(4, 2, 7))  # target_parts > max_sum
    @example(TableParams(12, 40, 30))  # two prime planes
    @example(TableParams(14, 30, 100))  # three prime planes
    # Two planes; columns widen up to k = 11, rows are capped from k = 2.
    @example(TableParams(40, 36, 30))
    @example(TableParams(12, 3, 8))  # target_parts far above max_part
    def test_fill_matches_reference_on_random_shapes(self, params):
        assert_fill_matches_reference(params)

    @settings(max_examples=60, deadline=None)
    @given(SHAPES)
    @example(TableParams(3, 6, 2))  # max_part > max_sum
    @example(TableParams(4, 2, 7))  # target_parts > max_sum
    @example(TableParams(12, 40, 30))  # two prime planes
    def test_rows_above_k_times_l_stay_zero(self, params):
        """The fill never clears a row, so rows N > k*l must stay zero
        in every plane and column of every slice."""
        checked = []

        def visit(l, layer):
            for k, cells in enumerate(layer._slices):
                above = cells[:, k * l + 1 :]
                assert above.ndim == 3 and not above.any(), (params, l, k)
                checked.append(above.size)

        PartitionTable.build(raised(params), layer_visitor=visit)
        # Slice 1 stores rows up to min(max_sum + max_part - 1,
        # target_parts), so layer 1 leaves rows above 1 to check when
        # that reaches 2.
        if params.max_part and min(params.max_sum, params.target_parts) > 1:
            assert any(checked), params

    @pytest.mark.parametrize("primes", [_PRIMES, (7, 11, 13)],
                             ids=["fixed", "small"])
    @pytest.mark.parametrize(
        "params", [TableParams(12, 40, 30), TableParams(14, 30, 100)]
    )
    def test_residues_stay_below_their_primes(self, params, primes,
                                              monkeypatch):
        """After every layer each stored residue of plane i is below
        primes[i].  The cells of these tables stay far below the fixed
        primes, so small primes make the fill reduce, and a sum it leaves
        unreduced shows at once."""
        monkeypatch.setattr(partition_table, "_PRIMES", primes)
        planes = _planes(params)
        assert planes > 1
        q = np.array(primes[:planes], np.uint64).reshape(planes, 1, 1)
        checked = []

        def visit(l, layer):
            for k, cells in enumerate(layer._slices):
                assert (cells < q).all(), (params, l, k)
            checked.append(l)

        PartitionTable.build(params, layer_visitor=visit)
        assert checked == list(range(1, params.target_parts + 1))

    def test_no_negative_cells(self, table_6):
        for N in range(13):
            for k in range(7):
                for s in range(N + 1):
                    assert table_6.query_raw(N, k, 6, s) >= 0


class TestClampChain:
    def test_idempotence(self, tables_all_targets):
        for N, k, l, s in itertools.product(range(9), range(9), range(7),
                                            range(9)):
            if min(k, N) > 6:
                continue  # clamped k outside the stored block
            table = tables_all_targets[min(l, 6)]
            direct = table.query_raw(N, k, l, s)
            clamped = table.query_raw(
                N, min(k, N), min(l, N), min(s, N)
            )
            assert direct == clamped

    def test_oversized_l_serves_from_small_n_rows(self):
        # l = 20 clamps to l = N for every stored row, so a layer built
        # for a large target still answers.
        table = PartitionTable.build(TableParams(14, 6, 20))
        for N in range(7):
            for k in range(min(N, 6) + 1):
                for s in range(N + 1):
                    assert table.query_raw(N, k, 20, s) == brute_count(
                        N, k, 20, s
                    )

    def test_zero_part_bound_is_zero(self, table_6):
        assert table_6.query_raw(3, 0, 5, 2) == 0

    def test_empty_partition_counts_once(self, table_6):
        assert table_6.query_raw(0, 7, 7, 0) == 1

    def test_slackless_pair(self, table_6):
        # Of the partitions of 2, only 1+1 passes with no slack.
        assert table_6.query_raw(2, 2, 2, 0) == 1

    def test_negative_arguments_are_zero(self, table_6):
        assert table_6.query_raw(-1, 3, 3, 0) == 0
        assert table_6.query_raw(3, -1, 3, 0) == 0
        assert table_6.query_raw(3, 3, -1, 0) == 0
        assert table_6.query_raw(3, 3, 3, -1) == 0

    def test_unresident_layer_raises(self, table_6):
        with pytest.raises(ValueError, match="layer"):
            table_6.query_raw(8, 3, 3, 0)

    def test_only_the_target_layer_is_held(self, table_6):
        # N = 12 > 6, so l = 6 and l = 5 are both unclamped.
        assert table_6.query_raw(12, 6, 6, 12) == brute_count(12, 6, 6, 12)
        with pytest.raises(ValueError, match="layer"):
            table_6.query_raw(12, 6, 5, 12)

    def test_capacity_exceeded_raises(self, table_6):
        with pytest.raises(ValueError, match="outside the stored block"):
            table_6.query_raw(19, 4, 6, 0)

    def test_overfull_cell_outside_block_is_zero(self, table_6):
        # 20 > 3 * 6: no partition fits, so no stored row is needed.
        assert table_6.query_raw(20, 3, 6, 0) == 0
        assert table_6.query_raw(40, 7, 5, 3) == 0


class TestBuildExamples:
    def test_zero_sum_cell(self):
        table = PartitionTable.build(TableParams(12, 3, 3))
        assert table.query_raw(0, 3, 3, 0) == 1

    def test_full_slack_cell(self):
        table = PartitionTable.build(TableParams(7, 2, 3))
        assert table.query_raw(5, 2, 3, 5) == 1

    def test_failing_square_partition(self):
        table = PartitionTable.build(TableParams(6, 2, 2))
        assert table.query_raw(4, 2, 2, 0) == 0

    @pytest.mark.parametrize("dims", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_dimension_is_refused(self, dims):
        with pytest.raises(ValueError, match="nonnegative"):
            TableParams(*dims)


class TestMonotonicity:
    def test_nondecreasing_in_s(self, table_6):
        for N in range(13):
            for k in range(7):
                prev = table_6.query_raw(N, k, 6, 0)
                for s in range(1, N + 1):
                    cur = table_6.query_raw(N, k, 6, s)
                    assert cur >= prev
                    prev = cur

    def test_nondecreasing_in_k(self, table_6):
        for N in range(13):
            for s in range(N + 1):
                prev = table_6.query_raw(N, 0, 6, s)
                for k in range(1, 7):
                    cur = table_6.query_raw(N, k, 6, s)
                    assert cur >= prev
                    prev = cur


class TestFirstRowColumnBridge:
    def test_exact_part_counts_reduce_to_shifted_cell(
        self, tables_all_targets
    ):
        # Partitions with exactly l parts and largest exactly k reduce,
        # after removing the first row and column, to a smaller cell.
        for N in range(11):
            for k in range(1, 7):
                for l in range(1, 7):
                    table = tables_all_targets[l - 1]
                    for s in range(9):
                        want = brute_exact(N, k, l, s)
                        got = table.query_raw(
                            N - k - l + 1, k - 1, l - 1, s + l - k - 1
                        )
                        assert got == want, (N, k, l, s)

    def test_graphical_partition_examples(self):
        table = PartitionTable.build(TableParams(12, 4, 4))
        assert table.g_prime(4, 1, 4) == 1
        assert table.g_prime(8, 3, 4) == 1
        assert table.g_prime(6, 3, 4) == 1

    def test_g_prime_rejects_odd_sum(self):
        table = PartitionTable.build(TableParams(12, 4, 4))
        with pytest.raises(ValueError):
            table.g_prime(7, 3, 4)

    def test_g_prime_rejects_negative_sum(self):
        table = PartitionTable.build(TableParams(12, 4, 4))
        with pytest.raises(ValueError, match="N >= 0"):
            table.g_prime(-2, 1, 3)


class TestMemoryBudget:
    def test_estimate_grows_with_dimensions(self):
        small = estimate_table_bytes(TableParams(10, 4, 4))
        big = estimate_table_bytes(TableParams(40, 8, 8))
        assert 0 < small < big

    def test_refusal_before_allocation(self):
        params = TableParams(600, 20, 20)
        need = estimate_table_bytes(params)
        with memory_budget(need - 1), pytest.raises(MemoryBudgetError) as err:
            PartitionTable.build(params)
        assert err.value.estimated_bytes == need
        assert err.value.cap_bytes == need - 1

    def test_more_planes_than_moduli_is_refused(self):
        # max_part + target_parts = 400 needs 7 planes; there are 6 primes.
        with pytest.raises(ValueError, match="residue planes"):
            PartitionTable.build(TableParams(0, 200, 200))

    def test_cap_at_estimate_allows_build(self):
        params = TableParams(20, 4, 4)
        need = estimate_table_bytes(params)
        with memory_budget(need):
            PartitionTable.build(params)

    def test_estimate_covers_the_buffers_within_5_percent(self):
        """The peak a build allocates, as tracemalloc sees it (numpy
        reports its buffers there), is at most the estimate plus a fixed
        margin for numpy's ufunc buffers, about 200 KB, and at least
        1/1.05 of the estimate."""
        shapes = [
            _matrix_params(12, True),
            _matrix_params(25, False),
            _matrix_params(25, True),
            TableParams(12, 40, 30),  # two prime planes
            TableParams(120, 40, 30),  # two planes; scratch above margin
            # Two planes; widening the fill's difference array to slice
            # 40 copies 20 new columns of 976 rows.
            TableParams(1000, 40, 25),
            TableParams(14, 30, 100),  # three prime planes
        ]
        margin = 256 * 1024
        for params in shapes:
            tracemalloc.start()
            try:
                PartitionTable.build(params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            estimate = estimate_table_bytes(params)
            assert peak - margin <= estimate <= 1.05 * peak, (
                params, peak, estimate
            )

    def test_refusal_stops_at_the_first_total_above_the_cap(self):
        """The running total passes the cap within the slices, so the
        error reports it, above the cap and below the whole estimate."""
        params = TableParams(600, 20, 20)
        cap = estimate_table_bytes(params) // 2
        with memory_budget(cap), pytest.raises(MemoryBudgetError) as err:
            PartitionTable.build(params)
        assert err.value.cap_bytes == cap
        assert cap < err.value.estimated_bytes < estimate_table_bytes(params)
        assert "at least" in str(err.value)

    @pytest.mark.parametrize("full", [True, False])
    def test_huge_table_is_estimated_quickly(self, full):
        start = time.perf_counter()
        estimate_table_bytes(_matrix_params(300_000, full))
        assert time.perf_counter() - start < 3.0

    def test_default_cap_below_physical_memory(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert 0 < DEFAULT_MEMORY_CAP < physical

    def test_budget_holds_inside_its_block_only(self):
        params = TableParams(20, 4, 4)
        need = estimate_table_bytes(params)
        with memory_budget(need - 1):
            with pytest.raises(MemoryBudgetError) as err:
                PartitionTable.build(params)
            assert err.value.cap_bytes == need - 1
            with memory_budget(need):
                PartitionTable.build(params)
            with memory_budget(None), pytest.raises(MemoryBudgetError) as err:
                PartitionTable.build(TableParams(10**6, 1000, 1000))
            assert err.value.cap_bytes == DEFAULT_MEMORY_CAP
            with pytest.raises(MemoryBudgetError):
                PartitionTable.build(params)
        PartitionTable.build(params)

    def test_bounded_build_reads_the_budget(self):
        params = TableParams(8, 8, 11)
        need = estimate_bounded_bytes(params)
        with memory_budget(need - 1), pytest.raises(MemoryBudgetError) as err:
            BoundedPartitionTable.build(params)
        assert err.value.estimated_bytes == need
        with memory_budget(need):
            BoundedPartitionTable.build(params)


class TestLayerView:
    @settings(max_examples=40, deadline=None)
    @given(SHAPES)
    @example(TableParams(12, 5, 6))
    @example(TableParams(12, 40, 30))  # two prime planes
    @example(TableParams(14, 30, 100))  # three prime planes
    def test_every_view_matches_the_reference_layer(self, params):
        """Each view the fill hands out holds its layer l exactly, so an
        operand read after the in-place update overwrote it shows at the
        layer where it happens."""
        reference = reference_layers(params)
        next(reference)  # layer 0 is not visited
        checked = []

        def visit(l, view):
            ref_l, ref, off = next(reference)
            assert l == ref_l
            assert view.params == replace(raised(params), target_parts=l)
            for N in range(params.max_sum + 1):
                for k in range(params.max_part + 1):
                    for s in range(N + 1):
                        got = banded_read(lambda: view.query_raw(N, k, l, s),
                                          view, min(k, N), s)
                        assert got in (None, ref[k][off[N] + s]), (
                            params, l, N, k, s)
            checked.append(l)

        PartitionTable.build(raised(params), layer_visitor=visit)
        assert checked == list(range(1, params.target_parts + 1))


class TestColumnReader:
    """g_prime_columns gathers every stored cell of a column at once.
    Inside its contract it must read what g_prime reads cell by cell
    (the conftest's read_matrix); outside it, it raises before any
    read."""

    @pytest.mark.parametrize("cls, params, first", [
        (PartitionTable, _matrix_params(14, False), 1),
        (PartitionTable, _matrix_params(14, True), 1),
        # Two prime planes: the last layer.
        (PartitionTable, TableParams(12, 40, 30), 30),
        # The bounded table's one layer, where l binds rows N > 5k.
        (BoundedPartitionTable, TableParams(38, 8, 5), 5),
        # dd(28)'s table, max_sum raised by its max_part.
        (BoundedPartitionTable, TableParams(48, 24, 27), 27),
    ], ids=["half", "full", "primes", "bounded", "bounded-dd"])
    def test_every_stored_cell_holds_its_clamped_value(self, cls, params,
                                                       first):
        """What lets the gather start at row 0: every stored row N of
        every slice k, at every slack s up to one past the stored width
        (the bounded table: at s = N, its surface), reads unclamped as
        query_raw reads it after the clamp chain.  No other test reads a
        stored cell whose own coordinates the clamp chain would change."""
        visited = []

        def visit(l, layer):
            if l < first:
                return
            for k in range(params.max_part + 1):
                rows, cols = _slice_shape(params, k)
                if cls is BoundedPartitionTable:
                    cells = [(N, N) for N in range(rows)]
                else:
                    cells = [(N, s) for s in range(cols + 1)
                             for N in range(rows)]
                # A banded slice answers only its exact slacks.
                got = [banded_read(lambda: layer._column(
                    k, range(N, N + 1), s), layer, k, s) for N, s in cells]
                want = [None if g is None else [layer.query_raw(N, k, l, s)]
                        for g, (N, s) in zip(got, cells)]
                assert got == want, (params, l, k)
            visited.append(l)

        if cls is BoundedPartitionTable:
            visit(params.target_parts, cls.build(params))
        else:
            cls.build(params, layer_visitor=visit)
        assert visited == list(range(first, params.target_parts + 1))

    @pytest.mark.parametrize("full, ntop", [
        (False, 34), (True, 33),  # one 2^64 plane
        (False, 36), (True, 36),  # two prime planes
    ])
    def test_every_layer_matches_the_reference(self, read_matrix, full,
                                               ntop):
        assert _planes(_matrix_params(ntop, full)) == 1 + (ntop > 34)
        read = []

        def visit(l, layer):
            n = l + 1
            top, kmax = _extent(n, full)
            assert layer.g_prime_columns(n, top, kmax) == read_matrix(
                layer, n, top, kmax
            ), (full, n)
            read.append(n)

        PartitionTable.build(_matrix_params(ntop, full), layer_visitor=visit)
        assert read == list(range(2, ntop + 1))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([PartitionTable, BoundedPartitionTable]), SHAPES,
           st.data())
    def test_any_read_matches_the_reference(self, read_matrix, cls, params,
                                            data):
        """Shapes and reads the harvest never makes, inside the reader's
        contract: layer n - 1, kmax < n, and every sum the table covers.
        The read returns, or raises on the bounded table's unsaturated
        slack, as the cell-by-cell read does."""
        params = raised(params)
        table, n = cls.build(params), params.target_parts + 1
        kmax = data.draw(st.integers(0, min(n - 1, params.max_part + 1)))
        max_sum = data.draw(st.integers(0, params.max_sum + n))
        assert graphical_params(n, max_sum, kmax).max_sum <= params.max_sum

        def outcome(read):
            try:
                return read(n, max_sum, kmax)
            except ValueError as exc:
                return type(exc)

        assert outcome(table.g_prime_columns) == outcome(
            lambda *args: read_matrix(table, *args))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_the_sized_table_matches_the_reference(self, read_matrix, n):
        """The table graphical_params sizes for a read serves all of it:
        both heights of n's matrix, and count_dd's bounded read."""
        reads = [(PartitionTable, *_extent(n, full)) for full in (True, False)]
        if n >= 4:
            reads.append((BoundedPartitionTable, 2 * n - 3, n - 3))
        for cls, top, kmax in reads:
            table = cls.build(graphical_params(n, top, kmax))
            assert table.g_prime_columns(n, top, kmax) == read_matrix(
                table, n, top, kmax
            ), (cls, top, kmax)

    @pytest.mark.parametrize("n", range(4, 21))
    def test_bounded_dd_table_matches_the_reference(self, read_matrix, n):
        # count_dd's table and read; dd's table is (n - 4, n - 4, n - 1).
        params = graphical_params(n, 2 * n - 3, n - 3)
        assert params == TableParams(n - 4, n - 4, n - 1)
        table = BoundedPartitionTable.build(params)
        assert table.g_prime_columns(n, 2 * n - 3, n - 3) == read_matrix(
            table, n, 2 * n - 3, n - 3
        )

    @pytest.mark.parametrize("cls, n, top, kmax, shape, error", [
        # One row smaller, at both heights and on dd's bounded table.
        (PartitionTable, 10, 90, 9, {"max_sum": -1}, "covering"),
        (PartitionTable, 10, 45, 8, {"max_sum": -1}, "covering"),
        (BoundedPartitionTable, 12, 21, 9, {"max_sum": -1}, "covering"),
        # One part smaller.
        (PartitionTable, 10, 90, 9, {"max_part": -1}, "covering"),
        (BoundedPartitionTable, 12, 21, 9, {"max_part": -1}, "covering"),
        # Another layer than n - 1.
        (PartitionTable, 10, 90, 9, {"target_parts": -1}, "layer"),
        (PartitionTable, 10, 90, 9, {"target_parts": 1}, "layer"),
        # Degrees k >= n, from a table sized for them and a smaller one.
        (PartitionTable, 10, 90, 10, {}, "kmax"),
        (PartitionTable, 5, 30, 12, TableParams(12, 8, 4), "kmax"),
    ])
    def test_reads_outside_the_contract_raise_before_any_read(
            self, monkeypatch, cls, n, top, kmax, shape, error):
        """``shape`` is the table, or steps from the one graphical_params
        sizes for the read; ``error`` is a fragment of the refusal."""
        if isinstance(shape, dict):
            sized = graphical_params(n, top, kmax)
            shape = replace(sized, **{
                name: getattr(sized, name) + step
                for name, step in shape.items()})
        table = cls.build(shape)
        reads = []
        monkeypatch.setattr(cls, "_column",
                            lambda *args: reads.append(args))
        monkeypatch.setattr(PartitionTable, "g_prime",
                            lambda *args: reads.append(args))
        with pytest.raises(ValueError, match=error):
            table.g_prime_columns(n, top, kmax)
        assert reads == []

    def test_unsaturated_bounded_read_raises_as_the_reference(
            self, read_matrix):
        # n = 9 to sum 30 reads slacks below the sum, off the surface.
        table = BoundedPartitionTable.build(TableParams(30, 5, 8))
        with pytest.raises(ValueError, match="saturated surface"):
            table.g_prime_columns(9, 30, 4)
        with pytest.raises(ValueError, match="saturated surface"):
            read_matrix(table, 9, 30, 4)


class TestStoredRegion:
    """Slice k stores rows N <= min(max_sum - k, k * target_parts): every
    cell a graphical read of the table reaches, and no other."""

    @pytest.mark.parametrize("cls", [PartitionTable, BoundedPartitionTable],
                             ids=["full", "bounded"])
    def test_read_past_max_sum_raises(self, cls):
        table = cls.build(TableParams(12, 12, 6))
        want = brute_count(6, 6, 6, 6)
        assert table.query_raw(6, 6, 6, 6) == want  # N + k = max_sum
        assert table.query_raw(6, 9, 6, 6) == want  # k clamps to 6
        for N, k in [(7, 6), (8, 5), (7, 9)]:  # (7, 9): k clamps to 7
            with pytest.raises(ValueError, match="outside the stored block"):
                table.query_raw(N, k, 6, N)

    @pytest.mark.parametrize("n", range(20, 41))
    def test_full_height_slices_keep_their_shape(self, n):
        """At full height slice k stores what it stored when max_sum
        bounded the row alone, at (n - 1)(n - 2), the largest sum with a
        partition: rows up to k(n - 1) and slacks up to (k+1)^2 // 4.
        quantities_n28's table is one of these."""
        params = _matrix_params(n, True)
        assert params == TableParams(n * (n - 2), n - 2, n - 1)
        M = (n - 1) * (n - 2)
        for k in range(params.max_part + 1):
            assert _slice_shape(params, k) == (
                min(M, k * (n - 1)) + 1, min((k + 1) ** 2 // 4, M) + 1
            ), (n, k)

    @pytest.mark.parametrize("n", [12, 30])
    def test_half_height_slices_stop_at_max_sum_less_k(self, n):
        params = _matrix_params(n, False)
        M, K, L = params.max_sum, params.max_part, params.target_parts
        table = PartitionTable.build(params)
        rows = [cells.shape[1] for cells in table._slices]
        assert rows == [min(M - k, k * L) + 1 for k in range(K + 1)]
        assert M - K < K * L  # the new bound binds on the last slices

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([PartitionTable, BoundedPartitionTable]), SHAPES)
    @example(PartitionTable, TableParams(12, 40, 30))  # two prime planes
    @example(PartitionTable, TableParams(40, 36, 30))
    @example(BoundedPartitionTable, TableParams(30, 8, 5))
    @example(BoundedPartitionTable, TableParams(2, 6, 1))  # k > max_sum
    # Banded: slice 4 stores slacks to 4, and holds exactly those to 3.
    @example(PartitionTable, TableParams(12, 5, 8))
    def test_every_stored_cell_matches_the_untrimmed_reference(self, cls,
                                                               params):
        """The reference fills every row 0..max_sum of every slice; the
        table stores rows 0..max(0, min(max_sum - k, k * target_parts))
        of slice k, each as the reference holds it (the bounded table at
        s = N), at every slack it answers (banded_read)."""
        table = cls.build(params)
        *_, (_, ref, off) = reference_layers(params)
        M, L = params.max_sum, params.target_parts
        for k, cells in enumerate(table._slices):
            rows = range(max(0, min(M - k, k * L)) + 1)
            if cls is BoundedPartitionTable:
                assert table._column(k, rows, rows[-1]) == [
                    ref[k][off[N] + N] for N in rows], (params, k)
                continue
            assert cells.shape[1] == len(rows), (params, k)
            for s in range(cells.shape[2]):
                got = banded_read(lambda: table._column(k, rows, s),
                                  table, k, s)
                assert got in (None, [ref[k][off[N] + min(s, N)]
                                      for N in rows]), (params, k, s)


class TestHalfHeightBand:
    """A half-height table stores slice k to slack (L - k)^2 // 4 where
    that is below its saturation.  Its cells to slack L - 1 - k, all a
    graphical read reaches, hold the unbanded fill's values in every
    layer; the cells above may not, so a read of them raises."""

    @staticmethod
    def layers(params, shape):
        """Per layer l and slice k of a fill whose slices take ``shape``,
        the bytes of slacks 0..L - 1 - k (those the slice stores) and
        of slack L - k, L = target_parts."""
        L, out = params.target_parts, {}

        def visit(l, layer):
            for k, cells in enumerate(layer._slices):
                exact = cells[:, :, : L - k]
                edge = cells[:, :, L - k : L - k + 1]
                out[l, k] = (exact.tobytes(), edge.tobytes())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partition_table, "_slice_shape", shape)
            PartitionTable.build(params, layer_visitor=visit)
        return out

    @pytest.mark.parametrize("n", [20, 30])
    def test_cells_to_slack_L_minus_1_minus_k_hold_the_unbanded_values(
            self, n):
        params = _matrix_params(n, False)
        L = params.target_parts
        banded = self.layers(params, _slice_shape)
        unbanded = self.layers(params, lambda p, k: (
            partition_table._slice_rows(p, k) + 1, _saturation(p, k) + 1))
        assert [l for l, k in banded if k == 0] == list(range(1, L + 1))
        narrow = [k for k in range(params.max_part + 1)
                  if _slice_shape(params, k)[1] <= _saturation(params, k)]
        assert len(narrow) > params.max_part // 3
        for key, (exact, _) in banded.items():
            assert exact == unbanded[key][0], (n, key)
        # The region is tight: slack L - k is wrong in some layer.
        wrong = [key for key, (_, edge) in banded.items()
                 if edge and edge != unbanded[key][1][: len(edge)]]
        assert wrong and {k for _, k in wrong} <= set(narrow)

    @pytest.mark.parametrize("n", [20, 30])
    def test_a_read_above_the_region_raises(self, n):
        params = _matrix_params(n, False)
        table, L = PartitionTable.build(params), params.target_parts
        reads = 0
        for k in range(1, params.max_part + 1):
            rows, cols = _slice_shape(params, k)
            if cols > _saturation(params, k):
                continue  # not banded: every slack is exact
            N = rows - 1
            assert table._column(k, range(N, N + 1), L - 1 - k)
            with pytest.raises(ValueError, match="banded"):
                table._column(k, range(N + 1), L - k)
            if N >= L - k:  # a slack above N clamps to N
                with pytest.raises(ValueError, match="banded"):
                    table.query_raw(N, k, L, L - k)
                reads += 1
        assert reads > 0


# Prints the peak resident growth of one bounded build of dd(n), n from
# argv, and its estimate, in bytes.
BOUNDED_PEAK = """
import json, sys
from degseq.partition_table import (
    BoundedPartitionTable, TableParams, estimate_bounded_bytes)

def peak():
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1])
                    for line in fh if line.startswith("VmHWM:"))

n = int(sys.argv[1])
params = TableParams(n - 4, n - 4, n - 1)
before = peak()
BoundedPartitionTable.build(params)
print(json.dumps([peak() - before, estimate_bounded_bytes(params)]))
"""


class TestBoundedTable:
    @settings(max_examples=60, deadline=None)
    @given(SHAPES)
    @example(TableParams(16, 6, 8))
    @example(TableParams(30, 8, 5))  # l binds rows N > 5k
    @example(TableParams(9, 0, 3))  # slice 0 only
    def test_matches_full_table_at_max_slack(self, params):
        # The full table holds at least target_parts - 1 slices, so none
        # is banded and it answers every slack; cells do not depend on
        # the table's size.
        full = PartitionTable.build(replace(
            raised(params),
            max_part=max(params.max_part, params.target_parts - 1)))
        bounded = BoundedPartitionTable.build(raised(params))
        l = params.target_parts
        for N in range(params.max_sum + 1):
            for k in range(params.max_part + 1):
                assert bounded.query_raw(N, k, l, N) == full.query_raw(
                    N, k, l, N
                ), (params, N, k)

    def test_g_prime_on_low_sum_domain(self):
        # The bounded store only serves sums within twice the part
        # count, where the slack argument is always saturated.
        bounded = BoundedPartitionTable.build(TableParams(12, 5, 8))
        for N in range(0, 13, 2):
            for k in range(1, 6):
                if N > 2 * (8 - 1):
                    continue
                want = brute_exact(N, k, 8, N)
                assert bounded.g_prime(N, k, 8) == want

    def test_query_refuses_unsaturated_slack(self):
        bounded = BoundedPartitionTable.build(TableParams(12, 5, 8))
        assert bounded.query_raw(6, 3, 8, 6) == brute_count(6, 3, 8, 6)
        with pytest.raises(ValueError):
            bounded.query_raw(6, 3, 8, 5)

    def test_g_prime_rejects_high_sum(self):
        bounded = BoundedPartitionTable.build(TableParams(30, 5, 8))
        with pytest.raises(ValueError):
            bounded.g_prime(16, 4, 8)

    def test_g_prime_is_exact_where_it_answers(self):
        # Above N = 2(l - 1) a read is refused or clamps to 0.
        params = TableParams(30, 5, 8)
        full = PartitionTable.build(params)
        bounded = BoundedPartitionTable.build(params)
        answered = 0
        for N in range(0, 31, 2):
            for k in range(1, 7):
                try:
                    got = bounded.g_prime(N, k, 9)
                except ValueError:
                    assert N > 16, (N, k)
                    continue
                assert got == full.g_prime(N, k, 9), (N, k)
                answered += N > 16
        assert answered > 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM"
    )
    def test_estimate_covers_the_peak(self):
        """The peak resident growth of a dd-sized build, n = 28..266, each
        in a fresh process, is at most the estimate plus a fixed margin
        for the allocator's arenas (the growth runs about 125 KB above
        the estimate at n = 28).  n = 266 is the last n whose ints the
        estimate sizes at two digits, so its slots are charged least
        against their real size.  The estimate charges the one layer the
        fill keeps: a fill holding two layers at once grows 1.7 MB at
        n = 200, against an estimate of 0.93 MB.

        tracemalloc sees 22.8, 26.0, 31.0 and 35.8 bytes per slot at
        n = 28, 60, 100 and 200, but slows the n = 200 fill 40-fold; the
        resident growth reads 44 to 46 bytes at n = 200..266, against
        the estimate's 48.  The child reads VmHWM, the peak of its own
        address space; ru_maxrss would carry over the peak of the
        process that started it, this test run's.
        """
        src = os.path.dirname(os.path.dirname(partition_table.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        procs = {
            n: subprocess.Popen(
                [sys.executable, "-c", BOUNDED_PEAK, str(n)],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            for n in (28, 60, 100, 200, 266)
        }
        margin = 256 * 1024
        for n, proc in procs.items():
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, n
            growth, estimate = json.loads(out)
            assert growth - margin <= estimate, (n, growth, estimate)


class TestUnrestrictedP:
    def test_small_values(self):
        assert unrestricted_p(0) == 1
        assert unrestricted_p(1) == 1
        assert unrestricted_p(4) == 5

    def test_against_enumeration(self):
        for j in range(13):
            assert unrestricted_p(j) == sum(
                1 for _ in iter_partitions(j, j if j else 1, j if j else 1)
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            unrestricted_p(-1)
