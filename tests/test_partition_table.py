"""Tests for the four-parameter restricted-partition table.

The reference point throughout is a tiny brute-force enumerator that
lists partitions directly and applies the prefix-slack test, so every
stored cell is checked against first principles.  A cell-at-a-time
transcription of the recurrence checks the vectorized layer fill.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq.errors import LayerNotResidentError, MemoryBudgetError
from degseq.partition_table import (
    BoundedPartitionTable,
    PartitionTable,
    TableParams,
    estimate_table_bytes,
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

    Returns ({l: layer} for the resident final layers, row offsets), in
    the packed layout of PartitionTable: one flat list per k, row N at
    off[N] holding s = 0..N.
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
    if target == 0:
        return {0: prev}, off
    cur = [prev[0]] + [fresh() for _ in range(K)]
    for l in range(1, target + 1):
        fill_layer_reference(cur, prev, l, off, M, K)
        prev, cur = cur, prev
    return {target: prev, target - 1: cur}, off


def assert_fill_matches_reference(params):
    """Every stored cell of both resident layers equals the reference."""
    table = PartitionTable.build(params)
    layers, off = reference_layers(params)
    for l, ref in layers.items():
        for N in range(params.max_sum + 1):
            for k in range(params.max_part + 1):
                for s in range(N + 1):
                    assert table.query_raw(N, k, l, s) == ref[k][off[N] + s], (
                        params, N, k, l, s
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
    return PartitionTable.build(TableParams(12, 6, 6))


@pytest.fixture(scope="module")
def tables_all_targets():
    return {
        l: PartitionTable.build(TableParams(12, 6, l)) for l in range(7)
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
    @given(
        st.builds(
            TableParams,
            max_sum=st.integers(0, 12),
            max_part=st.integers(0, 8),
            target_parts=st.integers(0, 8),
        )
    )
    @example(TableParams(3, 6, 2))  # max_part > max_sum
    @example(TableParams(4, 2, 7))  # target_parts > max_sum
    def test_fill_matches_reference_on_random_shapes(self, params):
        assert_fill_matches_reference(params)

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
        table = PartitionTable.build(TableParams(8, 6, 20))
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
        with pytest.raises(LayerNotResidentError):
            table_6.query_raw(8, 3, 3, 0)

    def test_capacity_exceeded_raises(self, table_6):
        with pytest.raises(ValueError):
            table_6.query_raw(13, 3, 6, 0)

    def test_overfull_cell_outside_block_is_zero(self, table_6):
        # 20 > 3 * 6: no partition fits, so no stored row is needed.
        assert table_6.query_raw(20, 3, 6, 0) == 0
        assert table_6.query_raw(40, 7, 5, 3) == 0


class TestBuildExamples:
    def test_zero_sum_cell(self):
        table = PartitionTable.build(TableParams(12, 3, 3))
        assert table.query_raw(0, 3, 3, 0) == 1

    def test_full_slack_cell(self):
        table = PartitionTable.build(TableParams(5, 2, 3))
        assert table.query_raw(5, 2, 3, 5) == 1

    def test_failing_square_partition(self):
        table = PartitionTable.build(TableParams(4, 2, 2))
        assert table.query_raw(4, 2, 2, 0) == 0


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


class TestMemoryBudget:
    def test_estimate_grows_with_dimensions(self):
        small = estimate_table_bytes(TableParams(10, 4, 4))
        big = estimate_table_bytes(TableParams(40, 8, 8))
        assert 0 < small < big

    def test_refusal_before_allocation(self):
        params = TableParams(600, 20, 20)
        need = estimate_table_bytes(params)
        with pytest.raises(MemoryBudgetError) as err:
            PartitionTable.build(params, memory_cap=need - 1)
        assert err.value.estimated_bytes == need
        assert err.value.cap_bytes == need - 1

    def test_cap_at_estimate_allows_build(self):
        params = TableParams(20, 4, 4)
        need = estimate_table_bytes(params)
        PartitionTable.build(params, memory_cap=need)


class TestBoundedTable:
    def test_matches_full_table_at_max_slack(self):
        full = PartitionTable.build(TableParams(16, 6, 8))
        bounded = BoundedPartitionTable.build(TableParams(16, 6, 8))
        for N in range(17):
            for k in range(7):
                assert bounded.query_saturated(N, k, 8) == full.query_raw(
                    N, k, 8, N
                )

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

    def test_g_prime_rejects_high_sum(self):
        bounded = BoundedPartitionTable.build(TableParams(30, 5, 8))
        with pytest.raises(ValueError):
            bounded.g_prime(16, 4, 8)


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
