"""Tests for the per-n counting routes and degree-sum profiles."""

import dataclasses

import numpy as np
import pytest

from degseq import memory_budget, partition_table
from degseq.connectivity_counts import (
    count_b,
    count_d2_minus_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from degseq.degree_counts import (
    FAMILIES,
    DnSeries,
    _extent,
    _harvest,
    _matrix_params,
    count_by_largest,
    count_d0,
    count_d_basic,
    count_d_improved,
    count_h,
    count_l,
    extend_series,
    graphical_matrix,
    profile,
    read_series_file,
    write_series_file,
)
from degseq.errors import MemoryBudgetError, MissingPriorError
from degseq.oracle import oracle_counts
from degseq.partition_table import (
    PartitionTable,
    TableParams,
    estimate_table_bytes,
)

# Zero-free counts d(2)..d(8), cross-checked against the brute-force
# oracle before being frozen here.
KNOWN_D = {2: 1, 3: 2, 4: 7, 5: 20, 6: 71, 7: 240, 8: 871}


@pytest.fixture(scope="module")
def series_10():
    return extend_series(DnSeries(), 10)


class TestCountDBasic:
    @pytest.mark.parametrize("n,want", sorted(KNOWN_D.items()))
    def test_known_values(self, n, want):
        assert count_d_basic(n) == want

    def test_single_vertex_has_no_sequences(self):
        assert count_d_basic(1) == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            count_d_basic(0)


class TestCountDImproved:
    def test_prior_of_length_two(self):
        assert count_d_improved(3, DnSeries([0, 1])) == 2

    def test_prior_of_length_three(self):
        assert count_d_improved(4, DnSeries([0, 1, 2])) == 7

    def test_prior_of_length_four(self):
        assert count_d_improved(5, DnSeries([0, 1, 2, 7])) == 20

    def test_agrees_with_basic(self, series_10):
        for n in range(2, 11):
            assert count_d_improved(n, series_10) == count_d_basic(n)

    def test_short_prior_raises(self, table_builds):
        with pytest.raises(MissingPriorError):
            count_d_improved(6, DnSeries([0, 1, 2]))
        assert table_builds == []


class TestCountD0:
    def test_single_vertex(self, series_10):
        assert count_d0(1, series_10) == 1

    def test_partial_sums(self, series_10):
        assert count_d0(2, series_10) == 2
        assert count_d0(4, series_10) == 11

    def test_recurrence_against_d(self, series_10):
        for n in range(2, 11):
            assert count_d0(n, series_10) == count_d0(
                n - 1, series_10
            ) + series_10[n]


class TestCountHAndL:
    def test_h_examples(self, series_10):
        assert count_h(2, series_10) == 1
        assert count_h(3, series_10) == 2
        assert count_h(4, series_10) == 4

    def test_l_examples(self):
        assert count_l(2) == 0
        assert count_l(3) == 0
        assert count_l(4) == 3

    def test_split_recovers_d(self, series_10):
        for n in range(2, 11):
            total = count_h(n, series_10) + count_l(n)
            assert total == series_10[n]


class TestProfiles:
    def test_g_profile_n4(self):
        assert profile(4, "G").entries == {4: 1, 6: 2, 8: 2, 10: 1, 12: 1}

    def test_l_profile_n3_empty(self):
        prof = profile(3, "L")
        assert all(v == 0 for v in prof.entries.values())

    def test_h_profile_n4(self):
        assert profile(4, "H").entries == {6: 1, 8: 1, 10: 1, 12: 1}

    def test_profile_totals(self, series_10):
        for n in range(2, 9):
            assert profile(n, "G").total() == series_10[n]
            assert profile(n, "L").total() == count_l(n)
            assert profile(n, "H").total() == count_h(n, series_10)

    def test_l_mirror_identity(self):
        for n in range(2, 11):
            ent = profile(n, "L").entries
            for N in ent:
                mate = n * (n - 1) - N
                if mate in ent:
                    assert ent[N] == ent[mate]

    def test_h_mirror_identity(self):
        # H is never mirrored, so every entry here is read from the matrix.
        for n in range(2, 11):
            ent = profile(n, "H").entries
            for N in ent:
                mate = (n + 2) * (n - 1) - N
                if mate in ent:
                    assert ent[N] == ent[mate]

    def test_mirror_shortcut_equals_direct_fill(self):
        for n in range(2, 11):
            assert (
                profile(n, "L", mirror=True).entries
                == profile(n, "L", mirror=False).entries
            )

    def test_g_splits_into_l_plus_h(self):
        for n in range(2, 9):
            g = profile(n, "G").entries
            l = profile(n, "L").entries
            h = profile(n, "H").entries
            for N, count in g.items():
                assert count == l.get(N, 0) + h.get(N, 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            profile(4, "X")


class TestCountByLargest:
    def test_examples(self):
        assert count_by_largest(4) == {1: 1, 2: 2, 3: 4}
        assert count_by_largest(2) == {1: 1}
        assert count_by_largest(3) == {1: 0, 2: 2}

    def test_total_is_d(self, series_10):
        for n in range(2, 9):
            assert sum(count_by_largest(n).values()) == series_10[n]


class TestGraphicalMatrix:
    def test_every_family_matrix_sums_to_its_counts(self, read_matrix):
        series = extend_series(DnSeries(), 14)
        for n in range(2, 15):
            full = graphical_matrix(n)
            sums = range(n + n % 2, n * (n - 1) + 1, 2)
            assert len(full) == n - 1
            assert all(len(col) == len(sums) for col in full)
            cols = [sum(col) for col in full]
            d, h, l = sum(cols), cols[-1], sum(cols[:-1])
            assert d == series[n] == h + l
            assert (h, l) == (count_h(n, series), count_l(n))
            dc = sum(v for col in full for N, v in zip(sums, col)
                     if N >= 2 * (n - 1))
            assert dc + count_dd(n) == d
            if n >= 3:
                assert cols[n - 3] == count_s(n)
            # Both heights, as (largest sum, largest degree), hold the
            # same cells whether cut from the memo or read from the
            # table graphical_params sizes for them, which is how a fill
            # of that height is sized.  The table is built and read
            # here, independently of the memo.
            heights = {True: (n * (n - 1), n - 1),
                       False: (n * (n - 1) // 2, n - 2)}
            for height, (top, kmax) in heights.items():
                table = PartitionTable.build(_matrix_params(n, height))
                cut = tuple(col[:len(range(sums.start, top + 1, 2))]
                            for col in full[:kmax])
                assert graphical_matrix(n, height) == cut
                assert read_matrix(table, n, top, kmax) == cut


    def test_series_reads_few_cells_one_at_a_time(self, monkeypatch):
        """A harvest reads every stored cell of a matrix in whole
        columns; g_prime still answers the cells of negative sum, which
        lie outside the stored block, as the benchmark's tracer requires.
        So does count_dd's read of the bounded table."""
        g_prime, calls = PartitionTable.g_prime, []

        def counted(table, N, k, l):
            calls.append(N)
            return g_prime(table, N, k, l)

        monkeypatch.setattr(PartitionTable, "g_prime", counted)
        extend_series(DnSeries(), 30)
        cells = 0
        for n in range(2, 31):
            top, kmax = _extent(n, False)
            cells += len(range(n + n % 2, top + 1, 2)) * kmax
        assert cells == 43141
        assert 0 < len(calls) < cells / 20
        calls.clear()
        count_dd(40)
        reads = [N - k - 39 for N in range(40, 78, 2) for k in range(1, 38)]
        assert (len(reads), len(calls)) == (703, 342)
        assert len(calls) == sum(R < 0 for R in reads)


def unbanded_shape(params, k):
    """_slice_shape without the band: every slice stores every slack up
    to its saturation, at either height."""
    return (partition_table._slice_rows(params, k) + 1,
            partition_table._saturation(params, k) + 1)


class TestSlackBand:
    """The slack band: in slice k no cell above column (L - k)^2 // 4, L
    the table's target_parts, reaches a graphical read, at either height,
    in a series harvest or in a single n's.  Half-height fills store the
    band, so there the garbling below pins it on the banded fill; at full
    height it pins the band on the unbanded fill."""

    NS = range(4, 17)

    @staticmethod
    def harvest(ns, full):
        """Each n's matrix as a harvest of ``ns`` memoizes it."""
        got = {}
        _harvest(ns, full,
                 lambda n: got.update({n: graphical_matrix(n, full)}))
        return got

    def reads(self, full):
        """Each n's matrix from a series harvest of NS and from each n's
        own harvest."""
        return (self.harvest(self.NS, full),
                {n: self.harvest(range(n, n + 1), full)[n] for n in self.NS})

    def garble_past(self, monkeypatch, band):
        """From here on, every fill's layer visitor, after the harvest's
        read, overwrites each column of slice k above min((k + 1)^2 // 4,
        band(L, k)) with garbage, in every layer."""
        build = PartitionTable.build.__func__

        def garbling(cls, params, layer_visitor):
            def visit(l, layer):
                layer_visitor(l, layer)
                for k, cells in enumerate(layer._slices):
                    last = min((k + 1) ** 2 // 4, band(params.target_parts, k))
                    cells[:, :, last + 1:] = 0x5A5A5A5A5A5A5A5A
            return build(cls, params, layer_visitor=visit)

        monkeypatch.setattr(PartitionTable, "build", classmethod(garbling))

    @pytest.mark.parametrize("full", [True, False], ids=["full", "half"])
    def test_columns_past_the_band_are_never_read(self, monkeypatch, full):
        clean = self.reads(full)
        self.garble_past(monkeypatch, lambda L, k: (L - k) ** 2 // 4)
        assert self.reads(full) == clean

    @pytest.mark.parametrize("full", [True, False], ids=["full", "half"])
    def test_one_step_tighter_is_caught(self, monkeypatch, full):
        clean = self.reads(full)
        self.garble_past(monkeypatch, lambda L, k: (L - 1 - k) ** 2 // 4)
        # The band follows the table's L, so in a series harvest it
        # reaches only the reads of the top n.
        for got, want, broken in zip(self.reads(full), clean,
                                     ([16], list(self.NS))):
            assert [n for n in self.NS if got[n] != want[n]] == broken

    def test_half_height_series_matches_the_unbanded_fill(self,
                                                          monkeypatch):
        """The d series' harvest above the oracle: to n = 36, past
        n = 35, the first whose half-height table has two prime planes,
        every matrix equals the one the unbanded fill gives."""
        ns = range(2, 37)
        params = _matrix_params(ns[-1], False)
        assert partition_table._planes(params) == 2
        assert partition_table._planes(_matrix_params(34, False)) == 1
        # The band binds: it stores under a third of the unbanded cells.
        banded = estimate_table_bytes(params)
        banded_matrices = self.harvest(ns, False)
        monkeypatch.setattr(partition_table, "_slice_shape", unbanded_shape)
        assert 3 * banded < estimate_table_bytes(params)
        assert self.harvest(ns, False) == banded_matrices


class TestMatrixMemo:
    def test_one_build_serves_every_table_counter(self, table_builds):
        n = 9
        want = oracle_counts(n)
        series = DnSeries([0, *(KNOWN_D[i] for i in range(2, n - 1))])
        biconn = count_db(n, series, want.d)
        got = {
            "s": count_s(n),
            "c": biconn.c,
            "d2": biconn.d2,
            "db": biconn.db,
            "l": count_l(n),
            "d": count_d_basic(n),
            "dc": count_dc_direct(n),
            "by_largest": count_by_largest(n),
        }
        assert got == {name: getattr(want, name) for name in got}
        for family, total in {"G": want.d, "L": want.l, "H": want.h}.items():
            for mirror in (True, False):
                assert profile(n, family, mirror=mirror).total() == total
        assert profile(n, "G").entries == want.profile_g.entries
        assert table_builds == [_matrix_params(n, True)]

    def test_memo_holds_one_n(self, table_builds):
        for n in (7, 8, 8, 7):
            count_l(n)
            count_s(n)
        assert table_builds == [_matrix_params(n, True) for n in (7, 8, 7)]

    def test_answers_cannot_alter_the_memo(self, table_builds, read_matrix):
        n = 8
        want = read_matrix(
            PartitionTable.build(_matrix_params(n, True)),
            n, n * (n - 1), n - 1,
        )
        for full in (True, False):
            cols = graphical_matrix(n, full)
            assert type(cols) is tuple
            for col in cols:
                with pytest.raises(TypeError):
                    col[0] = -1
        for family in FAMILIES:
            entries = profile(n, family).entries
            for N in entries:
                entries[N] = -1
        assert graphical_matrix(n) == want
        assert profile(n, "G").total() == count_d_basic(n) == KNOWN_D[n]
        assert table_builds == [_matrix_params(n, True)] * 2

    def test_hit_needs_no_memory(self, table_builds):
        l10 = count_l(10)
        with memory_budget(1):
            assert count_l(10) == l10
            with pytest.raises(MemoryBudgetError):
                count_s(11)
            # The refused build leaves the memo as it was.
            assert profile(10, "L").total() == l10
        assert table_builds == [
            _matrix_params(10, True), _matrix_params(11, True)
        ]

    def test_series_fill_leaves_its_top_half_matrix(self, table_builds):
        n = 12
        extend_series(DnSeries(), n)
        want = oracle_counts(n)
        table_builds.clear()
        # The half-height matrix of n serves l and the L profile ...
        assert count_l(n) == profile(n, "L").total() == want.l
        assert table_builds == []
        # ... but not a full-height count, whose build the cap refuses
        # without evicting the half-height matrix.
        with memory_budget(1):
            with pytest.raises(MemoryBudgetError):
                count_s(n)
            assert count_l(n) == want.l
        assert table_builds == [_matrix_params(n, True)]
        table_builds.clear()
        got = {
            "s": count_s(n),
            "dc": count_dc_direct(n),
            "by_largest": count_by_largest(n),
            "h": profile(n, "H").total(),
        }
        assert got == {name: getattr(want, name) for name in got}
        assert table_builds == [_matrix_params(n, True)]


@pytest.mark.parametrize(
    "counter,args",
    [pytest.param(counter, args, id=counter.__name__) for counter, args in [
        (count_dc_direct, (1,)),
        (count_dd, (1,)),
        (count_dc_indirect, (1, 0)),
        (count_b, (2, DnSeries())),
        (count_d2_minus_b, (1,)),
        (count_d_improved, (0, DnSeries())),
        (count_d0, (0, DnSeries())),
        (count_h, (1, DnSeries())),
        (count_l, (0,)),
        (profile, (1, "G")),
        (count_by_largest, (1,)),
        (graphical_matrix, (1,)),
        (graphical_matrix, (0, False)),
    ]],
)
def test_counter_refuses_n_below_its_minimum(table_builds, counter, args):
    with pytest.raises(ValueError, match="need n >= "):
        counter(*args)
    assert table_builds == []


class TestDnSeries:
    def test_requires_zero_anchor(self):
        with pytest.raises(ValueError):
            DnSeries([1, 1])

    def test_requires_d2_of_one(self):
        with pytest.raises(ValueError):
            DnSeries([0, 5])

    def test_requires_a_value(self):
        with pytest.raises(ValueError, match="d\\(1\\) = 0"):
            DnSeries([])

    def test_missing_value_raises(self):
        with pytest.raises(MissingPriorError):
            DnSeries([0, 1])[3]

    def test_values_must_be_integers(self):
        for value in (2.9, "2"):
            with pytest.raises(ValueError, match="d\\(3\\) = .* integer"):
                DnSeries([0, 1, value])
        series = DnSeries([0, 1, np.int64(2)])
        assert series[3] == 2 and type(series[3]) is int

    def test_extend_is_incremental(self, series_10):
        partial = extend_series(DnSeries(), 6)
        extend_series(partial, 10)
        assert partial == series_10


class TestExtendSeries:
    def test_one_table_build(self, table_builds):
        series = extend_series(DnSeries(), 14)
        # One table, covering the lower half of the L profile of 14: its
        # sums up to 90, the last even one below 14 * 13 / 2.
        assert table_builds == [TableParams(90 - 14, 11, 13)]
        assert [series[n] for n in KNOWN_D] == list(KNOWN_D.values())

    def test_resume_from_every_prefix(self):
        whole = extend_series(DnSeries(), 14)
        for m in range(1, 14):
            resumed = DnSeries(whole[n] for n in range(1, m + 1))
            assert extend_series(resumed, 14) == whole, m

    def test_refused_cap_leaves_series_unchanged(self):
        series = extend_series(DnSeries(), 10)
        before = DnSeries(v for _, v in series.items())
        need = estimate_table_bytes(
            TableParams(min(40 * 39 // 2 - 40, 37 * 39), 37, 39)
        )
        with memory_budget(need - 1), pytest.raises(MemoryBudgetError) as err:
            extend_series(series, 40)
        assert err.value.estimated_bytes == need
        assert series == before


class TestSeriesFile:
    def test_round_trip(self, tmp_path, series_10):
        path = tmp_path / "bfile.txt"
        write_series_file(path, series_10)
        assert read_series_file(path) == series_10

    def test_written_format(self, tmp_path, series_10):
        path = tmp_path / "bfile.txt"
        write_series_file(path, series_10)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert b"\r" not in raw
        lines = raw.decode("ascii").splitlines()
        assert lines[0] == "1 0"
        assert lines[3] == "4 7"

    def test_failed_write_keeps_previous_file(self, tmp_path, series_10):
        class FailingSeries(DnSeries):
            def items(self):
                yield from list(super().items())[:2]
                raise RuntimeError("interrupted")

        path = tmp_path / "bfile.txt"
        write_series_file(path, series_10)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_series_file(path, FailingSeries([0, 1, 2]))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_reader_tolerates_comments_and_blanks(self, tmp_path):
        path = tmp_path / "bfile.txt"
        path.write_text("# header\n\n1 0\n2 1\n3 2\n")
        series = read_series_file(path)
        assert series.n_max == 3
        assert series[3] == 2

    def test_reader_rejects_gaps(self, tmp_path):
        path = tmp_path / "bfile.txt"
        path.write_text("1 0\n3 2\n")
        with pytest.raises(ValueError):
            read_series_file(path)

    @pytest.mark.parametrize(
        "tail,bad_n",
        [
            ([21], 5),  # d(5) is 20
            ([20, 20], 6),  # not increasing
            ([20, 210], 6),  # C(10, 6) = 210 sequences of 6 degrees in 1..5
        ],
    )
    def test_reader_rejects_impossible_values(self, tmp_path, tail, bad_n):
        path = tmp_path / "bfile.txt"
        values = [0, 1, 2, 7] + tail
        path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values, 1)))
        with pytest.raises(ValueError, match=rf"bfile\.txt: d\({bad_n}\) "):
            read_series_file(path)


# d(31)..d(40) as the object-dtype fill computed them, in exact Python
# ints.  The series to 40 is one fill on two prime residue planes, and
# from d(35) on the values pass 2^62, so the planes' reductions and the
# CRT that combines them decide these values.
D_ABOVE_2_62 = {
    31: 22974847399695092,
    32: 89891104720825873,
    33: 351942828583179792,
    34: 1378799828613947813,
    35: 5404903918269554894,
    36: 21199115755295418925,
    37: 83191147605571603932,
    38: 326628272368541021429,
    39: 1283028756692078957558,
    40: 5042135487877970071891,
}

# Primes below 2^62 that share none of the table's moduli.
OTHER_PRIMES = tuple(2**62 - c for c in (171, 195, 203, 273, 287, 317))


class TestExactAbove2To62:
    def test_series_matches_pinned_values(self, series_40):
        series, _ = series_40
        assert {n: series[n] for n in D_ABOVE_2_62} == D_ABOVE_2_62

    def test_basic_route_on_prime_planes(self, empty_memo):
        # Full height at 35 has max_part + target_parts = 67 > 64.
        assert count_d_basic(35) == D_ABOVE_2_62[35]

    def test_disjoint_moduli_give_the_same_series(
        self, monkeypatch, series_40, empty_memo
    ):
        monkeypatch.setattr(partition_table, "_PRIMES", OTHER_PRIMES)
        series = extend_series(DnSeries(), 36)
        assert list(series.items()) == list(series_40[0].items())[:36]


@pytest.mark.parametrize("n", [10, 35])
def test_every_count_is_a_python_int(n, series_40):
    """No numpy scalar leaks out: an np.uint64 would wrap in sums."""
    series, _ = series_40
    cells = [v for col in graphical_matrix(n) for v in col]
    counts = [
        count_d_basic(n), count_d_improved(n, series), count_d0(n, series),
        count_h(n, series), count_l(n), count_dc_direct(n),
        count_dc_indirect(n, series[n]), count_dd(n), count_s(n),
        count_b(n, series), count_d2_minus_b(n),
        *dataclasses.astuple(count_db(n, series, series[n])),
        *count_by_largest(n).values(),
        *(v for f in FAMILIES for v in profile(n, f).entries.values()),
        *(profile(n, f).total() for f in FAMILIES),
    ]
    assert cells and all(type(v) is int for v in cells + counts)
