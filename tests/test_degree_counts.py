"""Tests for the per-n counting routes and degree-sum profiles."""

import pytest

from degseq.connectivity_counts import count_dd, count_s
from degseq.degree_counts import (
    DnSeries,
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
from degseq.errors import MissingPriorError

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

    def test_short_prior_raises(self):
        with pytest.raises(MissingPriorError):
            count_d_improved(6, DnSeries([0, 1, 2]))


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
        for n in range(2, 11):
            ent = profile(n, "H").entries
            for N in ent:
                mate = (n + 2) * (n - 1) - N
                if mate in ent:
                    assert ent[N] == ent[mate]

    def test_mirror_shortcut_equals_direct_fill(self):
        for n in range(2, 11):
            for fam in ("L", "H"):
                assert (
                    profile(n, fam, mirror=True).entries
                    == profile(n, fam, mirror=False).entries
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
    def test_every_family_matrix_sums_to_its_counts(self):
        series = extend_series(DnSeries(), 14)
        for n in range(2, 15):
            full = graphical_matrix(n, n * (n - 1), range(1, n))
            cols = [sum(col) for col in zip(*full.values())]
            d, h, l = sum(cols), cols[-1], sum(cols[:-1])
            assert d == series[n] == h + l
            assert (h, l) == (count_h(n, series), count_l(n))
            dc = sum(sum(r) for N, r in full.items() if N >= 2 * (n - 1))
            assert dc + count_dd(n) == d
            if n >= 3:
                assert cols[n - 3] == count_s(n)
            # The smaller matrices the H, L and s counts ask for, as
            # (largest sum, largest degrees), serve the same cells.
            families = [
                (n * (n - 1), range(n - 1, n)),
                ((n + 2) * (n - 1) // 2, range(n - 1, n)),
            ]
            if n >= 3:
                families += [
                    (n * (n - 2), range(1, n - 1)),
                    (n * (n - 1) // 2, range(1, n - 1)),
                    (n * (n - 2), range(n - 2, n - 1)),
                ]
            for top, degrees in families:
                rows = graphical_matrix(n, top, degrees)
                assert list(rows) == [N for N in full if N <= top]
                for N, row in rows.items():
                    assert row == full[N][degrees.start - 1 : degrees.stop - 1]


class TestDnSeries:
    def test_requires_zero_anchor(self):
        with pytest.raises(ValueError):
            DnSeries([1, 1])

    def test_requires_d2_of_one(self):
        with pytest.raises(ValueError):
            DnSeries([0, 5])

    def test_missing_value_raises(self):
        with pytest.raises(MissingPriorError):
            DnSeries([0, 1])[3]

    def test_extend_is_incremental(self, series_10):
        partial = extend_series(DnSeries(), 6)
        extend_series(partial, 10)
        assert partial == series_10


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
