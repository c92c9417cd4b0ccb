"""Tests for the brute-force enumeration oracle."""

import pytest

from degseq.degree_counts import DnSeries, extend_series
from degseq.errors import OracleCapError
from degseq.oracle import (
    classify,
    enumerate_even_bounded,
    is_graphical_eg,
    is_graphical_nw,
    oracle_counts,
)


class TestEnumeration:
    def test_n2(self):
        assert list(enumerate_even_bounded(2)) == [(1, 1)]

    def test_n3(self):
        assert list(enumerate_even_bounded(3)) == [(2, 2, 2), (2, 1, 1)]

    def test_n4_size(self):
        # Non-increasing sequences over {1,2,3} of length 4 with even
        # sum: 1111, 2211, 2222, 3111, 3221, 3311, 3322, 3331, 3333.
        assert sum(1 for _ in enumerate_even_bounded(4)) == 9

    def test_members_are_valid(self):
        for n in range(2, 8):
            for seq in enumerate_even_bounded(n):
                assert len(seq) == n
                assert all(1 <= t <= n - 1 for t in seq)
                assert all(a >= b for a, b in zip(seq, seq[1:]))
                assert sum(seq) % 2 == 0

    def test_lexicographically_decreasing_and_unique(self):
        for n in range(2, 8):
            seqs = list(enumerate_even_bounded(n))
            assert seqs == sorted(set(seqs), reverse=True)

    def test_count_matches_direct_recursion(self):
        def count(slots, bound, parity):
            if slots == 0:
                return 1 if parity == 0 else 0
            return sum(
                count(slots - 1, t, parity ^ (t & 1))
                for t in range(1, bound + 1)
            )

        for n in range(2, 9):
            direct = count(n, n - 1, 0)
            assert sum(1 for _ in enumerate_even_bounded(n)) == direct

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            list(enumerate_even_bounded(1))


class TestGraphicalityCriteria:
    def test_eg_examples(self):
        assert is_graphical_eg((3, 3, 1, 1)) is False
        assert is_graphical_eg((2, 2, 1, 1)) is True
        assert is_graphical_eg((1, 1)) is True

    def test_nw_examples(self):
        assert is_graphical_nw((2, 1, 1)) is True
        assert is_graphical_nw((2, 2)) is False
        assert is_graphical_nw((1, 1)) is True

    @pytest.mark.parametrize("checker", [is_graphical_eg, is_graphical_nw])
    def test_rejects_odd_sum(self, checker):
        with pytest.raises(ValueError):
            checker((2, 1))

    @pytest.mark.parametrize("checker", [is_graphical_eg, is_graphical_nw])
    def test_rejects_unsorted(self, checker):
        with pytest.raises(ValueError):
            checker((1, 2, 1))

    @pytest.mark.parametrize("checker", [is_graphical_eg, is_graphical_nw])
    def test_rejects_negative_terms(self, checker):
        with pytest.raises(ValueError):
            checker((1, -1))

    def test_criteria_agree_exhaustively(self):
        for n in range(2, 9):
            for seq in enumerate_even_bounded(n):
                assert is_graphical_eg(seq) == is_graphical_nw(seq), seq


class TestClassify:
    def test_examples(self):
        assert classify((1, 1, 1, 1)) == (False, False)
        assert classify((2, 2, 2, 2)) == (True, True)
        assert classify((4, 2, 2, 2, 2)) == (True, False)


class TestOracleCounts:
    def test_n4_report(self):
        rep = oracle_counts(4)
        assert (rep.d, rep.d0, rep.dc, rep.dd) == (7, 11, 6, 1)
        assert (rep.s, rep.b, rep.c, rep.d2, rep.db) == (2, 2, 4, 3, 3)

    def test_n5_report(self):
        rep = oracle_counts(5)
        assert (rep.d, rep.dc, rep.dd) == (20, 19, 1)
        assert (rep.s, rep.b, rep.c, rep.d2, rep.db) == (6, 4, 10, 10, 9)

    def test_n2_report(self):
        rep = oracle_counts(2)
        assert (rep.d, rep.dc, rep.dd) == (1, 1, 0)

    def test_internal_identities(self):
        for n in range(2, 9):
            rep = oracle_counts(n)
            assert rep.h + rep.l == rep.d
            assert rep.dc + rep.dd == rep.d
            assert rep.c == rep.b + rep.s
            assert rep.d2 == rep.d - rep.c
            assert rep.db + rep.d2_minus_b == rep.d2
            assert rep.profile_g.total() == rep.d
            assert sum(rep.by_largest.values()) == rep.d

    def test_d0_matches_partial_sums(self):
        series = extend_series(DnSeries(), 8)
        for n in range(2, 9):
            assert oracle_counts(n).d0 == 1 + sum(
                series[i] for i in range(2, n + 1)
            )

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            oracle_counts(9, cap=8)
