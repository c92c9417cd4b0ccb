"""Tests for the brute-force enumeration oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq import oracle
from degseq.degree_counts import DnSeries, extend_series, graphical_matrix
from degseq.oracle import (
    _validate,
    enumerate_even_bounded,
    is_graphical_eg,
    oracle_counts,
)
from test_partition_table import iter_partitions


def is_graphical_nw(seq) -> bool:
    """Graphicality by the conjugate-prefix slack test, the second
    criterion is_graphical_eg is checked against (here and in criterion
    8 of the acceptance tests).

    With conj_j = #{i : d_i >= j}, requires the running sum of
    (conj_j - d_j) to reach j for every j up to the crossing index.

    Raises:
        ValueError: as is_graphical_eg.
    """
    _validate(seq)
    run, conj = 0, len(seq)
    for j, d in enumerate(seq, 1):
        if d < j:
            break
        while seq[conj - 1] < j:
            conj -= 1
        run += conj - d
        if run < j:
            return False
    return True


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


CHECKERS = [is_graphical_eg, is_graphical_nw]

# Non-increasing sequences with zeros, length up to 30 and terms up to a
# drawn cap of at most 40: a low cap keeps many of them near the
# graphical boundary, where a uniform draw up to 40 rarely lands.
NONINCREASING = st.integers(0, 40).flatmap(
    lambda cap: st.lists(st.integers(0, cap), max_size=30)
).map(lambda terms: sorted(terms, reverse=True))


# Integer sequences, negatives included, either as drawn or sorted
# non-increasing: a raw draw is rarely ordered, so the sorted half is
# what reaches the sign and parity checks.  A small drawn cap keeps
# runs of equal terms common.
INTEGER_SEQUENCES = st.integers(0, 6).flatmap(
    lambda cap: st.lists(st.integers(-2, cap), max_size=12)
).flatmap(
    lambda terms: st.sampled_from([terms, sorted(terms, reverse=True)])
)


def validation_error(seq):
    """The message _validate must raise for seq, from the definitions
    checked in order: every adjacent pair non-increasing, every term
    nonnegative, an even sum; None when all three hold."""
    if any(a < b for a, b in zip(seq, seq[1:])):
        return "sequence must be non-increasing"
    if any(d < 0 for d in seq):
        return "degrees are nonnegative"
    if sum(seq) % 2:
        return "degree sum must be even"
    return None


def textbook_eg(seq):
    """Erdős–Gallai as stated, for a non-increasing even-sum sequence:
    for every k = 1..n, the k largest terms sum to at most
    k(k - 1) + sum of min(d_i, k) over the other terms."""
    return all(
        sum(seq[:k]) <= k * (k - 1) + sum(min(d, k) for d in seq[k:])
        for k in range(1, len(seq) + 1)
    )


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

    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize(
        "seq", [(1, 2, 1), (-1, 1), (1, -1), (2, 1), (0, -2)]
    )
    def test_rejects_invalid_tuples_and_lists(self, checker, seq):
        # Unsorted, unsorted and negative, negative last, odd sum, and
        # negative after a zero.
        with pytest.raises(ValueError):
            checker(seq)
        with pytest.raises(ValueError):
            checker(list(seq))

    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize("seq", [(), (0,), (0, 0, 0, 0)])
    def test_empty_and_all_zero_are_graphical(self, checker, seq):
        assert checker(seq) is True
        assert checker(list(seq)) is True

    @settings(max_examples=500)
    @given(INTEGER_SEQUENCES)
    @example([])
    @example([0, 0, 0])
    @example([3, 3, 3, 3])
    @example([2, 2, 1, 1, 0, 0])
    @example([0, -1])  # a negative after a zero, odd sum: sign first
    @example([1, 0, -1])  # a negative after a zero, even sum
    @example([2, 1])  # odd sum
    @example([-1, 1])  # unsorted and negative: order first
    @example([1, 2, 2])  # unsorted and odd sum: order first
    @example([1, 1, 2, 2])
    def test_validate_raises_exactly_on_the_first_failed_definition(
        self, seq
    ):
        """_validate raises exactly when the pairwise order, sign or
        parity definition fails, with the message of the first that
        fails, as tuples and as lists."""
        want = validation_error(seq)
        for form in (tuple(seq), list(seq)):
            if want is None:
                assert _validate(form) is None
            else:
                with pytest.raises(ValueError) as err:
                    _validate(form)
                assert str(err.value) == want, (form, want)

    @settings(max_examples=300)
    @given(NONINCREASING)
    @example([3, 3, 3, 3])  # K4
    @example([4, 4, 4, 4])  # a term above n - 1
    @example([2, 2, 2, 1, 1, 0])
    @example([4, 4, 2, 1, 1])  # first fails at k = 2
    def test_criteria_match_the_textbook_statement(self, seq):
        """Both tests agree with Erdős–Gallai as stated, every k = 1..n,
        on sequences with zeros and terms above n - 1, which E(n) never
        holds, as tuples and as lists."""
        for checker in CHECKERS:
            for form in (tuple(seq), list(seq)):
                if sum(seq) % 2:
                    with pytest.raises(ValueError):
                        checker(form)
                else:
                    assert checker(form) is textbook_eg(seq), (checker, seq)

    def test_criteria_agree_exhaustively(self):
        for n in range(2, 9):
            for seq in enumerate_even_bounded(n):
                assert is_graphical_eg(seq) == is_graphical_nw(seq), seq


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

    def test_each_candidate_is_decided_once(self, monkeypatch):
        # d0(9) reads the histograms of n = 2..8 too, so the first call
        # decides every member of E(2)..E(9) once; the second, none.
        monkeypatch.setattr(oracle, "_HISTOGRAMS", {})
        eg = oracle.is_graphical_eg
        calls = []

        def counted(seq):
            calls.append(seq)
            return eg(seq)

        monkeypatch.setattr(oracle, "is_graphical_eg", counted)
        oracle_counts(9)
        assert len(calls) == sum(
            len(list(enumerate_even_bounded(n))) for n in range(2, 10)
        )
        calls.clear()
        oracle_counts(9)
        assert calls == []

    def test_cap_enforced(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "enumerate_even_bounded",
                            lambda n: calls.append(n) or iter(()))
        with pytest.raises(ValueError, match="capped at n=14"):
            oracle_counts(15)
        assert calls == []


def extreme_rows(n, jmax):
    """The rows of n's full-height graphical matrix within 2 * jmax of
    either end, by enumeration: yields each row's sum N with its counts
    over the largest degree k = 1..n - 1.

    Both ends come from partitions q into at most n parts, each at most
    n - 2, padded with zeros to n terms.  At the bottom, degrees 1 + q
    with q a partition of r = 2j + n % 2 sum to N = n + r, with largest
    1 + q_1.  At the top, q is a partition of 2j and degrees n - 1 - q,
    its complement, sum to N = n(n - 1) - 2j, with largest n - 1 - q_n;
    they are graphical exactly when q is (complement the graph).  Each
    row costs p(r) or p(2j) criterion calls, whatever n is.
    """
    def padded(r):
        for q in iter_partitions(r, n - 2, n):
            yield q + (0,) * (n - len(q))

    for j in range(jmax + 1):
        bottom, top = [0] * (n - 1), [0] * (n - 1)
        for q in padded(2 * j + n % 2):
            if is_graphical_eg(tuple(1 + x for x in q)):
                bottom[q[0]] += 1
        for q in padded(2 * j):
            if is_graphical_eg(q):
                top[n - 2 - q[-1]] += 1
        yield n + n % 2 + 2 * j, bottom
        yield n * (n - 1) - 2 * j, top


class TestExtremeRows:
    """An oracle past the enumeration's reach: the rows within 32 of
    either end of the graphical matrix, against the table's, at n = 36
    and 37 (two prime residue planes, both parities of n)."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_both_ends_match_the_oracle_histogram(self, n):
        # With 2j up to n(n - 1)/2 the two ends overlap: every row is
        # enumerated, some from both ends.
        want = {N: [0] * (n - 1) for N in range(n + n % 2, n * n - n + 1, 2)}
        for (N, k, _), count in oracle._histogram(n).items():
            want[N][k - 1] += count
        got = list(extreme_rows(n, n * (n - 1) // 4))
        assert {N for N, _ in got} == set(want)
        for N, row in got:
            assert row == want[N], (n, N)

    @pytest.mark.parametrize("n", [36, 37])
    def test_extreme_rows_match_the_matrix(self, n):
        cols = graphical_matrix(n)
        for N, row in extreme_rows(n, 16):
            i = (N - n - n % 2) // 2  # the sums start at the even N >= n
            assert [col[i] for col in cols] == row, (n, N)
