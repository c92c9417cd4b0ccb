"""Tests for connectivity and biconnectivity potential counts."""

import pytest

from degseq.connectivity_counts import (
    connectivity_report,
    count_b,
    count_d2_minus_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from degseq.degree_counts import DnSeries, extend_series
from degseq.partition_table import unrestricted_p


def d2_minus_b_prefix(n):
    """d2(n) - db(n) via cumulative parity-split prefix sums of p(j).

    An independent route to count_d2_minus_b: sums each parity class
    once and reuses the running totals across the largest degree d1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n <= 4:
        return 0
    # prefix_even[m] = p(0) + p(2) + ... + p(2m); prefix_odd likewise over odd j
    kmax = (n - 1) // 2
    prefix_even = [unrestricted_p(0)]
    for m in range(1, max(1, kmax)):
        prefix_even.append(prefix_even[-1] + unrestricted_p(2 * m))
    prefix_odd = [unrestricted_p(1)]
    for m in range(1, max(1, kmax)):
        prefix_odd.append(prefix_odd[-1] + unrestricted_p(2 * m + 1))
    total = 0
    for d1 in range(4, n):
        k = d1 // 2
        if d1 % 2 == 0:
            if 2 * k - 4 >= 0:
                total += prefix_even[k - 2]
        else:
            if 2 * k - 3 >= 1:
                total += prefix_odd[k - 2]
    return total


@pytest.fixture(scope="module")
def series_12():
    return extend_series(DnSeries(), 12)


class TestConnectedSide:
    def test_dc_direct_examples(self):
        assert count_dc_direct(3) == 2
        assert count_dc_direct(4) == 6
        assert count_dc_direct(5) == 19

    def test_dd_examples(self):
        assert count_dd(4) == 1
        assert count_dd(5) == 1
        assert count_dd(2) == 0

    def test_dc_indirect_examples(self):
        assert count_dc_indirect(4, 7) == 6
        assert count_dc_indirect(5, 20) == 19
        assert count_dc_indirect(2, 1) == 1

    def test_direct_equals_indirect(self, series_12):
        for n in range(2, 13):
            assert count_dc_direct(n) == count_dc_indirect(
                n, series_12[n]
            )

    def test_split_covers_d(self, series_12):
        for n in range(2, 13):
            assert count_dc_direct(n) + count_dd(n) == series_12[n]

    def test_report_carries_method(self, series_12):
        direct = connectivity_report(5, method="direct")
        indirect = connectivity_report(5, series_12[5], method="indirect")
        assert direct.method == "direct"
        assert indirect.method == "indirect"
        assert (direct.dc, direct.dd) == (indirect.dc, indirect.dd) == (19, 1)


class TestSubmaximalAndHighLow:
    def test_s_examples(self):
        assert count_s(4) == 2
        assert count_s(5) == 6
        assert count_s(3) == 0

    def test_b_examples(self, series_12):
        assert count_b(4, series_12) == 2
        assert count_b(5, series_12) == 4
        assert count_b(3, series_12) == 1

    def test_s_rejects_small_n(self):
        with pytest.raises(ValueError):
            count_s(2)


class TestD2MinusB:
    def test_first_contributing_largest_degree(self):
        # Largest degree 4 contributes p(0) = 1; degrees 2 and 3 have
        # empty ranges, so up through n = 5 the total is exactly 1.
        assert count_d2_minus_b(5) == 1
        assert count_d2_minus_b(4) == 0
        assert count_d2_minus_b(3) == 0

    def test_loop_start_two_equals_four(self):
        # Starting the largest-degree loop at 2 adds only empty ranges.
        def contribution(d1):
            k = d1 // 2
            if d1 % 2 == 0:
                return sum(unrestricted_p(j) for j in range(0, 2 * k - 3, 2))
            return sum(unrestricted_p(j) for j in range(1, 2 * k - 2, 2))

        assert contribution(2) == 0
        assert contribution(3) == 0
        for n in range(2, 16):
            from_two = sum(contribution(d1) for d1 in range(2, n))
            assert from_two == count_d2_minus_b(n)

    def test_prefix_path_agrees(self):
        for n in range(2, 30):
            assert d2_minus_b_prefix(n) == count_d2_minus_b(n)


class TestCountDb:
    def test_n5_report(self, series_12):
        rep = count_db(5, series_12, series_12[5])
        assert rep.db == 9
        assert rep.d2_minus_b == 1
        assert rep.d2 == 10
        assert rep.c == 10
        assert rep.s == 6
        assert rep.b == 4

    def test_rejects_n_below_five(self, series_12):
        with pytest.raises(ValueError):
            count_db(4, series_12, series_12[4])

    def test_internal_identities(self, series_12):
        for n in range(5, 13):
            rep = count_db(n, series_12, series_12[n])
            assert rep.c == rep.b + rep.s
            assert rep.d2 == series_12[n] - rep.c
            assert rep.db + rep.d2_minus_b == rep.d2
            assert rep.db >= 0
