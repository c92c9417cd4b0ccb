"""Connectivity and biconnectivity splits of the degree-sequence counts.

A zero-free graphical sequence on n vertices is potentially connected
(some realization is connected) exactly when its sum reaches 2(n - 1),
so the zero-free count d(n) splits by degree sum alone:

  * dc(n): potentially connected, sum >= 2(n - 1);
  * dd(n): forcibly disconnected, sum < 2(n - 1).

The dd sums live below 2(n - 1), which keeps every lookup on the
saturated slack surface; a BoundedPartitionTable therefore answers them
with cubic total work.  dc is served as d(n) - dd(n) from the exact
d(n).  count_dc_direct, the matrix columns summed from the sum 2(n - 1)
up, is the independent route it is checked against; it and count_s
read the columns of n's graphical matrix that degree_counts memoizes.

The biconnectivity side counts, among zero-free graphical sequences:

  * s(n): largest degree exactly n - 2 (all are potentially connected);
  * b(n): largest degree exactly n - 1 and smallest exactly 1, which
    equals d0(n - 2) by a hub-and-leaf stripping bijection;
  * c(n) = b(n) + s(n), which also counts the sequences with smallest
    degree exactly 1;
  * d2(n) = d(n) - c(n): smallest degree at least 2;
  * db(n): potentially biconnected (smallest degree at least 2 and sum
    at least 2n - 4 + twice the largest degree);
  * d2_minus_b(n) = d2(n) - db(n), a closed-form double sum of
    unrestricted partition numbers independent of any table.

count_db composes these for every n >= 3; for n in {3, 4} the closed
form has no terms (d2_minus_b = 0), so db = d2 there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degree_counts import DnSeries, count_d0, graphical_matrix
from .partition_table import (
    BoundedPartitionTable, graphical_params, unrestricted_p)


@dataclass
class ConnectivityReport:
    """dc/dd split for one n."""

    n: int
    dc: int
    dd: int


@dataclass
class BiconnReport:
    """All biconnectivity-side counts for one n."""

    n: int
    s: int
    b: int
    c: int
    d2: int
    d2_minus_b: int
    db: int


def count_dc_direct(n: int) -> int:
    """dc(n): graphical matrix columns from the sum 2(n-1), their entry
    n // 2 - 1, up to n(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return sum(sum(col[n // 2 - 1:]) for col in graphical_matrix(n))


def count_dd(n: int) -> int:
    """dd(n): graphical zero-free sequences with sum below 2(n - 1).

    A sum of at most 2n - 4 over n positive degrees leaves the largest
    at most n - 3.  A read g'(N, k, n) with N <= 2n - 3 and k >= 1 lands
    on the saturated slack surface, sum at most n - 3 - k below slack
    n - k - 1, so a bounded table sized by graphical_params for that
    read serves it, and dd sums its columns; the work is cubic.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n < 4:
        return 0  # no even sum lies in [n, 2n - 3]
    top, kmax = 2 * n - 3, n - 3
    table = BoundedPartitionTable.build(graphical_params(n, top, kmax))
    return sum(map(sum, table.g_prime_columns(n, top, kmax)))


def count_dc_indirect(n: int, d_n: int) -> int:
    """dc(n) = d(n) - dd(n), given the exact d(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return d_n - count_dd(n)


def connectivity_report(n: int, d_n: int) -> ConnectivityReport:
    """dc and dd for one n, with dc = d(n) - dd(n) from the exact d(n)."""
    dd = count_dd(n)
    return ConnectivityReport(n=n, dc=d_n - dd, dd=dd)


def count_s(n: int) -> int:
    """s(n): the graphical matrix column of largest degree n - 2."""
    if n < 3:
        raise ValueError("need n >= 3")
    return sum(graphical_matrix(n)[n - 3])


def count_b(n: int, prior: DnSeries) -> int:
    """b(n) = d0(n - 2): strip the full-degree hub and one leaf."""
    if n < 3:
        raise ValueError("need n >= 3")
    return count_d0(n - 2, prior)


def count_d2_minus_b(n: int) -> int:
    """d2(n) - db(n): min degree >= 2 but not potentially biconnected.

    Closed form: for each largest degree d1 = 4..n-1 the
    non-biconnectable sequences number the sum of the unrestricted
    partition numbers p(j) over the j of d1's parity from d1 % 2 up to
    d1 - 4.  Largest degrees 2 and 3 contribute nothing.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return sum(
        unrestricted_p(j)
        for d1 in range(4, n)
        for j in range(d1 % 2, d1 - 3, 2)
    )


def count_db(n: int, prior: DnSeries, d_n: int) -> BiconnReport:
    """All biconnectivity-side counts for n >= 3.

    Composes s, b, c = b + s, d2 = d(n) - c, the closed-form
    d2_minus_b, and db = d2 - d2_minus_b.
    """
    if n < 3:
        raise ValueError("biconnectivity route needs n >= 3")
    s = count_s(n)
    b = count_b(n, prior)
    c = b + s
    d2 = d_n - c
    rest = count_d2_minus_b(n)
    return BiconnReport(
        n=n, s=s, b=b, c=c, d2=d2, d2_minus_b=rest, db=d2 - rest
    )
