"""Connectivity and biconnectivity splits of the degree-sequence counts.

A zero-free graphical sequence on n vertices is potentially connected
(some realization is connected) exactly when its sum reaches 2(n - 1),
so the zero-free count d(n) splits by degree sum alone:

  * dc(n): potentially connected, sum >= 2(n - 1);
  * dd(n): forcibly disconnected, sum < 2(n - 1).

The dd sums live below 2(n - 1), which keeps every lookup on the
saturated slack surface; a BoundedPartitionTable therefore answers them
with cubic total work.  dc is the graphical matrix summed over the high
range of sums, or d(n) - dd(n) when d(n) is already known.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .degree_counts import DnSeries, _even_range, count_d0, graphical_matrix
from .partition_table import BoundedPartitionTable, TableParams, unrestricted_p


@dataclass
class ConnectivityReport:
    """dc/dd split for one n; ``method`` records how dc was obtained."""

    n: int
    dc: int
    dd: int
    method: str


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


def count_dc_direct(n: int, *, memory_cap: int | None = None) -> int:
    """dc(n): graphical matrix rows with sums 2(n-1)..n(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = graphical_matrix(
        n, n * (n - 1), range(1, n), memory_cap=memory_cap
    )
    return sum(sum(row) for N, row in rows.items() if N >= 2 * (n - 1))


def count_dd(n: int) -> int:
    """dd(n): graphical zero-free sequences with sum below 2(n - 1).

    Every lookup saturates the slack, so a bounded table sized
    max_sum = 2(n - 2) suffices and the whole computation is cubic.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    sums = _even_range(n, 2 * n - 3)
    if not sums:
        return 0
    table = BoundedPartitionTable.build(
        TableParams(
            max_sum=2 * (n - 2), max_part=max(0, n - 4), target_parts=n - 1
        )
    )
    total = 0
    for N in sums:
        kmax = min(n - 1, N - n + 1)
        for k in range(1, kmax + 1):
            total += table.g_prime(N, k, n)
    return total


def count_dc_indirect(n: int, d_n: int) -> int:
    """dc(n) = d(n) - dd(n), given the exact d(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return d_n - count_dd(n)


def connectivity_report(
    n: int,
    d_n: int | None = None,
    *,
    method: str = "indirect",
    memory_cap: int | None = None,
) -> ConnectivityReport:
    """Bundle dc and dd for one n using the requested dc method."""
    if method == "indirect":
        if d_n is None:
            raise ValueError("indirect method needs d_n")
        dd = count_dd(n)
        return ConnectivityReport(n=n, dc=d_n - dd, dd=dd, method=method)
    if method == "direct":
        dc = count_dc_direct(n, memory_cap=memory_cap)
        return ConnectivityReport(n=n, dc=dc, dd=count_dd(n), method=method)
    raise ValueError("method must be 'direct' or 'indirect'")


def count_s(n: int, *, memory_cap: int | None = None) -> int:
    """s(n): the graphical matrix column of largest degree n - 2."""
    if n < 3:
        raise ValueError("need n >= 3")
    rows = graphical_matrix(
        n, n * (n - 2), range(n - 2, n - 1), memory_cap=memory_cap
    )
    return sum(row[0] for row in rows.values())


def count_b(n: int, prior: DnSeries) -> int:
    """b(n) = d0(n - 2): strip the full-degree hub and one leaf."""
    if n < 3:
        raise ValueError("need n >= 3")
    return count_d0(n - 2, prior)


def count_d2_minus_b(n: int) -> int:
    """d2(n) - db(n): min degree >= 2 but not potentially biconnected.

    Closed form: for each largest degree d1 = 4..n-1 with k = d1 // 2,
    the non-biconnectable sequences are counted by partition numbers,
    p(0) + p(2) + ... + p(2k - 4) for even d1 and
    p(1) + p(3) + ... + p(2k - 3) for odd d1.  Largest degrees 2 and 3
    contribute nothing (their ranges are empty).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    total = 0
    for d1 in range(4, n):
        k = d1 // 2
        if d1 % 2 == 0:
            top = 2 * k - 4
            start = 0
        else:
            top = 2 * k - 3
            start = 1
        for j in range(start, top + 1, 2):
            total += unrestricted_p(j)
    return total


def count_db(
    n: int,
    prior: DnSeries,
    d_n: int,
    *,
    memory_cap: int | None = None,
) -> BiconnReport:
    """All biconnectivity-side counts for n >= 5.

    Composes s, b, c = b + s, d2 = d(n) - c, the closed-form
    d2_minus_b, and db = d2 - d2_minus_b.
    """
    if n < 5:
        raise ValueError("biconnectivity route needs n >= 5")
    s = count_s(n, memory_cap=memory_cap)
    b = count_b(n, prior)
    c = b + s
    d2 = d_n - c
    rest = count_d2_minus_b(n)
    return BiconnReport(
        n=n, s=s, b=b, c=c, d2=d2, d2_minus_b=rest, db=d2 - rest
    )
