"""Brute-force ground truth for every counting path in the package.

E(n) is the candidate pool: non-increasing positive integer sequences of
length n with even sum and every term at most n - 1.  Members are plain
tuples.  Graphicality is decided by two independent classical criteria
(sum-prefix inequalities, and a conjugate-prefix slack test), potential
connectivity by the sum threshold 2(n - 1), potential biconnectivity by
minimum degree 2 plus the sum threshold 2n - 4 + 2 * largest.

A single pass over E(n) fills a CountReport whose fields mirror the
dynamic-programming modules, each counted by its own direct filter so
that every cross-module identity remains a genuine check.  Enumeration
cost grows roughly fourfold per vertex, so a cap (default 14) guards
against accidental huge runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple

from .degree_counts import SumProfile, _even_range
from .errors import OracleCapError

DEFAULT_ORACLE_CAP = 14


def enumerate_even_bounded(n: int) -> Iterator[tuple]:
    """Yield E(n) in lexicographically decreasing order.

    Only the final position consults the running sum parity, so every
    emitted candidate already has an even sum; no candidate is built
    and discarded.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    seq = [0] * n
    last = n - 1

    def rec(pos: int, prev: int, parity: int) -> Iterator[tuple]:
        if pos == last:
            start = prev if (prev & 1) == parity else prev - 1
            for v in range(start, 0, -2):
                seq[pos] = v
                yield tuple(seq)
        else:
            for v in range(prev, 0, -1):
                seq[pos] = v
                yield from rec(pos + 1, v, parity ^ (v & 1))

    yield from rec(0, n - 1, 0)


def _validate(seq) -> int:
    total = 0
    prev = None
    for d in seq:
        if d < 0:
            raise ValueError("degrees are nonnegative")
        if prev is not None and d > prev:
            raise ValueError("sequence must be non-increasing")
        prev = d
        total += d
    if total % 2:
        raise ValueError("degree sum must be even")
    return total


def is_graphical_eg(seq) -> bool:
    """Graphicality by the sum-prefix inequalities, linear total work.

    For each k up to the crossing index m = max{i : d_i >= i}, checks
    sum of the k largest degrees <= k(k-1) + sum over the rest of
    min(d_i, k); inequalities beyond m hold automatically.

    Raises:
        ValueError: sequence not non-increasing, negative, or odd sum.
    """
    total = _validate(seq)
    n = len(seq)
    if n == 0 or seq[0] == 0:
        return True
    cnt = [0] * (n + 2)
    for d in seq:
        cnt[min(d, n)] += 1
    r = [0] * (n + 2)  # r[v] = number of terms >= v
    for v in range(n, -1, -1):
        r[v] = r[v + 1] + cnt[v]
    prefix = [0] + list(accumulate(seq))
    m = 0
    for i, d in enumerate(seq):
        if d >= i + 1:
            m = i + 1
        else:
            break
    for k in range(1, m + 1):
        rk = r[k]
        # first k terms all >= k here, so rk >= k
        rhs = k * (k - 1) + k * (rk - k) + total - prefix[rk]
        if prefix[k] > rhs:
            return False
    return True


def is_graphical_nw(seq) -> bool:
    """Graphicality by the conjugate-prefix slack test.

    With conj_j = #{i : d_i >= j}, requires the running sum of
    (conj_j - d_j) to reach j for every j up to the crossing index.
    Agrees with is_graphical_eg on every input.

    Raises:
        ValueError: as is_graphical_eg.
    """
    _validate(seq)
    n = len(seq)
    if n == 0 or seq[0] == 0:
        return True
    cnt = [0] * (n + 2)
    for d in seq:
        cnt[min(d, n)] += 1
    r = [0] * (n + 2)
    for v in range(n, -1, -1):
        r[v] = r[v + 1] + cnt[v]
    run = 0
    for j in range(1, n + 1):
        if seq[j - 1] < j:
            break
        run += r[j] - seq[j - 1]
        if run < j:
            return False
    return True


class Classification(NamedTuple):
    connected_potential: bool
    biconnected_potential: bool


def classify(seq) -> Classification:
    """Connectivity potential of a graphical sequence, by closed form.

    Some realization is connected iff the sum reaches 2(n - 1); some
    realization is biconnected iff additionally every degree is at
    least 2 and the sum reaches 2n - 4 + 2 * largest.
    """
    n = len(seq)
    total = sum(seq)
    return Classification(
        connected_potential=total >= 2 * (n - 1),
        biconnected_potential=seq[-1] >= 2
        and total >= 2 * n - 4 + 2 * seq[0],
    )


@dataclass
class CountReport:
    """Every count the package computes, from one enumeration pass."""

    n: int
    d: int
    d0: int
    h: int
    l: int
    dc: int
    dd: int
    s: int
    b: int
    c: int
    d2: int
    db: int
    d2_minus_b: int
    profile_g: SumProfile
    by_largest: dict


_D_MEMO: dict = {}


def _count_d(n: int) -> int:
    """Graphical members of E(n), memoized."""
    if n == 1:
        return 0
    if n not in _D_MEMO:
        _D_MEMO[n] = sum(
            1 for seq in enumerate_even_bounded(n) if is_graphical_eg(seq)
        )
    return _D_MEMO[n]


def oracle_counts(n: int, *, cap: int | None = None) -> CountReport:
    """Exact counts for every report field by one pass over E(n).

    The zero-allowing total d0(n) comes from 1 + sum of d(i) for
    i = 2..n (the all-zero sequence plus a zero-padding bijection),
    reusing memoized d values for smaller i.

    Raises:
        OracleCapError: n exceeds the cap (default 14).
        ValueError: n < 2.
    """
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if n > limit:
        raise OracleCapError(
            f"oracle enumeration capped at n={limit}, asked for n={n}"
        )
    if n < 2:
        raise ValueError("need n >= 2")
    d = h = low = dc = dd = s = b = c = d2 = db = d2mb = 0
    profile = {N: 0 for N in _even_range(n, n * (n - 1))}
    by_largest = {k: 0 for k in range(1, n)}
    conn_floor = 2 * (n - 1)
    for seq in enumerate_even_bounded(n):
        if not is_graphical_eg(seq):
            continue
        d += 1
        total = sum(seq)
        d1 = seq[0]
        dn = seq[-1]
        profile[total] += 1
        by_largest[d1] += 1
        if d1 == n - 1:
            h += 1
        else:
            low += 1
        if total >= conn_floor:
            dc += 1
        else:
            dd += 1
        if d1 == n - 2:
            s += 1
        if dn == 1:
            c += 1
            if d1 == n - 1:
                b += 1
        else:
            d2 += 1
            if total >= 2 * n - 4 + 2 * d1:
                db += 1
            else:
                d2mb += 1
    _D_MEMO[n] = d
    d0 = 1 + sum(_count_d(i) for i in range(2, n + 1))
    return CountReport(
        n=n,
        d=d,
        d0=d0,
        h=h,
        l=low,
        dc=dc,
        dd=dd,
        s=s,
        b=b,
        c=c,
        d2=d2,
        db=db,
        d2_minus_b=d2mb,
        profile_g=SumProfile(n=n, family="G", entries=profile),
        by_largest=by_largest,
    )
