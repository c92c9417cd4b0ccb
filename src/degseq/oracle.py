"""Brute-force ground truth for every counting path in the package.

E(n) is the candidate pool: non-increasing positive integer sequences of
length n with even sum and every term at most n - 1.  Members are plain
tuples.  Graphicality is decided by the sum-prefix inequalities
(is_graphical_eg; the tests hold an independent second criterion, a
conjugate-prefix slack test, and check the two agree), potential
connectivity by the sum threshold 2(n - 1), potential biconnectivity
by minimum degree 2 plus the sum threshold 2n - 4 + 2 * largest.

One pass over E(n) keeps a histogram of its graphical members by
(degree sum, largest degree, smallest degree), memoized per n; it is
the oracle's counterpart of the dynamic program's graphical matrix.
Every CountReport field is then a masked sum of that histogram, each
with its own predicate in _FIELDS, so that every cross-module identity
remains a genuine check.  Deciding a candidate costs one C-level sort
for order (it equals the sequence exactly when no term is below its
successor), builtin checks of sign and parity, then one loop up to the
crossing index with running sums and no lists.  Enumeration cost grows
roughly fourfold per vertex, so a fixed cap, ORACLE_CAP = 14, guards
against accidental huge runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .degree_counts import SumProfile, _even_range

ORACLE_CAP = 14


def enumerate_even_bounded(n: int) -> Iterator[tuple]:
    """Iterate over E(n) in lexicographically decreasing order.

    combinations_with_replacement builds the non-increasing n-tuples
    over n - 1..1 in C, in that order; the odd-sum half is dropped.
    Raises ValueError for n < 2 when called, before any iteration.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    tuples = combinations_with_replacement(range(n - 1, 0, -1), n)
    return (seq for seq in tuples if not sum(seq) % 2)


def _validate(seq) -> None:
    """Raise ValueError unless seq is non-increasing, nonnegative and of
    even sum, checked in that order.

    Order is one C-level sort: sorted(seq, reverse=True) equals seq
    exactly when no term is below its successor, without the slice and
    the per-pair Python calls of a pairwise scan.
    """
    if sorted(seq, reverse=True) != list(seq):
        raise ValueError("sequence must be non-increasing")
    if seq and seq[-1] < 0:
        raise ValueError("degrees are nonnegative")
    if sum(seq) % 2:
        raise ValueError("degree sum must be even")


def is_graphical_eg(seq) -> bool:
    """Graphicality by the sum-prefix inequalities, in one pass.

    For each k up to the crossing index m = max{i : d_i >= i}, checks
    sum of the k largest degrees <= k(k-1) + sum over the rest of
    min(d_i, k); inequalities beyond m hold automatically.  With r the
    number of terms >= k (r >= k while d_k >= k) and lows the sum of the
    terms below k, the right side is k(k-1) + k(r-k) + lows, that is
    k(r-1) + lows; r only falls as k grows.

    Raises:
        ValueError: sequence not non-increasing, negative, or odd sum.
    """
    _validate(seq)
    prefix, lows, r = 0, 0, len(seq)
    for k, d in enumerate(seq, 1):
        if d < k:
            break
        prefix += d
        while seq[r - 1] < k:
            r -= 1
            lows += seq[r]
        if prefix > k * (r - 1) + lows:
            return False
    return True


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


_HISTOGRAMS: dict = {}


def _histogram(n: int) -> Counter:
    """Graphical members of E(n) by (sum, largest, smallest), memoized."""
    if n not in _HISTOGRAMS:
        _HISTOGRAMS[n] = Counter(
            (sum(seq), seq[0], seq[-1])
            for seq in enumerate_even_bounded(n)
            if is_graphical_eg(seq)
        )
    return _HISTOGRAMS[n]


# Each field's own membership test over (n, degree sum, largest,
# smallest), as the README's quantities table defines it.  None is
# derived from another, so the identities between them stay checks.
_FIELDS = {
    "d": lambda n, N, hi, lo: True,
    "h": lambda n, N, hi, lo: hi == n - 1,
    "l": lambda n, N, hi, lo: hi <= n - 2,
    "dc": lambda n, N, hi, lo: N >= 2 * (n - 1),
    "dd": lambda n, N, hi, lo: N < 2 * (n - 1),
    "s": lambda n, N, hi, lo: hi == n - 2,
    "b": lambda n, N, hi, lo: hi == n - 1 and lo == 1,
    "c": lambda n, N, hi, lo: lo == 1,
    "d2": lambda n, N, hi, lo: lo >= 2,
    "db": lambda n, N, hi, lo: lo >= 2 and N >= 2 * n - 4 + 2 * hi,
    "d2_minus_b": lambda n, N, hi, lo: lo >= 2 and N < 2 * n - 4 + 2 * hi,
}


def oracle_counts(n: int) -> CountReport:
    """Exact counts for every report field from the histogram of E(n).

    The zero-allowing total d0(n) is 1 + sum of d(i) for i = 2..n (the
    all-zero sequence plus a zero-padding bijection), read from the
    memoized histograms of the smaller i.

    Raises:
        ValueError: n exceeds ORACLE_CAP, or n < 2.
    """
    if n > ORACLE_CAP:
        raise ValueError(
            f"oracle enumeration capped at n={ORACLE_CAP}, asked for n={n}"
        )
    if n < 2:
        raise ValueError("need n >= 2")
    histogram = _histogram(n)
    fields = {
        name: sum(c for key, c in histogram.items() if member(n, *key))
        for name, member in _FIELDS.items()
    }
    profile = {N: 0 for N in _even_range(n, n * (n - 1))}
    by_largest = {k: 0 for k in range(1, n)}
    for (N, hi, _), count in histogram.items():
        profile[N] += count
        by_largest[hi] += count
    return CountReport(
        n=n,
        d0=1 + sum(_histogram(i).total() for i in range(2, n + 1)),
        profile_g=SumProfile(n=n, family="G", entries=profile),
        by_largest=by_largest,
        **fields,
    )
