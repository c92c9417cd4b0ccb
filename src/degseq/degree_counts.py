"""Counts of degree sequences of simple graphs, by vertex count and sum.

For n-vertex simple graphs the quantities here count distinct degree
sequences (written non-increasing):

  * d(n): zero-free sequences, every degree at least 1;
  * d0(n): sequences allowing zero degrees;
  * h(n): zero-free with largest degree exactly n - 1;
  * l(n): zero-free with largest degree at most n - 2.

Degree-sum profiles split a family's count by the sum N: family G is
all zero-free sequences (even N from n to n(n-1)), family L restricts
the largest degree to at most n - 2 (even N from n to n(n-2)), family H
pins the largest degree at n - 1 (even N from 2(n-1) to n(n-1)).  The
L profile is symmetric about n(n-1)/2, so only its lower half needs
computing.  The H profile is symmetric about (n+2)(n-1)/2 too, but its
largest degree n - 1 lives only in the full-height matrix, which holds
every sum, so it is read whole.

Every count comes from one graphical matrix per n (graphical_matrix):
the number of zero-free graphical sequences with each even sum N and
each largest degree k, kept as one tuple per k over the sums N: the
columns a table read gathers.  Quantities are masked sums of them: d
is every cell, the split by largest degree the column sums, and the G,
L and H profiles row sums over the columns k <= n - 1, k <= n - 2 and
k = n - 1.  The series d(1), d(2), ... is built with
d(n) = l(n) + d0(n-1), which needs only the lower half of the L profile
and the exact earlier values, supplied as a DnSeries.  A DnSeries
refuses any value that breaks bounds every true series meets, whether
the value was computed or read from the OEIS-style b-file the series
persists in between runs.

A matrix comes at one of two heights (_extent): full, every sum and
largest degree, or half, what the mirrored L profile reads.  Every
table is filled and read in _harvest.  Table cells do not depend on
the table's size, so one fill sized for the largest n serves every
smaller one: as layer n - 1 passes it becomes n's matrix, and the
process keeps it as its one memoized matrix.  extend_series reads each
l(i) from a half-height harvest; any other count reads the memo when
it is high enough, else harvests n alone at full height.  Each fill
is checked against the budget set by partition_table.memory_budget.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MissingPriorError
from .partition_table import PartitionTable, TableParams, graphical_params

FAMILIES = ("G", "L", "H")
_MATRIX: dict = {}  # n -> (full height?, columns), one n at a time


def _even_range(lo: int, hi: int) -> range:
    """Even integers from lo to hi inclusive."""
    return range(lo + (lo & 1), hi + 1, 2)


@dataclass
class SumProfile:
    """Per-degree-sum counts for one family.

    Attributes:
        n: number of vertices.
        family: "G", "L", or "H".
        entries: mapping from even degree sum N to the count of
            sequences in the family with that sum; keys cover the
            family's whole index range, zeros included.
    """

    n: int
    family: str
    entries: dict

    def total(self) -> int:
        return sum(self.entries.values())


# d(1)..d(5), small enough to enumerate by hand.
_KNOWN_D = (0, 1, 2, 7, 20)


def _implausible(n: int, value: int, previous: int | None) -> str | None:
    """Why no true series holds d(n) = ``value`` after d(n - 1) =
    ``previous``, or None.

    Every true series has the known d(1)..d(5), increases strictly, and
    for n >= 3 stays below C(2n - 2, n), the number of non-increasing
    sequences of n degrees in 1..n - 1 (about half of which have an odd
    sum).
    """
    if n <= len(_KNOWN_D):
        if value != _KNOWN_D[n - 1]:
            return f"d({n}) is {_KNOWN_D[n - 1]}"
    elif value <= previous:
        return f"not above d({n - 1}) = {previous}"
    elif value >= math.comb(2 * n - 2, n):
        return f"not below C({2 * n - 2}, {n})"
    return None


class DnSeries:
    """Exact values d(1)..d(n_max), the zero-free counts, 1-indexed.

    d(1) = 0 (a single vertex admits no zero-free sequence) anchors the
    series; values append contiguously, and a value no true series holds
    (see _implausible) is refused with a ValueError naming the first
    bad n.
    """

    def __init__(self, values: Iterable[int] = (0,)):
        self._vals = []
        for value in values:
            self.append(value)
        if not self._vals:
            raise ValueError("series must start with d(1) = 0")

    @property
    def n_max(self) -> int:
        return len(self._vals)

    def __contains__(self, n: int) -> bool:
        return 1 <= n <= len(self._vals)

    def __getitem__(self, n: int) -> int:
        if n not in self:
            raise MissingPriorError(
                f"series holds d(1)..d({self.n_max}) but d({n}) was needed"
            )
        return self._vals[n - 1]

    def append(self, value: int) -> None:
        """Record d(n_max + 1), an integer (a NumPy integer will do)."""
        n = self.n_max + 1
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"d({n}) = {value!r} is not an integer") from None
        reason = _implausible(n, value, self._vals[-1] if self._vals else None)
        if reason is not None:
            raise ValueError(f"d({n}) = {value} is wrong ({reason})")
        self._vals.append(value)

    def items(self) -> Iterator[tuple]:
        for i, v in enumerate(self._vals, start=1):
            yield i, v

    def __eq__(self, other) -> bool:
        return isinstance(other, DnSeries) and self._vals == other._vals


def read_series_file(path) -> DnSeries:
    """Load a DnSeries from a b-file (`n value` per line).

    Blank lines and lines starting with '#' are skipped.  The remaining
    lines must cover n = 1..n_max contiguously (any order).

    Raises:
        ValueError: a malformed file, or a value no true series holds
            (see DnSeries); the message names the file, and the first
            bad n for a bad value.
    """
    pairs = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"malformed series line: {raw!r}")
                n, value = int(fields[0]), int(fields[1])
                if n in pairs:
                    raise ValueError(f"duplicate series entry for n={n}")
                pairs[n] = value
        if not pairs or sorted(pairs) != list(range(1, len(pairs) + 1)):
            raise ValueError("must cover n = 1..n_max without gaps")
        return DnSeries(pairs[n] for n in range(1, len(pairs) + 1))
    except ValueError as exc:
        raise ValueError(f"series file {path}: {exc}") from None


def write_series_file(path, series: DnSeries) -> None:
    """Write a DnSeries as a b-file: `n value`, LF-terminated, ascending n.

    The lines go to a temporary file in the same directory, which is
    flushed and synced to disk before it replaces ``path``, so a write
    that fails or is interrupted leaves the previous file as it was.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=".degseq-", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            for n, value in series.items():
                fh.write(f"{n} {value}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _extent(n: int, full: bool) -> tuple:
    """The largest sum and largest degree of n's graphical matrix.

    Full height holds every sum up to n(n-1) and every largest degree
    1..n-1.  Half height holds what the mirrored L profile reads, from a
    table about 4x smaller: sums up to n(n-1)/2 and degrees 1..n-2.
    """
    return n * (n - 1) // (2 - full), n - 2 + full


def _matrix_params(n: int, full: bool) -> TableParams:
    """The table that serves n's graphical matrix at a height."""
    return graphical_params(n, *_extent(n, full))


def _harvest(ns: range, full: bool, visit) -> None:
    """Fill one table and memoize each n's graphical matrix as it passes.

    The table is sized for ns[-1] at full or half height (_extent).  As
    the fill completes layer n - 1 for each n in ``ns``, it stores n's
    matrix at that height as the memo's one entry and calls visit(n),
    which must not start another fill: the memo holds one n.  The
    memory budget is checked before any layer is filled, so a refusal
    leaves the memo as it was.
    """
    params = _matrix_params(ns[-1], full)

    def harvest(l: int, layer: PartitionTable) -> None:
        n = l + 1
        if n in ns:
            _MATRIX.clear()
            _MATRIX[n] = (full, layer.g_prime_columns(n, *_extent(n, full)))
            visit(n)

    PartitionTable.build(params, layer_visitor=harvest)


def graphical_matrix(n: int, full: bool = True) -> tuple:
    """The graphical counts g(N, k, n) that every quantity here sums.

    Returns one tuple per k = 1..kmax, column k holding g(N, k, n) for
    the even N in [n, top] ascending: the zero-free graphical sequences
    on n vertices with sum N and largest degree exactly k, where (top,
    kmax) is n's extent at full or half height (_extent).  They are the
    memoized columns of n, cut to that extent, when the memo is at
    least that high, else read by a full-height harvest of n, whose
    build alone checks the memory budget.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    entry = _MATRIX.get(n)
    if entry is None or (full and not entry[0]):
        _harvest(range(n, n + 1), True, lambda i: None)
    top, kmax = _extent(n, full)
    rows = len(_even_range(n, top))
    return tuple(col[:rows] for col in _MATRIX[n][1][:kmax])


def count_d_basic(n: int) -> int:
    """d(n): the sum of every cell of the graphical matrix."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    return sum(map(sum, graphical_matrix(n)))


def count_d_improved(n: int, prior: DnSeries) -> int:
    """d(n) = l(n) + h(n), with h(n) = d0(n-1) read from ``prior``.

    Only l(n) needs a table, and its mirrored profile only the lower
    half of the sums, which is all the half-height matrix a d series
    fill memoizes for n holds.  Needs exact d(2)..d(n-1) in ``prior``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    # h first: a short prior raises before l(n) fills any table.
    return count_h(n, prior) + count_l(n)


def count_d0(n: int, prior: DnSeries) -> int:
    """d0(n) = 1 + d(2) + ... + d(n); the lone empty-ish sequence is all zeros."""
    if n < 1:
        raise ValueError("need n >= 1")
    if prior.n_max < n:
        raise MissingPriorError(
            f"d0({n}) needs d(1)..d({n}), series holds up to d({prior.n_max})"
        )
    return 1 + sum(prior[i] for i in range(2, n + 1))


def count_h(n: int, prior: DnSeries) -> int:
    """h(n) = d0(n-1): drop the forced degree-(n-1) vertex, zeros may appear."""
    if n < 2:
        raise ValueError("need n >= 2")
    return count_d0(n - 1, prior)


def count_l(n: int) -> int:
    """l(n): zero-free sequences with largest degree at most n - 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    return profile(n, "L").total()


def profile(n: int, family: str, *, mirror: bool = True) -> SumProfile:
    """Per-degree-sum counts for family "G", "L", or "H".

    Each entry is a row sum of the graphical matrix over the columns of
    the family's largest degrees.  With ``mirror`` (the default) the L
    family reads only the lower half of its range and fills the upper
    half from its exact symmetry about n(n-1)/2; ``mirror=False`` reads
    every entry, so the symmetry can be validated rather than assumed.
    G and H are always read whole.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if n < 2:
        raise ValueError("need n >= 2")
    # The family's largest degrees, as a slice of the columns, its even
    # sums N in [lo, hi], and the center its sums mirror about (L only).
    degrees, lo, hi, center = {
        "G": (slice(0, n - 1), n, n * (n - 1), None),
        "L": (slice(0, n - 2), n, n * (n - 2), n * (n - 1)),
        "H": (slice(n - 2, n - 1), 2 * (n - 1), n * (n - 1), None),
    }[family]
    half = mirror and center is not None
    cols = graphical_matrix(n, not half)[degrees]
    sums = _even_range(n, _extent(n, not half)[0])
    entries = {N: total for N, total in zip(sums, map(sum, zip(*cols)))
               if lo <= N <= hi}
    if half:
        for N in _even_range(center // 2 + 1, hi):
            entries[N] = entries[center - N]
    return SumProfile(n=n, family=family, entries=entries)


def count_by_largest(n: int) -> dict:
    """Split d(n) by largest degree: mapping k -> count, k = 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return dict(zip(range(1, n), map(sum, graphical_matrix(n))))


def extend_series(series: DnSeries, n: int) -> DnSeries:
    """Grow ``series`` in place with the improved route until it holds d(n).

    One half-height harvest to n fills one table: as it memoizes each
    missing i's matrix, count_d_improved reads l(i) from it and d(i) is
    appended at once.  A pass that stops early (an interrupt, an error)
    keeps every d(i) appended before it stopped.  The memory budget is
    checked for that one table before any value is computed, so a
    refusal leaves ``series`` as it was.  The memo is left holding the
    half-height matrix of n.
    """
    if series.n_max >= n:
        return series
    _harvest(range(series.n_max + 1, n + 1), False,
             lambda i: series.append(count_d_improved(i, series)))
    return series
