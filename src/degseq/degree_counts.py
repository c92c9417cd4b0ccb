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
L profile is symmetric about n(n-1)/2 and the H profile about
(n+2)(n-1)/2, which lets production runs compute only the lower halves.

Every count comes from one graphical matrix per n (graphical_matrix):
the number of zero-free graphical sequences with each even sum N and
each largest degree k.  Quantities are masked sums of it: d is the
whole matrix, the G profile its row sums, the split by largest degree
its column sums, and the L and H profiles row sums over the columns
k <= n - 2 and k = n - 1.  The series d(1), d(2), ... is built with
d(n) = l(n) + d0(n-1), which needs only the lower half of the L profile
and the exact earlier values, supplied as a DnSeries; the series
persists between runs as an OEIS-style b-file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MissingPriorError
from .partition_table import PartitionTable, TableParams

FAMILIES = ("G", "L", "H")


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


class DnSeries:
    """Exact values d(1)..d(n_max), the zero-free counts, 1-indexed.

    d(1) = 0 (a single vertex admits no zero-free sequence) anchors the
    series; values append contiguously.
    """

    def __init__(self, values: Iterable[int] = (0,)):
        vals = [int(v) for v in values]
        if not vals or vals[0] != 0:
            raise ValueError("series must start with d(1) = 0")
        if len(vals) >= 2 and vals[1] != 1:
            raise ValueError("d(2) must be 1")
        if any(v < 0 for v in vals):
            raise ValueError("counts are nonnegative")
        self._vals = vals

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
        """Record d(n_max + 1)."""
        if self.n_max == 1 and value != 1:
            raise ValueError("d(2) must be 1")
        if value < 0:
            raise ValueError("counts are nonnegative")
        self._vals.append(int(value))

    def items(self) -> Iterator[tuple]:
        for i, v in enumerate(self._vals, start=1):
            yield i, v

    def __eq__(self, other) -> bool:
        return isinstance(other, DnSeries) and self._vals == other._vals


def read_series_file(path) -> DnSeries:
    """Load a DnSeries from a b-file (`n value` per line).

    Blank lines and lines starting with '#' are skipped.  The remaining
    lines must cover n = 1..n_max contiguously (any order).
    """
    pairs = {}
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
        raise ValueError("series file must cover n = 1..n_max without gaps")
    return DnSeries(pairs[n] for n in range(1, len(pairs) + 1))


def write_series_file(path, series: DnSeries) -> None:
    """Write a DnSeries as a b-file: `n value`, LF-terminated, ascending n."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for n, value in series.items():
            fh.write(f"{n} {value}\n")


def graphical_matrix(
    n: int, max_sum: int, degrees: range, *, memory_cap: int | None = None
) -> dict:
    """The graphical counts g(N, k, n) that every quantity here sums.

    Returns a mapping from each even N in [n, max_sum] to the row
    [g(N, k, n) for k in degrees], the number of zero-free graphical
    sequences on n vertices with sum N and largest degree exactly k.
    One table sized for exactly these cells serves them: a cell reads
    sum N - k - n + 1 and part bound k - 1, and sums above
    (k - 1)(n - 1) are zero by the clamp chain without being stored.
    """
    max_part = degrees.stop - 2
    stored = min(max_sum - degrees.start - n + 1, max_part * (n - 1))
    params = TableParams(max(0, stored), max_part, target_parts=n - 1)
    table = PartitionTable.build(params, memory_cap=memory_cap)
    return {
        N: [table.g_prime(N, k, n) for k in degrees]
        for N in _even_range(n, max_sum)
    }


def count_d_basic(n: int, *, memory_cap: int | None = None) -> int:
    """d(n): the sum of the whole graphical matrix, sums n..n(n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    rows = graphical_matrix(
        n, n * (n - 1), range(1, n), memory_cap=memory_cap
    )
    return sum(map(sum, rows.values()))


def count_d_improved(
    n: int, prior: DnSeries, *, memory_cap: int | None = None
) -> int:
    """d(n) = l(n) + h(n), with h(n) = d0(n-1) read from ``prior``.

    Only l(n) needs a table, and its mirrored profile only the lower
    half of the sums.  Needs exact d(2)..d(n-1) in ``prior``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    if prior.n_max < n - 1:
        raise MissingPriorError(
            f"improved route to d({n}) needs d(1)..d({n - 1}), "
            f"series holds up to d({prior.n_max})"
        )
    return count_l(n, memory_cap=memory_cap) + count_h(n, prior)


def count_d0(n: int, prior: DnSeries) -> int:
    """d0(n) = 1 + d(2) + ... + d(n); the lone empty-ish sequence is all zeros."""
    if n < 1:
        raise ValueError("need n >= 1")
    if prior.n_max < n:
        raise MissingPriorError(
            f"d0({n}) needs d(1)..d({n}), series holds up to d({prior.n_max})"
        )
    total = 1
    for i in range(2, n + 1):
        total += prior[i]
    return total


def count_h(n: int, prior: DnSeries) -> int:
    """h(n) = d0(n-1): drop the forced degree-(n-1) vertex, zeros may appear."""
    if n < 2:
        raise ValueError("need n >= 2")
    return count_d0(n - 1, prior)


def count_l(n: int, *, memory_cap: int | None = None) -> int:
    """l(n): zero-free sequences with largest degree at most n - 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    return profile(n, "L", memory_cap=memory_cap).total()


def profile(
    n: int,
    family: str,
    *,
    mirror: bool = True,
    memory_cap: int | None = None,
) -> SumProfile:
    """Per-degree-sum counts for family "G", "L", or "H".

    Each entry is a row sum of the graphical matrix over the family's
    largest degrees.  With ``mirror`` (the default) the L and H families
    read only the lower half of their range and fill the upper half
    from their exact symmetry; ``mirror=False`` reads every entry, which
    needs a larger table and exists so the symmetry can be validated
    rather than assumed.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    if n < 2:
        raise ValueError("need n >= 2")

    if family == "G":
        lo, hi, center, degrees = n, n * (n - 1), None, range(1, n)
    elif family == "L":
        lo, hi = n, n * (n - 2)
        center, degrees = n * (n - 1), range(1, n - 1)
    else:
        lo, hi = 2 * (n - 1), n * (n - 1)
        center, degrees = (n + 2) * (n - 1), range(n - 1, n)

    if hi < lo:
        return SumProfile(n=n, family=family, entries={})
    top = center // 2 if mirror and family != "G" else hi
    rows = graphical_matrix(n, top, degrees, memory_cap=memory_cap)
    entries = {N: sum(row) for N, row in rows.items() if N >= lo}
    for N in _even_range(top + 1, hi):
        entries[N] = entries[center - N]
    return SumProfile(n=n, family=family, entries=entries)


def count_by_largest(n: int, *, memory_cap: int | None = None) -> dict:
    """Split d(n) by largest degree: mapping k -> count, k = 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = graphical_matrix(
        n, n * (n - 1), range(1, n), memory_cap=memory_cap
    )
    return dict(zip(range(1, n), map(sum, zip(*rows.values()))))


def extend_series(
    series: DnSeries, n: int, *, memory_cap: int | None = None
) -> DnSeries:
    """Grow ``series`` in place with the improved route until it holds d(n)."""
    while series.n_max < n:
        i = series.n_max + 1
        series.append(count_d_improved(i, series, memory_cap=memory_cap))
    return series
