"""Restricted-partition counting tables.

The central object counts partitions of N into at most l parts, each at
most k, that additionally pass a prefix-slack test with allowance s: with
d the side of the partition's Durfee square and r_i the corank column
differences (conjugate minus part), the partition is counted when

    s + r_1 + ... + r_j >= j   for every j = 1..d.

Every count a table answers is an exact Python int.  Boundary behaviour
is fixed by a clamp chain evaluated in this order: any negative argument
gives 0; N = 0 gives 1; k = 0 or l = 0 (with N > 0) gives 0; k > N acts
as k = N, l > N as l = N, s > N as s = N; N > k*l then gives 0 (no
partition fits), wherever N lies.  The
recurrence reproduces the clamped values inside the stored block, so a
table holding layer l = L answers every query whose clamped l is
min(L, N).  Layer l is filled from layer l - 1 by

    cell(N, k, l, s) = cell(N, k-1, l, s) + cell(N, k, l-1, s)
                       - cell(N, k-1, l-1, s) + D
    D = cell(N-k-l+1, k-1, l-1, s+l-k-1), zero when either the sum or the
        slack argument goes negative, with the slack clamped at the new sum.

Two table flavours hold one layer each and answer through the same
clamp chain; they differ only in how they fill it and read stored cells.
Both store, in slice k (part bound k), the rows N = 0..R_k with
R_k = max(0, min(M - k, k*L)), M = max_sum and L = target_parts: rows
N > k*L hold no partition, and M bounds the row plus the slice, N + k,
of every stored cell, so a table sized by graphical_params stores no
row its reads do not reach.  That region is closed under the fill, as
no input of cell (N, k) has a larger N + k: the running difference
reads row N of slice k - 1, the D term row N - k - l + 1 of slice
k - 1, and the box identity row N - l of slice k - 1.

  * :class:`PartitionTable` stores the full (N, k, s) grid in
    fixed-width residues: one uint64 array per part bound k, of shape
    (planes, R_k + 1, min(S_k, M) + 1) with S_k = (k+1)^2 // 4; in
    layer l < L the rows above k*l stay zero.  Columns stop at S_k,
    past which a cell is constant in s (the prefix-slack deficit
    of a partition with parts <= k never exceeds j*(k+1-j)), so a read
    takes column min(s, S_k).  Columns s > N need no special case: every
    partition of N passes the test for s >= N, so the recurrence fills
    them with the s = N value.  A layer is written over layer l - 1 in
    place, with no loop over N: new minus old slice k telescopes to new
    minus old slice k - 1 plus D, so one running difference carried
    from slice to slice and one saved old slice give each slice in two
    full passes and the D term.  No cell exceeds the partitions fitting
    a k x l box, C(K+L, L) < 2^(K+L), so for K + L <= 64 one plane
    wrapping mod 2^64 holds every cell exactly; larger tables hold
    ceil((K+L)/61) planes modulo fixed primes below 2^62, whose product
    exceeds 2^(K+L), and a read combines them by the Chinese remainder
    theorem.  This is the workhorse for degree-sequence counts.  This
    module alone knows that layout: a fill's visitor and every reader
    get a table.
  * :class:`BoundedPartitionTable` stores only the s-saturated surface
    s >= N, one array over rows 0..R_k per k, which is all the
    disconnected-count path ever reads.  Every partition passes the test
    there, so a cell is p(N; k, l), the partitions of N into at most l
    parts each at most k.  A layer is filled over the last in place by
    the box identity p(N; k, l) = p(N; k, l-1) + p(N-l; k-1, l) (a
    partition with exactly l parts loses 1 from each): one shifted add
    per slice, and a fill cubic in the vertex count.

In both flavours every stored cell holds the value the clamp chain
gives its own coordinates: in layer L, row N of slice k read at slack s
(column min(s, S_k); the bounded table's one column is s >= N) is the
cell (N, min(k, N), min(L, N), min(s, N)).  A bounded cell is a box
count, which clamping k and l to N leaves as it is.  In the full table
it holds by induction over the layers: row N's D term reads the sum
N - k - l + 1, negative once k > N or l > N, so new minus old slice k
telescopes to new minus old slice N for k > N, and to 0 for l > N.  Row
N of every slice k > N thus changes with row N of slice N, and no row N
changes after layer N.  Columns past N, and past S_k, are saturated.
So g_prime_columns reads a graphical matrix as one tuple per degree
column from the table graphical_params sizes for it: every stored row
of the column is one strided read of a slice, rows past the last that
holds a partition are 0, and only the cells of negative sum go through
g_prime.

Both builds refuse, before they allocate, a table whose bytes pass the
budget: the innermost :func:`memory_budget`'s cap, else
DEFAULT_MEMORY_CAP.  A full table's bytes are those of the arrays its
build allocates, summed slice by slice from _slice_shape, and the sum
stops at the first running total above the cap, so a hopeless table is
refused after its first few slices.

:func:`unrestricted_p` gives the ordinary partition numbers p(j) by the
pentagonal-number recurrence.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import MemoryBudgetError


def _default_memory_cap() -> int:
    """Physical memory less a margin of one eighth of it, left for the
    interpreter, the operating system and other processes; 8 GiB where
    the platform does not report its physical memory."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 8 * 2**30
    return physical - physical // 8


DEFAULT_MEMORY_CAP = _default_memory_cap()
_BUDGET: ContextVar = ContextVar("memory_budget", default=DEFAULT_MEMORY_CAP)


@contextmanager
def memory_budget(cap: int | None):
    """Set the byte budget of every table build in the block (None for
    DEFAULT_MEMORY_CAP); the one before is back on exit, as numpy.errstate."""
    token = _BUDGET.set(DEFAULT_MEMORY_CAP if cap is None else cap)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _check_budget(sizes: Iterable[int]) -> None:
    """Refuse arrays of ``sizes`` bytes each at the first running total
    above the budget in force."""
    cap, total = _BUDGET.get(), 0
    for size in sizes:
        total += size
        if total > cap:
            raise MemoryBudgetError(total, cap)


# Moduli of the residue planes of tables too large for one 2^64 plane.
_PRIMES = tuple(2**62 - c for c in (57, 87, 117, 143, 153, 167))


@dataclass(frozen=True)
class TableParams:
    """Dimensions of a partition table.

    Attributes:
        max_sum: largest row plus slice, N + k, stored: slice k holds
            the sums N <= max_sum - k (and N <= k * target_parts).
        max_part: largest part bound k stored.
        target_parts: the l value the final fill layer represents.
    """

    max_sum: int
    max_part: int
    target_parts: int

    def __post_init__(self) -> None:
        if self.max_sum < 0 or self.max_part < 0 or self.target_parts < 0:
            raise ValueError("table dimensions must be nonnegative")


def _planes(params: TableParams) -> int:
    """Residue planes that hold every cell exactly: one mod 2^64 while
    no cell can reach 2^64, else enough primes of 61+ bits for 2^(K+L)."""
    bits = params.max_part + params.target_parts
    return 1 if bits <= 64 else -(-bits // 61)


def _slice_rows(params: TableParams, k: int) -> int:
    """The last row slice k stores: sums up to k * target_parts, the
    largest with a partition, and up to max_sum - k (module docstring)."""
    return max(0, min(params.max_sum - k, k * params.target_parts))


def _slice_shape(params: TableParams, k: int) -> tuple:
    """Rows and columns slice k stores: rows 0.._slice_rows, and slacks
    up to (k+1)^2 // 4, past which a cell is saturated in s, but not
    above max_sum."""
    return (_slice_rows(params, k) + 1,
            min((k + 1) * (k + 1) // 4, params.max_sum) + 1)


def graphical_params(n: int, top: int, kmax: int) -> TableParams:
    """The table g_prime_columns(n, top, kmax) reads from.

    g_prime(N, k, n) reads row N - k - n + 1 of slice k - 1 in layer
    n - 1, a cell of row + slice N - n.  Over the even N <= top that is
    at most top - top % 2 - n, the table's max_sum; slice k - 1 then
    stores the rows up to that bound less k - 1, and up to
    (k - 1)(n - 1), above which rows hold no partition and are read as
    0 without being stored.
    """
    return TableParams(max(0, top - top % 2 - n), max(0, kmax - 1), n - 1)


def _array_bytes(params: TableParams) -> Iterator[int]:
    """The bytes of each array a full build allocates: slices
    k = 0..max_part (_slice_shape), then the fill's save and difference
    arrays, each spanning the most rows and the most columns of any
    slice, then on prime planes one scratch array of that size."""
    planes, rows, cols = _planes(params), 0, 0
    for k in range(params.max_part + 1):
        r, c = _slice_shape(params, k)
        rows, cols = max(rows, r), max(cols, c)
        yield 8 * planes * r * c
    yield from [8 * planes * rows * cols] * (2 + (planes > 1))


def estimate_table_bytes(params: TableParams) -> int:
    """Peak memory of a full table build, in bytes: its arrays' sum."""
    return sum(_array_bytes(params))


def _bounded_array_bytes(params: TableParams) -> Iterator[int]:
    """The bytes of each slice k = 0..max_part a bounded build
    allocates, its only storage: a slot per row 0.._slice_rows, each a
    pointer and a CPython int (24 bytes and 4 per 30-bit digit, in
    16-byte blocks) of at most p(M) < e^(pi sqrt(2M/3)), M = max_sum,
    plus 8 bytes for the allocator."""
    bits = math.pi * math.sqrt(2 * params.max_sum / 3) / math.log(2)
    slot = 16 + 16 * -(-(24 + 4 * (int(bits) // 30 + 1)) // 16)
    for k in range(params.max_part + 1):
        yield slot * (_slice_rows(params, k) + 1)


def estimate_bounded_bytes(params: TableParams) -> int:
    """Peak memory of a bounded table build, in bytes: its slices' sum."""
    return sum(_bounded_array_bytes(params))


def _update(dst, src, mod):
    """dst += src; with ``mod`` = (q, scratch), modulo the primes q,
    reduced through the scratch array.

    Column j of dst takes column j of src, or src's last column where
    src is narrower: past its last column a slice is saturated in s.
    """
    n = min(dst.shape[2], src.shape[2])
    for d, s in ((dst[:, :, :n], src[:, :, :n]),
                 (dst[:, :, n:], src[:, :, n - 1 : n])):
        if d.size == 0:  # src is as wide as dst: no columns to broadcast
            continue
        np.add(d, s, out=d)
        if mod is not None:  # back into [0, q): residues stay below 2^62
            q, scratch = mod
            t = scratch[: d.size].reshape(d.shape)
            np.minimum(d, np.subtract(d, q, out=t), out=d)


def _fill_layer(slices, save, diff, l, mod):
    """Fill layer ``l`` into ``slices``, which hold layer ``l - 1``.

    The recurrence telescopes in k: new slice k minus old slice k is
    Delta_k = Delta_{k-1} + D, the D term read from the old slice k-1.
    Slices k = 1..max_part are updated in place in order, each by
    ``slice += Delta_k``, with Delta_k carried in ``diff``, an array
    spanning the most rows and the most columns of any slice and read
    through slice k's shape; R_k is slice k's last stored row.  Delta_0
    is zero: slice 0 (1 at N = 0) is the same in every layer and never
    written.  Widening Delta_{k-1} to slice k clears its rows above
    min(R_{k-1}, (k-1)*l), the last it was computed on, which may still
    hold earlier differences.  Delta_{k-1} is zero there, as every such
    row lies above (k-1)*l: where R_{k-1} binds instead, R_k <= R_{k-1}
    leaves none to clear.  Widening also copies Delta's last column,
    past which both slices k-1 are saturated in s, into the further
    columns.  Once the D term has read the old slice k-1
    from ``save``, slice k's old live rows 0..min(R_k, k*(l - 1)) are
    copied there, and only then is slice k written, on rows
    0..min(R_k, k*l); the rows above stay zero without being cleared,
    because layer l - 1 wrote none of them.
    """
    old_km1, top = slices[0], 1
    diff[:, 0, 0] = 0
    for k in range(1, len(slices)):
        out = slices[k]
        planes, stored, cols = out.shape
        width, live = old_km1.shape[2], min(stored - 1, k * l)
        d = diff[:, : live + 1, :cols]
        d[:, top:] = 0
        # A copy first: numpy would buffer the overlapping broadcast whole.
        d[:, :top, width:] = d[:, :top, width - 1 : width].copy()
        # D: row N, column s reads row N - shift, column s + delta.
        shift, delta = k + l - 1, l - k - 1
        if live >= shift:
            lo = max(0, -delta)
            first = min(lo + delta, width - 1)
            src = old_km1[:, : live - shift + 1, first:]
            _update(d[:, shift:, lo:], src, mod)
        rows, top = min(stored - 1, k * (l - 1)) + 1, live + 1
        old_km1 = save[: planes * rows * cols].reshape(planes, rows, cols)
        np.copyto(old_km1, out[:, :rows])
        _update(out[:, : live + 1], d, mod)


class PartitionTable:
    """One filled layer of the four-parameter partition counts.

    Build once, then query; instances are immutable after ``build``
    returns and can be shared freely between readers.  The table holds
    the layer l = target_parts only, so a query is answered when its
    clamped l equals min(target_parts, N) and raises ValueError
    otherwise.

    Instances come from ``build``: the table it returns, or the view of
    each layer it hands a ``layer_visitor``.
    """

    def __init__(self, params: TableParams, slices: list):
        self.params = params
        self._slices = slices

    @classmethod
    def build(
        cls,
        params: TableParams,
        *,
        layer_visitor: Callable[[int, PartitionTable], None] | None = None,
    ) -> "PartitionTable":
        """Fill layers l = 0..target_parts and return the last one.

        Args:
            params: table dimensions.
            layer_visitor: optional callback invoked as visitor(l, layer)
                after each layer l >= 1 is filled, before layer l + 1.
                ``layer`` is a read-only view of layer l, a table with
                target_parts = l, valid only until the visitor returns:
                the fill then overwrites its slices in place.

        Raises:
            MemoryBudgetError: the table's arrays would pass the budget.
            ValueError: max_part + target_parts needs more residue
                planes than there are fixed moduli (above 366).
        """
        _check_budget(_array_bytes(params))
        planes = _planes(params)
        if planes > len(_PRIMES):
            raise ValueError(f"{planes} residue planes exceed the moduli")
        shapes = [_slice_shape(params, k) for k in range(params.max_part + 1)]
        top = (planes, *map(max, zip(*shapes)))
        mod = None
        if planes > 1:
            q = np.array(_PRIMES[:planes], np.uint64).reshape(planes, 1, 1)
            mod = q, np.empty(math.prod(top), np.uint64)
        save = np.empty(math.prod(top), np.uint64)
        diff = np.empty(top, np.uint64)
        slices = [np.zeros((planes, *shape), np.uint64) for shape in shapes]
        for cells in slices:
            cells[:, 0] = 1  # layer 0: the empty partition of N = 0
        for l in range(1, params.target_parts + 1):
            _fill_layer(slices, save, diff, l, mod)
            if layer_visitor is not None:
                layer_visitor(l, cls(replace(params, target_parts=l), slices))
        return cls(params, slices)

    def query_raw(self, N: int, k: int, l: int, s: int) -> int:
        """Return the cell value with the full clamp chain applied.

        A clamped cell with N > k*l is 0 even outside the stored block.

        Raises:
            ValueError: the clamped (N, k) lies outside the stored block,
                N + k > max_sum or k > max_part, or the clamped l is not
                the held layer's.
        """
        if N < 0 or k < 0 or l < 0 or s < 0:
            return 0
        if N == 0:
            return 1
        if k == 0 or l == 0:
            return 0
        if k > N:
            k = N
        if l > N:
            l = N
        if s > N:
            s = N
        if N > k * l:
            return 0
        p = self.params
        if N + k > p.max_sum or k > p.max_part:
            raise ValueError(
                f"cell (N={N}, k={k}) is outside the stored block "
                f"(max_sum={p.max_sum}, max_part={p.max_part})"
            )
        if min(p.target_parts, N) != l:
            raise ValueError(
                f"layer l={l} is not servable from the held layer "
                f"{p.target_parts}"
            )
        return self._column(k, range(N, N + 1), s)[0]

    def g_prime(self, N: int, k: int, l: int) -> int:
        """Count graphical partitions of N with exactly l parts, largest k.

        A partition is counted when a simple graph on l vertices realizes
        it as its degree sequence (all parts positive, largest part
        exactly k).

        Raises:
            ValueError: N is negative or odd (odd sums are never
                graphical, so a caller passing one is using the wrong
                quantity).
        """
        if N < 0:
            raise ValueError("graphical count needs N >= 0")
        if N % 2:
            raise ValueError("graphical count needs an even N")
        return self.query_raw(N - k - l + 1, k - 1, l - 1, l - k - 1)

    def g_prime_columns(self, n: int, max_sum: int, kmax: int) -> tuple:
        """g_prime(N, k, n) over the even N in [n, max_sum], k = 1..kmax,
        from a table of layer n - 1 that covers graphical_params(n,
        max_sum, kmax), with kmax < n.

        Returns one tuple per k, over N ascending.  Column k is the cells
        (N - k - n + 1, k - 1, n - k - 1), each stored as the clamp chain
        gives it: one strided read of slice k - 1 (_column) up to row
        (k - 1)(n - 1), zeros above, and the cells of negative sum,
        outside the stored block, through g_prime.

        Raises ValueError, before any read: the table holds another
        layer, kmax >= n, or the table is too small.
        """
        p, need = self.params, graphical_params(n, max_sum, kmax)
        if p.target_parts != n - 1:
            raise ValueError(
                f"layer {n - 1} is not the held layer {p.target_parts}")
        if kmax >= n or need.max_sum > p.max_sum or need.max_part > p.max_part:
            raise ValueError(f"reading n={n} to degree {kmax} needs kmax < n "
                             f"and a table covering {need}, not {p}")
        sums, cols = range(n + n % 2, max_sum + 1, 2), []
        for k in range(1, kmax + 1):
            rows = range(sums.start - k - n + 1, sums.stop - k - n + 1, 2)
            a, b = (len(range(rows.start, R, 2))
                    for R in (0, (k - 1) * (n - 1) + 1))
            cols.append(tuple([self.g_prime(N, k, n) for N in sums[:a]]
                              + self._column(k - 1, rows[a:b], n - k - 1)
                              + [0] * (len(rows) - b)))
        return tuple(cols)

    def _column(self, k: int, rows: range, s: int) -> list:
        """The stored values of the held layer at slice k, slack s (at
        most each row's sum), over ``rows``: one strided numpy read.
        ``rows`` must lie in the slice's stored block, as query_raw and
        g_prime_columns check: numpy stops at its end, giving a short list."""
        cells = self._slices[k]
        col = cells[:, rows.start : rows.stop : rows.step,
                    min(s, cells.shape[2] - 1)].tolist()
        if len(cells) == 1:
            return col[0]
        P, basis = _crt_basis(_PRIMES[: len(cells)])
        return [sum(map(int.__mul__, c, basis)) % P for c in zip(*col)]


class BoundedPartitionTable(PartitionTable):
    """The s-saturated surface of the partition counts, s >= N everywhere.

    There every partition passes the prefix test, so the table holds
    one layer of box counts p(N; k, l), Python ints on the rows of each
    slice that _slice_rows gives, filled by the box identity (module
    docstring).  Queries pass through the same clamp chain and residency
    rule as the full table; a clamped slack below the sum is refused, so
    g_prime(N, k, l) is answered for N <= 2(l - 1), where its read lands
    on the surface, and above only where it clamps to 0.
    """

    @classmethod
    def build(cls, params: TableParams) -> "BoundedPartitionTable":
        _check_budget(_bounded_array_bytes(params))
        slices = [np.zeros(_slice_rows(params, k) + 1, dtype=object)
                  for k in range(params.max_part + 1)]
        for cells in slices:
            cells[0] = 1  # layer 0: the empty partition of N = 0
        M = params.max_sum
        for l in range(1, params.target_parts + 1):
            # Slice k stores rows from l up only while k <= M - l, as
            # k * L >= l.
            for k in range(1, min(len(slices), M - l + 1)):
                # Slice k - 1 already holds layer l, slice k layer l - 1;
                # the rows slice k - 1 lacks hold no partition.
                src = slices[k - 1][: len(slices[k]) - l]
                slices[k][l : l + len(src)] += src
        return cls(params, slices)

    def _column(self, k: int, rows: range, s: int) -> list:
        """As PartitionTable._column, ``rows`` within the stored block."""
        if rows and s < rows[-1]:
            raise ValueError(
                f"slack {s} is below the sum {rows[-1]}: only the saturated "
                f"surface s >= N is stored"
            )
        return self._slices[k][rows.start : rows.stop : rows.step].tolist()


@functools.lru_cache
def _crt_basis(primes: tuple) -> tuple:
    """The primes' product P, and per prime q the integer 1 mod q and 0
    mod every other prime, (P/q) times the inverse of P/q mod q: the
    residues r_q of a cell below P give it as sum(r_q * basis_q) % P."""
    P = math.prod(primes)
    return P, tuple(P // q * pow(P // q, -1, q) for q in primes)


_P_CACHE = [1]


def unrestricted_p(j: int) -> int:
    """Number of partitions of j, by the pentagonal-number recurrence."""
    if j < 0:
        raise ValueError("partition numbers need j >= 0")
    while len(_P_CACHE) <= j:
        m = len(_P_CACHE)
        total = 0
        g = 1
        while True:
            pent = g * (3 * g - 1) // 2
            if pent > m:
                break
            sign = 1 if g % 2 else -1
            total += sign * _P_CACHE[m - pent]
            pent = g * (3 * g + 1) // 2
            if pent <= m:
                total += sign * _P_CACHE[m - pent]
            g += 1
        _P_CACHE.append(total)
    return _P_CACHE[j]
