"""Restricted-partition counting tables.

The central object counts partitions of N into at most l parts, each at
most k, that additionally pass a prefix-slack test with allowance s: with
d the side of the partition's Durfee square and r_i the corank column
differences (conjugate minus part), the partition is counted when

    s + r_1 + ... + r_j >= j   for every j = 1..d.

Cell values are Python ints, so counts stay exact at any magnitude.
Boundary behaviour is fixed by a clamp chain evaluated in this order:
any negative argument gives 0; N = 0 gives 1; k = 0 or l = 0 (with
N > 0) gives 0; k > N acts as k = N, l > N as l = N, s > N as s = N;
N > k*l then gives 0 (no partition fits), wherever N lies.  The
recurrence reproduces the clamped values inside the stored block, so a
table holding layer l = L answers every query whose clamped l is
min(L, N).  Layer l is filled from layer l - 1 by

    cell(N, k, l, s) = cell(N, k-1, l, s) + cell(N, k, l-1, s)
                       - cell(N, k-1, l-1, s) + D
    D = cell(N-k-l+1, k-1, l-1, s+l-k-1), zero when either the sum or the
        slack argument goes negative, with the slack clamped at the new sum.

Two table flavours hold one layer each and answer through the same
clamp chain; they differ only in how they fill it and read one cell:

  * :class:`PartitionTable` stores the full (N, k, s) grid: one flat
    object-dtype array per part bound k, where row N (s = 0..N) starts
    at N(N+1)/2.  A rolling pass over two such layers skips the rows
    N > k*l (no partition fits; they stay zero) and computes a row only
    up to s = (k+1)^2 // 4, past which it is constant (the prefix-slack
    deficit of a partition with parts <= k never exceeds j*(k+1-j)).
    This is the workhorse for degree-sequence counts.  This module alone
    knows that layout: a fill's visitor and every reader get a table.
  * :class:`BoundedPartitionTable` stores only the s-saturated surface
    s >= N, one array over N per k, which is all the disconnected-count
    path ever reads, and keeps the whole fill cubic in the vertex count.

:func:`unrestricted_p` gives the ordinary partition numbers p(j) by the
pentagonal-number recurrence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import LayerNotResidentError, MemoryBudgetError


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

# Bytes per allocated slot (a pointer), and per computed cell and layer
# buffer: its own int object and the fill's temporaries, as measured for
# ints of up to 48 bytes (skipped rows and saturated tails share ints).
_BYTES_PER_SLOT = 8
_BYTES_PER_CELL = 48


@dataclass(frozen=True)
class TableParams:
    """Dimensions of a partition table.

    Attributes:
        max_sum: largest partition sum N stored.
        max_part: largest part bound k stored.
        target_parts: the l value the final fill layer represents.
    """

    max_sum: int
    max_part: int
    target_parts: int

    def __post_init__(self) -> None:
        if self.max_sum < 0 or self.max_part < 0 or self.target_parts < 0:
            raise ValueError("table dimensions must be nonnegative")


def estimate_table_bytes(params: TableParams) -> int:
    """Estimated peak memory of a full table build, in bytes.

    The two buffers allocate 1 + 2 * max_part slices (k = 0 is shared)
    and each computes min(N, (k+1)^2 // 4) + 1 cells of each row
    N <= min(max_sum, k * target_parts).  A cell costs _BYTES_PER_CELL
    or, once larger, the 16-byte-aligned block of an int of
    max_part + target_parts bits: no cell exceeds the number of
    partitions fitting a max_part x target_parts box, C(max_part +
    target_parts, target_parts) < 2^(max_part + target_parts).  The
    bound, unlike the binomial itself, costs nothing to compute, so a
    huge table is refused in time linear in max_part.
    """
    M, K, L = params.max_sum, params.max_part, params.target_parts
    slots = (1 + 2 * K) * (M + 1) * (M + 2) // 2
    cells = 0
    for k in range(1, K + 1):
        rows, sat = min(M, k * L), (k + 1) * (k + 1) // 4
        low = min(rows, sat)
        cells += (low + 1) * (low + 2) // 2 + (rows - low) * (sat + 1)
    # A CPython int takes 24 bytes plus 4 per 30-bit digit.
    int_bytes = 24 + 4 * -(-(K + L) // 30)
    per_cell = max(_BYTES_PER_CELL, -(-int_bytes // 16) * 16)
    return _BYTES_PER_SLOT * slots + 2 * per_cell * cells


def _fill_layer(cur, prev, l, max_sum, max_part):
    """Fill layer ``l`` into ``cur`` from layer ``l - 1`` in ``prev``.

    Slices k = 1..max_part are processed in order so the same-layer k-1
    operand is ready.  Slice 0 is a shared constant (1 at N = 0, else 0)
    and is never written, nor is row 0 of any slice, which holds 1 from
    allocation.  Each slice is written only up to its live extent
    min(max_sum, k*l); the rows above stay zero without being cleared,
    because a buffer only ever holds layers of one parity and layer
    l - 2 wrote no row above k*(l - 2).
    """
    M = max_sum
    for k in range(1, max_part + 1):
        a_km1 = cur[k - 1]
        b_k = prev[k]
        c_km1 = prev[k - 1]
        out = cur[k]
        live = min(M, k * l)
        skap = ((k + 1) * (k + 1)) // 4
        shift = k + l - 1
        delta = l - k - 1
        a = a2 = 0  # starts of rows N and N2, N(N+1)/2 and N2(N2+1)/2
        for N in range(1, live + 1):
            a += N
            W = N + 1 if N <= skap else skap + 1
            end = a + W
            np.add(a_km1[a:end], b_k[a:end], out=out[a:end])
            ov = out[a:end]
            ov -= c_km1[a:end]
            N2 = N - shift
            if N2 >= 0:
                a2 += N2
                s_lo = -delta if delta < 0 else 0
                cut = N2 - delta
                hi = W if cut > W else cut
                if hi > s_lo:
                    ov[s_lo:hi] += c_km1[a2 + s_lo + delta : a2 + hi + delta]
                t_lo = s_lo if s_lo > cut else cut
                if t_lo < W:
                    ov[t_lo:W] += c_km1[a2 + N2]
            if W <= N:
                out[a + W : a + N + 1] = out[end - 1]


class PartitionTable:
    """One filled layer of the four-parameter partition counts.

    Build once, then query; instances are immutable after ``build``
    returns and can be shared freely between readers.  The table holds
    the layer l = target_parts only, so a query is answered when its
    clamped l equals min(target_parts, N) and raises
    LayerNotResidentError otherwise.

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
        memory_cap: int | None = None,
        layer_visitor: Callable[[int, PartitionTable], None] | None = None,
    ) -> "PartitionTable":
        """Fill layers l = 0..target_parts and return the last one.

        Args:
            params: table dimensions.
            memory_cap: byte budget checked before any allocation;
                defaults to DEFAULT_MEMORY_CAP, seven eighths of the
                machine's physical memory.
            layer_visitor: optional callback invoked as visitor(l, layer)
                after each layer l >= 1 is filled, before the buffers
                roll.  ``layer`` is a read-only view of layer l, a table
                with target_parts = l, valid only until the visitor
                returns: the fill then overwrites its buffers.

        Raises:
            MemoryBudgetError: the estimated table size exceeds the cap.
        """
        cap = DEFAULT_MEMORY_CAP if memory_cap is None else memory_cap
        estimate = estimate_table_bytes(params)
        if estimate > cap:
            raise MemoryBudgetError(estimate, cap)
        M, K, target = params.max_sum, params.max_part, params.target_parts
        tri = (M + 1) * (M + 2) // 2

        def fresh_slice() -> np.ndarray:
            arr = np.zeros(tri, dtype=object)
            arr[0] = 1
            return arr

        # Slice k = 0 is the same in every layer (1 at N = 0, else 0)
        # and is never written, so one array backs it everywhere.
        shared0 = fresh_slice()
        prev = [shared0] + [fresh_slice() for _ in range(K)]
        cur = [shared0] + [fresh_slice() for _ in range(K)]
        for l in range(1, target + 1):
            _fill_layer(cur, prev, l, M, K)
            if layer_visitor is not None:
                layer_visitor(l, cls(replace(params, target_parts=l), cur))
            prev, cur = cur, prev
        return cls(params, prev)

    def query_raw(self, N: int, k: int, l: int, s: int) -> int:
        """Return the cell value with the full clamp chain applied.

        A clamped cell with N > k*l is 0 even outside the stored block.

        Raises:
            ValueError: the clamped (N, k) lies outside the stored block.
            LayerNotResidentError: the clamped l is not the held layer's.
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
        if N > p.max_sum or k > p.max_part:
            raise ValueError(
                f"cell (N={N}, k={k}) is outside the stored block "
                f"(max_sum={p.max_sum}, max_part={p.max_part})"
            )
        if min(p.target_parts, N) != l:
            raise LayerNotResidentError(
                f"layer l={l} is not servable from the held layer "
                f"{p.target_parts}"
            )
        return self._cell(N, k, s)

    def _cell(self, N: int, k: int, s: int) -> int:
        """The stored value at clamped (N, k, s) of the held layer."""
        return self._slices[k][N * (N + 1) // 2 + s]

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

    def g_prime_rows(self, n: int, max_sum: int, kmax: int) -> dict:
        """g_prime(N, k, n) over the even N in [n, max_sum], k = 1..kmax.

        Returns a mapping from each such N to a new list over k.  A k too
        large for N (k > N - n + 1) reads 0 through the clamp chain.
        """
        return {
            N: [self.g_prime(N, k, n) for k in range(1, kmax + 1)]
            for N in range(n + n % 2, max_sum + 1, 2)
        }


class BoundedPartitionTable(PartitionTable):
    """The s-saturated surface of the partition counts, s >= N everywhere.

    For slack at least the sum, the prefix test can only bind through
    the corank deficit, which the recurrence keeps on the surface: the
    shifted lookup moves the slack-minus-sum gap by 2(l - 1) >= 0, so
    saturated cells are computed entirely from saturated cells.  Storage
    and fill are (max_part + 1) x (max_sum + 1) per layer with only the
    final layer retained.  Queries pass through the same clamp chain and
    residency rule as the full table; a clamped slack below the sum is
    refused.
    """

    @classmethod
    def build(cls, params: TableParams) -> "BoundedPartitionTable":
        M, K, target = params.max_sum, params.max_part, params.target_parts
        # Slices are never written once filled, so one array serves as
        # slice 0 of every layer and as every slice of layer 0.
        base = np.zeros(M + 1, dtype=object)
        base[0] = 1
        prev = [base] * (K + 1)
        for l in range(1, target + 1):
            cur = [base]
            for k in range(1, K + 1):
                shift = k + l - 1
                out = cur[k - 1] + prev[k] - prev[k - 1]
                out[shift:] += prev[k - 1][: max(0, M + 1 - shift)]
                cur.append(out)
            prev = cur
        return cls(params, prev)

    def _cell(self, N: int, k: int, s: int) -> int:
        if s < N:
            raise ValueError(
                f"slack {s} is below the sum {N}: only the saturated "
                f"surface s >= N is stored"
            )
        return self._slices[k][N]

    def g_prime(self, N: int, k: int, l: int) -> int:
        """Graphical-partition count, valid only where the slack saturates.

        The bridged lookup lands on the saturated surface exactly when
        N <= 2(l - 1); larger sums need the full table.

        Raises:
            ValueError: N negative, odd, or above 2(l - 1).
        """
        if N > 2 * (l - 1):
            raise ValueError(
                f"sum {N} exceeds the saturated range of this table "
                f"(at most {2 * (l - 1)} for l={l})"
            )
        return super().g_prime(N, k, l)


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
