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
query may be answered from any resident layer whose clamped l agrees
with the query's.

Two table flavours are provided:

  * :class:`PartitionTable` holds the full (N, k, s) grid for two
    consecutive l-layers (rolling fill), with the s axis ragged at
    length N + 1.  This is the workhorse for degree-sequence counts.
  * :class:`BoundedPartitionTable` stores only the s-saturated surface
    s >= N, which is all the disconnected-count path ever reads, and
    keeps the whole fill cubic in the vertex count.

:func:`unrestricted_p` gives the ordinary partition numbers p(j) by the
pentagonal-number recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LayerNotResidentError, MemoryBudgetError
from ._kernels import fill_layer

DEFAULT_MEMORY_CAP = 8 * 2**30

# Rough per-cell cost of an object array slot: an 8-byte pointer plus a
# small-int object (~28 bytes) rounded up to cover allocator overhead.
_BYTES_PER_SLOT = 40


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
    """Estimated peak memory of a full table build, in bytes."""
    tri = (params.max_sum + 1) * (params.max_sum + 2) // 2
    return 2 * (params.max_part + 1) * tri * _BYTES_PER_SLOT


class PartitionTable:
    """Rolling two-layer table of the four-parameter partition counts.

    Build once, then query; instances are immutable after ``build``
    returns and can be shared freely between readers.  Only the layers
    l = target_parts and l = target_parts - 1 remain resident; queries
    whose clamped l matches neither raise LayerNotResidentError.
    """

    def __init__(self, params: TableParams, layers, off):
        self.params = params
        self.filled_l = params.target_parts
        self._layers = layers
        self._off = off

    @classmethod
    def build(
        cls,
        params: TableParams,
        *,
        memory_cap: int | None = None,
        layer_visitor: Callable[[int, list], None] | None = None,
    ) -> "PartitionTable":
        """Fill layers l = 0..target_parts and return the finished table.

        Args:
            params: table dimensions.
            memory_cap: byte budget checked before any allocation;
                defaults to 8 GiB.
            layer_visitor: optional callback invoked as visitor(l, slices)
                after each layer l >= 1 is filled, before the buffers
                roll.  ``slices`` is the live list of per-k flat arrays
                and must not be mutated or retained.

        Raises:
            MemoryBudgetError: the estimated table size exceeds the cap.
        """
        cap = DEFAULT_MEMORY_CAP if memory_cap is None else memory_cap
        estimate = estimate_table_bytes(params)
        if estimate > cap:
            raise MemoryBudgetError(estimate, cap)
        M, K, target = params.max_sum, params.max_part, params.target_parts

        off = [0] * (M + 2)
        for n in range(1, M + 2):
            off[n] = off[n - 1] + n
        tri = off[M + 1]

        def fresh_slice() -> np.ndarray:
            arr = np.zeros(tri, dtype=object)
            arr[0] = 1
            return arr

        # Slice k = 0 is the same in every layer (1 at N = 0, else 0)
        # and is never written, so one array backs it everywhere.
        shared0 = fresh_slice()
        prev = [shared0] + [fresh_slice() for _ in range(K)]
        if target == 0:
            return cls(params, {0: prev}, off)
        cur = [shared0] + [np.zeros(tri, dtype=object) for _ in range(K)]
        for l in range(1, target + 1):
            fill_layer(cur, prev, l, off, M, K)
            if layer_visitor is not None:
                layer_visitor(l, cur)
            prev, cur = cur, prev
        return cls(params, {target: prev, target - 1: cur}, off)

    @property
    def resident_layers(self) -> tuple:
        return tuple(sorted(self._layers))

    def query_raw(self, N: int, k: int, l: int, s: int) -> int:
        """Return the cell value with the full clamp chain applied.

        A clamped cell with N > k*l is 0 even outside the stored block.

        Raises:
            ValueError: the clamped (N, k) lies outside the stored block.
            LayerNotResidentError: no resident layer can answer for the
                clamped l.
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
        slices = None
        for lr in self._layers:
            if min(lr, N) == l:
                slices = self._layers[lr]
                break
        if slices is None:
            raise LayerNotResidentError(
                f"layer l={l} is not servable from resident layers "
                f"{self.resident_layers}"
            )
        return slices[k][self._off[N] + s]

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


class BoundedPartitionTable:
    """The s-saturated surface of the partition counts, s >= N everywhere.

    For slack at least the sum, the prefix test can only bind through
    the corank deficit, which the recurrence keeps on the surface: the
    shifted lookup moves the slack-minus-sum gap by 2(l - 1) >= 0, so
    saturated cells are computed entirely from saturated cells.  Storage
    and fill are (max_part + 1) x (max_sum + 1) per layer with only the
    final layer retained.
    """

    def __init__(self, params: TableParams, grid):
        self.params = params
        self.filled_l = params.target_parts
        self._grid = grid

    @classmethod
    def build(cls, params: TableParams) -> "BoundedPartitionTable":
        M, K, target = params.max_sum, params.max_part, params.target_parts
        base = [1] + [0] * M
        prev = [list(base) for _ in range(K + 1)]
        for l in range(1, target + 1):
            cur = [list(base)]
            for k in range(1, K + 1):
                row_km1 = cur[k - 1]
                p_k = prev[k]
                p_km1 = prev[k - 1]
                shift = k + l - 1
                out = [0] * (M + 1)
                out[0] = 1
                for N in range(1, M + 1):
                    v = row_km1[N] + p_k[N] - p_km1[N]
                    if N >= shift:
                        v += p_km1[N - shift]
                    out[N] = v
                cur.append(out)
            prev = cur
        return cls(params, prev)

    def query_saturated(self, N: int, k: int, l: int) -> int:
        """Return the cell value at slack s >= N (the saturated value).

        Only l values whose clamp agrees with the filled layer are
        servable, mirroring the full table's residency rule.
        """
        if N < 0 or k < 0 or l < 0:
            return 0
        if N == 0:
            return 1
        if k == 0 or l == 0:
            return 0
        if k > N:
            k = N
        if l > N:
            l = N
        p = self.params
        if N > p.max_sum or k > p.max_part:
            raise ValueError(
                f"cell (N={N}, k={k}) is outside the stored block "
                f"(max_sum={p.max_sum}, max_part={p.max_part})"
            )
        if min(self.filled_l, N) != l:
            raise LayerNotResidentError(
                f"layer l={l} is not servable from the filled layer "
                f"{self.filled_l}"
            )
        return self._grid[k][N]

    def g_prime(self, N: int, k: int, l: int) -> int:
        """Graphical-partition count, valid only where the slack saturates.

        The bridged lookup lands on the saturated surface exactly when
        N <= 2(l - 1); larger sums need the full table.

        Raises:
            ValueError: N negative, odd, or above 2(l - 1).
        """
        if N < 0:
            raise ValueError("graphical count needs N >= 0")
        if N % 2:
            raise ValueError("graphical count needs an even N")
        if N > 2 * (l - 1):
            raise ValueError(
                f"sum {N} exceeds the saturated range of this table "
                f"(at most {2 * (l - 1)} for l={l})"
            )
        return self.query_saturated(N - k - l + 1, k - 1, l - 1)


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
