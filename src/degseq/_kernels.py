"""Layer fill for the four-parameter partition table.

``fill_layer`` advances the rolling fill by one layer: given the
finished layer at l-1 (``prev``) it produces layer l (``cur``).  A layer
is a list of flat object-dtype arrays, one per largest-part bound k; the
ragged (N, s) grid of a slice is packed row-major with row N starting at
``off[N]`` and holding s = 0..N.

The cell recurrence, with D the shifted lookup into layer l-1:

    cell(N, k, l, s) = cell(N, k-1, l, s) + cell(N, k, l-1, s)
                       - cell(N, k-1, l-1, s) + D
    D = cell(N-k-l+1, k-1, l-1, s+l-k-1), zero when either the sum or the
        slack argument goes negative, with the slack clamped at the new sum.

The fill exploits two zero/constant structures of the recurrence:

  * rows with N > k*l count partitions that cannot exist, so they are
    skipped and kept materialized as zeros for downstream slice reads;
  * along s a row becomes constant once s reaches (k+1)^2 // 4 (the
    prefix-slack deficit of a partition with parts <= k never exceeds
    j*(k+1-j)), so only that prefix is computed and the tail is a
    broadcast of the saturated value.
"""

from __future__ import annotations

import numpy as np


def fill_layer(cur, prev, l, off, max_sum, max_part):
    """Fill layer ``l`` from layer ``l - 1`` using sliced array arithmetic.

    Slices k = 1..max_part are processed in order so the same-layer k-1
    operand is ready.  Slice 0 is a shared constant (1 at N = 0, else 0)
    and is never written.  After a slice is filled to its live extent
    min(max_sum, k*l), the band of rows up to min(max_sum, (k+1)*(l+1))
    is zeroed; those rows are read as operands by later (k, l) sweeps and
    would otherwise hold stale values from layer l - 2.
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
        out[0] = 1
        for N in range(1, live + 1):
            a = off[N]
            W = N + 1 if N <= skap else skap + 1
            end = a + W
            np.add(a_km1[a:end], b_k[a:end], out=out[a:end])
            ov = out[a:end]
            ov -= c_km1[a:end]
            N2 = N - shift
            if N2 >= 0:
                a2 = off[N2]
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
        zlo = live
        zhi = min(M, (k + 1) * (l + 1))
        if zhi > zlo:
            out[off[zlo + 1] : off[zhi + 1]] = 0
