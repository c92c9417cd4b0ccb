"""Host-speed probe: rescales measured seconds to a reference host speed.

On a shared host the same code runs at a speed that drifts by up to 3x
over seconds to minutes (other tenants on the same cores; the guest sees
no steal time), so raw wall time mostly measures the host.  The probe
samples the host's speed throughout a measurement, on the same thread
that does the work: a wall-clock interval timer (SIGALRM every
INTERVAL_S) runs a fixed piece of work and records how long it took.  A
sample of p seconds means the host ran at REF_PROBE_S / p times the
reference speed during that stretch.

The fixed work is PROBE_ROUNDS rounds of sliced add and subtract on
small object-dtype numpy arrays of big integers: the operation the
package's layer-fill kernel is made of, and, of the loops tried (plain
integer loops, dict and list work, a walk over a large list, big-integer
list arithmetic), the one whose speed tracked every workload's speed
closest.  The probe uses numpy but never imports it: it is started after
``import degseq``, so set-up time keeps the full cost of numpy's import.

A measured interval of T seconds, with the timer's samples inside it,
is rescaled to

    (T - time spent in those samples) * mean(REF_PROBE_S / p)

over the samples in it and one taken right before and right after it
(so even a short interval has two).  The mean of the speeds, not of the
durations, is the right weight: equal stretches of wall time do work in
proportion to the speed during them, and a rare slow sample (an
interrupt, a page fault) moves the mean of speeds little.

REF_PROBE_S is a fixed constant, near the median sample on a 2-vCPU
2.1 GHz Xeon guest with CPython 3.11 and numpy 1.26, so that rescaled
seconds read close to raw seconds there.  Its value only sets the unit;
comparisons between commits need only that it and the probe's work
never change.  The probe takes some 2.5% of the run, counted in raw
times and taken out of rescaled ones.
"""

from __future__ import annotations

import signal
import sys
import time

PROBE_ROUNDS = 100
INTERVAL_S = 0.025
REF_PROBE_S = 0.0006


class HostProbe:
    """Samples host speed on SIGALRM while started; see the module doc."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False
        self._old_handler = None
        np = sys.modules["numpy"]  # already imported by degseq
        self._a = np.array([10**20 + 7 * i for i in range(64)], dtype=object)
        self._b = np.array([3**40 + 11 * i for i in range(64)], dtype=object)
        self._out = np.empty(64, dtype=object)
        self._add = np.add

    def _sample(self, *_):
        if self._busy:  # the timer fired during a mark()'s own sample
            return
        self._busy = True
        a, b, out, add = self._a, self._b, self._out, self._add
        t0 = time.perf_counter()
        for i in range(PROBE_ROUNDS):
            j = i & 31
            add(a[j : j + 32], b[j : j + 32], out=out[j : j + 32])
            view = out[j : j + 32]
            view -= a[:32]
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def start(self) -> int:
        """Start the timer; return the index of a first sample taken now."""
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self.mark()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def mark(self) -> int:
        """Take a sample now, outside any measured interval; return its index."""
        self._sample()
        return len(self.samples) - 1

    def speed(self, first: int, last: int) -> float:
        """Mean host speed, as a multiple of the reference, from mark
        ``first`` to mark ``last``, both included."""
        window = self.samples[first : last + 1]
        return sum(REF_PROBE_S / p for p in window) / len(window)

    def rescale(self, seconds: float, first: int, last: int) -> float:
        """``seconds`` measured between marks ``first`` and ``last``, less
        the timer's samples inside, at the reference host speed."""
        inside = sum(self.samples[first + 1 : last])
        return (seconds - inside) * self.speed(first, last)
