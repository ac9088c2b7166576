"""A speed gauge for a shared host: times that do not move with co-tenants' load.

On the shared two-core machine the figures were taken on, other tenants
slow this process by up to 2x, in spells of seconds to minutes. Steal
time stays near zero and CPU time slows with wall time, so the process
cannot see a spell in its own clocks, and a pass of 8 s can take 12 s
with no change to the code. The gauge measures the host's speed with a
fixed reference kernel of the benchmark's own, which never calls
qaoalab: every ``SAMPLE_S`` of wall time a SIGALRM handler runs the
kernel and records how long it took.

``Gauge.time`` runs one region (a set-up or a pass) and returns two
times. Its wall time leaves out the time the handler took. Its
normalized time is that wall time times ``REFERENCE_S`` over the mean
kernel time sampled in the region, one sample just before and one just
after included: the region's time on a host where the kernel takes
``REFERENCE_S``. The mean leaves out samples over ``OUTLIER`` times the
region's median: those are the process losing its CPU for milliseconds
in mid-sample, time that the wall time leaves out with the sample's.
Work qaoalab adds or removes moves both times alike, while a
co-tenant's slowdown moves the kernel with the region and cancels.
The kernel is small-array numpy calls and bitstring and dict work in
the interpreter, the two kinds of work a pass is made of; README.md
gives the runs that chose it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

SAMPLE_S = 0.05
REFERENCE_S = 1e-3
OUTLIER = 3.0
_X = np.linspace(0.0, 1.0, 64)


def kernel() -> int:
    """About 1 ms on a quiet host of the kind above."""
    a = _X
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
    tally: dict[str, int] = {}
    for i in range(400):
        bits = format((i * 2654435761) & 0x3FFF, "014b")
        tally[bits] = tally.get(bits, 0) + 1
    return sum(bits.count("1") * c for bits, c in tally.items())


class Gauge:
    """Samples the kernel every ``SAMPLE_S`` while entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands in a sample adds none of its own
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter() - start))
        finally:
            self._busy = False

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, wall seconds and normalized seconds."""
        self.sample()
        first = len(self.samples) - 1
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        self.sample()
        region = self.samples[first:]
        wall = t1 - t0 - sum(d for s, d in region if t0 <= s <= t1)
        durations = [d for _, d in region]
        cap = OUTLIER * statistics.median(durations)
        kernel_s = statistics.fmean(d for d in durations if d <= cap)
        return result, wall, wall * REFERENCE_S / kernel_s
