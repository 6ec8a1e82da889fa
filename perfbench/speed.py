"""The machine's speed while a sweep runs, and times scaled to a fixed speed.

A shared machine runs the same code up to 1.7x slower whenever a neighbour
is busy, in stretches from tens of milliseconds to minutes.  No run of a few
tens of seconds can average that away.  So a sweep also times `probe`, a
fixed piece of pure-Python work, before each case and every `PERIOD_S`
while its cases run, and the benchmark scales each case's measured time by
how fast the probe ran around it: the probes just before and after the case
and those inside it.  A time scaled this way is in *reference seconds*: the
time the case would take on a machine where one probe takes
`REFERENCE_PROBE_S`.  A 2-CPU Xeon VM took 0.75-1.3 ms per probe.

The probe mixes what qpiverify's engines do in Python: a list convolution
of small ints reduced mod p, products of thousand-bit ints and a sum of
Fractions.  It never calls qpiverify or mpmath, so it runs the same on
every commit of the program.

Importing this module sets no timer; `Sampler.running()` does.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

#: How often the sampler times a probe while cases run.  The speed changes
#: within tens of milliseconds, and a shorter probe is too noisy to time.
PERIOD_S = 0.025

#: The probe's duration that defines a reference second.
REFERENCE_PROBE_S = 0.001


def probe() -> int:
    """Fixed work of about a millisecond; returns a value so none is skipped."""
    a = [(i * 7919) % 1000003 for i in range(72)]
    acc = [0] * 143
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            acc[i + j] = (acc[i + j] + x * y) % 1000003
    b = 3**400
    for _ in range(60):
        b = (b * b) >> 1200 | 1
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    return acc[71] + b % 7 + f.numerator % 7


def probe_rate(count: int) -> float:
    """Mean of reference probes per second of `count` probes run back to back."""
    rates = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        rates.append(REFERENCE_PROBE_S / (time.perf_counter() - start))
    return sum(rates) / len(rates)


class Sampler:
    """Times a probe every PERIOD_S of wall time, from a SIGALRM handler, so
    that the speed is known inside long cases too, and whenever `mark` is
    called, so that it is known at each case's start and end.  Each sample
    is (start, end) in `time.perf_counter` seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter()))

    def mark(self) -> None:
        """Time a probe between two cases.  An untimed probe first brings the
        probe's code and data back into the CPU caches that the case before
        filled, so the timed one measures the machine, not the eviction."""
        probe()
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_time(self, start: float, end: float) -> float:
        """Time spent in probes inside [start, end]."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return sum(e - s for s, e in self.samples[lo:hi] if e <= end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]: the
        mean speed of the probes inside it and of the last probe before it
        and the first after it.  The timer spaces the probes inside evenly,
        so for a long case this is close to its mean speed over time."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        near = self.samples[max(lo - 1, 0) : hi + 1]
        if not near:
            raise RuntimeError("no speed sample was taken during the sweep")
        return statistics.fmean(REFERENCE_PROBE_S / (e - s) for s, e in near)
