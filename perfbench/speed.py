"""Host speed from a fixed probe, so that times are given at one reference speed.

On a host shared with other tenants, a run slows down by up to about
1.5x, in phases that last from seconds to minutes, and its CPU time
slows with its wall time.  A fixed piece of pure-Python work (``probe``)
slows by the same factor.  ``Probes`` runs it on a timer every
``INTERVAL`` seconds, in the thread that runs the requests, and
``at_reference`` turns a measured interval into the time it would take
at the speed where the probe takes ``REF_S``: its duration, less the
probe time inside it, times the mean of ``REF_S / probe`` over the
probes inside and next to it.  The probe is the benchmark's own code, so
a change to the library moves the reported times as it moves the
measured ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.002  # the probe's duration at reference speed
INTERVAL = 0.25  # seconds between timed probes, about 1% of the run


def probe() -> float:
    """Seconds taken by a fixed piece of integer, Fraction and dict work."""
    t0 = time.perf_counter()
    keep = {}
    acc = 0
    for i in range(1, 400):
        f = Fraction(i, i + 7) * Fraction(i + 3, i + 1) + Fraction(1, i)
        keep[i % 37] = f
        acc += f.numerator % 97 + len(str(i))
    return time.perf_counter() - t0


class Probes:
    """Probe start times and durations, in time order.

    As a context manager, probes once on entry and on exit and every
    ``INTERVAL`` seconds between, from a SIGALRM handler; the handler
    runs between bytecodes of the main thread, so a probe never overlaps
    the work it is timed against.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def sample(self, *_signal) -> float:
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)
        return duration

    def __enter__(self) -> "Probes":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def at_reference(self, t0: float, t1: float) -> float:
        """Seconds at reference speed of the interval [t0, t1] of perf_counter."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - sum(self.durations[i:j])
        return net * factor(self.durations[max(i - 1, 0) : j + 1])


def factor(durations) -> float:
    """Reference seconds per measured second, from probe durations."""
    return statistics.fmean(REF_S / d for d in durations)
