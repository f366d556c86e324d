"""Host-speed sampler: a fixed probe run from a timer signal inside the
measuring process, to turn raw times into host-adjusted ones.

On a shared host the same pass can take twice as long from one minute to
the next, and CPU time slows with wall time, so neither is steady on its
own.  Every ``PERIOD_S`` of wall time the SIGALRM handler runs a probe of
fixed work and records how long it took.  Over an interval, the probes'
time against their nominal time says how fast this CPU ran then, under the
same contention as the work around it.  ``Sampler.adjust(t0, t1, raw)``
removes the handler's own time from ``raw`` and scales the rest by the
probes' nominal over measured time: the result is in host-adjusted
seconds, seconds on a host where each probe takes its nominal time.  The
handler takes 2-4 % of a run.

Two probes, each with its nominal time on a quiet host of the kind this
was set on.  ``python`` needs only the standard library, so it can sample
a fresh interpreter's imports from the first line on.  ``numpy`` runs
ufuncs over an array the size of a level-2 cache, and follows the
slow-downs of the workloads' passes more closely: on a shared 2-vCPU
VM whose speed moved 2.3-fold over seven minutes, it left an interquartile
spread of 6-9 % of the median in adjusted pass times, against 9-14 % for
``python``.  The worker switches to it once set-up has been timed.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.01


def probe_python():
    y, s = 0.3, 0.0
    for _ in range(2000):
        y += 0.001 * (math.cos(y) - y)
        s += y * y
    return s


def _numpy_probe():
    import numpy as np

    x = np.linspace(0.0, 1.0, 20_000)

    def probe_numpy():
        a = x
        for _ in range(2):
            a = np.sin(a) * 0.5 + 0.25
        return a

    return probe_numpy


NOMINAL_S = {"python": 0.2e-3, "numpy": 0.33e-3}


class Sampler:
    def __init__(self):
        self.ends: list[float] = []      # perf_counter at the end of each probe
        self.costs: list[float] = []     # how long each probe took
        self.nominals: list[float] = []  # how long it takes on a quiet host
        self.use("python")

    def use(self, kind: str):
        """Run the ``kind`` probe from the next signal on."""
        self._probe = probe_python if kind == "python" else _numpy_probe()
        self._nominal = NOMINAL_S[kind]

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._probe()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)
        self.nominals.append(self._nominal)

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _within(self, t0, t1):
        i, j = bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)
        if j <= i:
            raise RuntimeError(f"no host-speed probe in an interval of {t1 - t0:.4g} s")
        return sum(self.costs[i:j]), sum(self.nominals[i:j])

    def slowdown(self, t0: float, t1: float) -> float:
        """Probe time over nominal time in [t0, t1]; 1 on a quiet host."""
        cost, nominal = self._within(t0, t1)
        return cost / nominal

    def adjust(self, t0: float, t1: float, raw: float) -> float:
        """``raw`` (a wall or CPU time over [t0, t1]) in host-adjusted seconds."""
        cost, nominal = self._within(t0, t1)
        return (raw - cost) * nominal / cost
