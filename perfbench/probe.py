"""Reference probe: fixed pieces of work that measure how fast the
machine runs at the moment, so that timings can be scaled to one speed.

A shared VM changes speed by up to 2x in phases that last from a tenth of
a second to minutes, and CPU time follows wall time, so neither clock
alone can tell a slower program from a slower machine.  The benchmark
runs the probe before and after every part of an operation, and every
SAMPLE_INTERVAL_S during it (`Sampler`), and scales the part's time by
the median probe time; the set-up time is scaled by the probes run
between its interpreters.  The probe never changes and never calls
ramanecho, so the ratio of a part's time to the probe's time moves only
when the program does.

Kinds of work slow down by different factors in a slow phase: Python
code that allocates small objects by up to 2x, numpy arithmetic on
arrays of some 100 kB by much less.  The probe therefore does some of
each, as every workload does; its Python half takes about 60% of its
time.  Over the stages of three 30 s `saturating` runs, a stage's time
grew as the 1.4-1.6th power of the numpy half's time, and scaling by
the whole probe left the least spread between the runs; the same held
for `scenarios`.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# Probe time that the scaled metrics refer to: a scaled time is what the
# part would take on a machine that runs the probe in REFERENCE_S.  About
# the probe's time in a fast phase of a 2-vCPU Xeon VM.
REFERENCE_S = 0.022
# a slow phase can be shorter than one part of saturating (about 4 s)
SAMPLE_INTERVAL_S = 0.5

_ROWS = np.linspace(0.0, 1.0, 33 * 641).reshape(33, 641)
_WEIGHTS = _ROWS[::-1].copy()


@dataclass
class _Point:
    protocol: str
    depth: float
    gamma: float

    def __post_init__(self):
        if self.protocol.lower() not in ("recrib", "reafc"):
            raise ValueError(self.protocol)
        self.scaled = self.depth * self.gamma


def _half_python() -> int:
    """Interpreted Python: small objects, math calls, float formatting."""
    lines = []
    for i in range(6000):
        p = _Point("recrib" if i % 2 else "reafc", 50.0 + i % 7,
                   1e-4 * (i % 1000))
        eps = math.exp(-p.scaled) * (1.0 - math.exp(-p.gamma)) ** 2
        lines.append(",".join((p.protocol, format(p.depth, ".17g"),
                               format(eps, ".17g"))))
    return len("\n".join(lines))


def _half_numpy() -> float:
    """numpy arithmetic on 33 x 641 arrays, as in the integrators' rows."""
    x = _ROWS.copy()
    for _ in range(45):
        x = np.exp(-x) * _WEIGHTS + np.sqrt(np.abs(x)) - 0.5 * _ROWS
        x = np.cumsum(x, axis=1) * 1e-3
    return float(x[0, -1])


def probe() -> float:
    """Wall seconds of one run of the reference work."""
    t0 = time.perf_counter()
    _half_python()
    _half_numpy()
    return time.perf_counter() - t0


class Sampler:
    """Runs the probe every SAMPLE_INTERVAL_S of wall time while active,
    from a SIGALRM handler in the main thread, and keeps the probe times
    and the wall and CPU time that its own runs took, so that the caller
    can subtract them from the time of what it measured."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_used = 0.0
        self.cpu_used = 0.0
        self._active = False

    def _handler(self, signum, frame):
        # a signal can be handled after the block ended; it must not
        # re-arm the timer once the default action is back
        if not self._active:
            return
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self.wall_used += time.perf_counter() - t0
        self.cpu_used += time.process_time() - c0
        # re-armed here, not periodic, so that a slow probe never nests
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    @contextlib.contextmanager
    def active(self):
        """Sample during the block; start from no samples."""
        self.samples, self.wall_used, self.cpu_used = [], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
