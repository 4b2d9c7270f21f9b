"""Host-speed probe: one fixed kernel, timed at regular intervals during a run.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, and process CPU time drifts with it.  The
probe times a fixed pure-Python kernel, the square of a 40-term
dict-of-exponents polynomial with 40-bit coefficients (the same kind of work
as the engine's Laurent arithmetic), from a SIGALRM handler every PERIOD_S
seconds, so its samples fall evenly inside the jobs they interrupt.

A window's *speed factor* is the mean kernel time of the samples taken in it
(or within MARGIN_S of it) over KERNEL_REF_S.  A time measured in the window,
less the probe's own time in it, divided by that factor, is the time the same
work takes on a host where the kernel runs in KERNEL_REF_S: "reference
seconds".  On a steady
host this is the wall time scaled by a constant, so a program change moves it
as it moves wall time, while a slow stretch of the host moves both the
numerator and the factor.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Dict, List, Tuple

PERIOD_S = 0.05
# A window's factor also uses samples this close to it, so that a 30 ms pass
# gets about ten; the host's speed changes over a second or more.
MARGIN_S = 0.25
# About the kernel's median time on a 2-vCPU KVM virtual machine (Intel Xeon,
# Python 3.11); any fixed value would do, it only sets the unit.
KERNEL_REF_S = 0.001


def _poly(n: int = 40, bits: int = 40) -> Dict[Tuple[int, int], int]:
    """A fixed polynomial: n distinct exponent pairs, coefficients from an LCG."""
    x, poly = 12345, {}
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        poly[(i % 9 - 4, (i * 7) % 13 - 6)] = (x >> (64 - bits)) - (1 << (bits - 1))
    return poly


_P = _poly()


def kernel() -> Dict[Tuple[int, int], int]:
    out: Dict[Tuple[int, int], int] = {}
    for (a1, b1), c1 in _P.items():
        for (a2, b2), c2 in _P.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def kernel_time() -> float:
    """One timed run of the kernel, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Samples the kernel every PERIOD_S seconds between start() and stop().

    The handler runs on the main thread between bytecodes, also while it
    waits for the verify pool's worker.  It raises the switch interval while
    the kernel runs, so a worker thread cannot take the interpreter lock
    inside a sample.
    """

    def __init__(self):
        # (start, duration) on the perf_counter clock
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), kernel_time()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe itself took inside [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor of [t0, t1), from the samples in it or within MARGIN_S
        of it; of the whole run if there are none."""
        near = [d for s, d in self.samples if t0 - MARGIN_S <= s < t1 + MARGIN_S]
        return statistics.fmean(near or [d for _, d in self.samples]) / KERNEL_REF_S
