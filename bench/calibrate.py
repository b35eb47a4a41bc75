"""Machine-speed calibration: times a fixed loop that never touches varbounds.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds, as other tenants load the shared cores and caches.
So while ops run, a timer interrupts them every ``INTERVAL_S`` and times one
short calibration pass, and every reported time is scaled to the speed of a
reference machine:

    reference seconds = (measured seconds - time spent in passes)
                        * REF_PASS_S / mean pass time around the op

A change to varbounds moves the measured seconds and leaves the pass time as
it was, so it shows in full; a slow spell of the machine slows both and
cancels.

The pass mixes what varbounds spends its time on: interpreted Python (method
calls, dicts, float arithmetic), numpy calls on small arrays, a scipy root
find on a Python function, a scan that allocates and writes a fresh array
larger than the CPU caches, and a small HiGHS linear program.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
from scipy.optimize import brentq, linprog

# Median pass time on the reference machine (2-vCPU Intel Xeon VM at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only fixes the unit of the
# scaled times.
REF_PASS_S = 0.0072
INTERVAL_S = 0.2  # timer period while ops run
WINDOW_S = 0.5  # passes this close to an op's ends also count towards its speed

_SMALL = np.linspace(0.5, 2.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB


class _Node:
    def __init__(self, v: int):
        self.v = v

    def f(self, x: float) -> float:
        return self.v * x + 1.0


_NODES = [_Node(i) for i in range(100)]

# A fixed feasible LP of the size varbounds' grid LPs reach on small chains.
_LP_RNG = np.random.default_rng(0)
_LP_A = _LP_RNG.uniform(0.0, 1.0, size=(12, 80))
_LP_B = _LP_A @ np.full(80, 0.5)
_LP_C = _LP_RNG.uniform(-1.0, 1.0, size=80)


def calibration_pass() -> float:
    """Seconds one pass of the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        for node in _NODES:
            acc += node.f(0.5)
        acc += sum({i: i * 0.5 for i in range(100)}.values())
    for _ in range(80):
        acc += float(np.maximum(_SMALL - 1.0, 0.0).sum())
    for c in (0.3, 0.4):
        acc += brentq(lambda x: math.exp(x) - 2.0 - c * x, 0.0, 3.0, xtol=1e-14)
        acc += float(np.cumsum(_LARGE)[-1])
    acc += float(linprog(_LP_C, A_eq=_LP_A, b_eq=_LP_B, bounds=(0.0, 1.0), method="highs").fun)
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the loop's result live
        raise AssertionError("calibration loop produced NaN")
    return elapsed


def warm_up() -> None:
    """First passes in a process pay page faults and lazy set-up."""
    for _ in range(3):
        calibration_pass()


def calibration_sample() -> float:
    """Median of five back-to-back passes."""
    return statistics.median(calibration_pass() for _ in range(5))


class SpeedSampler:
    """Times a calibration pass on every SIGALRM tick while installed.

    ``spent`` is the total time the handler took, so it can be taken off the
    op that was interrupted.  Python runs the handler between bytecodes of
    the main thread; a long call into C delays the tick, it does not lose it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # when each pass ended
        self.passes: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.passes.append(calibration_pass())
        end = time.perf_counter()
        self.times.append(end)
        self.spent += end - start

    def __enter__(self) -> "SpeedSampler":
        warm_up()
        self._tick(None, None)  # a pass at each end, so even a short run has two
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def pass_s(self, start: float, end: float) -> float:
        """Mean pass time within ``WINDOW_S`` of the interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi <= lo:  # no pass nearby: take the nearest ones
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        return statistics.fmean(self.passes[lo:hi])
