"""Host-speed calibration for shared machines.

On a shared host the same CPU-bound call can take 1.7 times longer from
one minute to the next, and other CPU-bound work slows by the same factor.
A fixed reference loop, timed before, during and after each measurement,
tracks that factor; times scaled by it read as seconds on a host where the
loop takes ``REFERENCE_S``. The loop resembles the package's hot code:
small numpy reductions and scalar math calls in a Python loop.
"""
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025  # the loop's time on the 2-vCPU, 2.1 GHz host the bounds were tuned on
TICK_S = 0.1


def _reference_loop() -> float:
    a = np.arange(1.0, 5.0)
    s = 0.0
    for n in range(600):
        s += float(np.sum(np.log(a + n))) + math.lgamma(n + 1.5)
    return s


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def speed(repeats: int = 5) -> float:
    """How fast the host runs right now relative to the reference (1.0 = reference)."""
    return REFERENCE_S / statistics.median(_loop_seconds() for _ in range(repeats))


def timed(fn):
    """Call ``fn()``; return (result, scaled seconds, wall seconds, exception).

    While ``fn`` runs, a SIGALRM tick every ``TICK_S`` times the reference
    loop once, so speed changes inside a long call are caught. The
    ticks' own time is taken out of the wall time before scaling by the
    mean of all speed samples.
    """
    ticks: list[float] = []
    paused = [0.0]

    def tick(signum, frame):
        t0 = time.perf_counter()
        ticks.append(_loop_seconds())
        paused[0] += time.perf_counter() - t0

    samples = [speed()]
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    result, error = None, None
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # handed back so the caller can count it
        error = exc
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= paused[0]
    samples += [REFERENCE_S / t for t in ticks] + [speed()]
    return result, wall * statistics.fmean(samples), wall, error
