"""Host-speed probes that put the benchmark's timings at a reference speed.

On a shared host the speed of one core drifts by up to 2x, and it changes
from one tenth of a second to the next, so probes taken only before and
after a one-second call miss most of what slowed it.  ``timed`` therefore
samples the speed during the call too: a timer signal runs one fixed slice
of pure-Python arithmetic every SAMPLE_PERIOD_S, the slices' own time is
taken out of the call's time, and the call is scaled by REFERENCE_SLICE_S
over the mean slice time.  A call too short to hold MIN_SAMPLES slices is
scaled by the probes just before and after it instead.  ``net_clock`` is
the clock with every sampling slice taken out, for timing inside a call.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, List, Tuple

# about one slice's time on the 2-vCPU host of BENCH_baseline.json
REFERENCE_SLICE_S = 0.001
PROBE_SLICES = 10          # a probe around a call is this many slices
SAMPLE_PERIOD_S = 0.02
MIN_SAMPLES = 5

_sampled_s = 0.0           # seconds spent in sampling slices so far


def net_clock() -> float:
    """``time.perf_counter`` less the time spent in sampling slices, so that
    spans timed with it inside a call bill no slice to a library layer."""
    return time.perf_counter() - _sampled_s


def _rational_slice() -> None:
    a, s, table = Fraction(3, 7), Fraction(0), {}
    for i in range(180):
        s = s * a + Fraction(i, 11)
        table[i & 63, i % 7] = s
        if s.denominator > 10 ** 30:
            s = Fraction(1, 3)


def _float_slice() -> None:
    terms = [(k, 0.5 + k) for k in range(5)]

    def f(x):
        return sum(c * x ** k for k, c in terms)

    acc = 0.0
    for i in range(300):
        x = 0.01 * i
        acc += (f(x) + 4.0 * f(x + 0.005) + f(x + 0.01)) / 6.0


# Each slice does the kind of arithmetic the timed code spends its time in:
# exact rationals for the oracle and the counts, float quadrature for the
# reductions.  Host noise slows the two kinds by different amounts.
SLICES = {"exact": _rational_slice, "float": _float_slice}


def _slice_seconds(kind: str, count: int) -> float:
    """Mean seconds of ``count`` slices.  They run no library code, and the
    cyclic collector is off while they run, so the library's heap cannot
    change their time: only the host's speed can."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(count):
            SLICES[kind]()
        return (time.perf_counter() - t0) / count
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], object], kind: str) -> Tuple[object, float, float]:
    """Call ``fn`` once; return its result, the wall seconds it took with the
    sampling slices taken out, and those seconds at the reference speed."""
    samples: List[Tuple[float, float, float]] = []   # (start, slice, handler) seconds

    def on_timer(signum, frame):
        global _sampled_s
        h0 = time.perf_counter()
        one = _slice_seconds(kind, 1)
        spent = time.perf_counter() - h0
        _sampled_s += spent
        samples.append((h0, one, spent))

    before = _slice_seconds(kind, PROBE_SLICES)
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = _slice_seconds(kind, PROBE_SLICES)
    # a slice that starts after t1 ran outside the timed region
    inside = [(one, spent) for h0, one, spent in samples if h0 < t1]
    wall = t1 - t0 - sum(spent for _, spent in inside)
    if len(inside) >= MIN_SAMPLES:
        slice_s = statistics.fmean(one for one, _ in inside)
    else:
        slice_s = (before + after) / 2
    return out, wall, wall * REFERENCE_SLICE_S / slice_s
