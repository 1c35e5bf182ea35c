"""The host's current speed, read from a fixed reference kernel.

The benchmark runs on a few cores of a shared host, where the same code runs
up to about 1.6 times slower for tens of seconds at a time while other
tenants are busy.  Timings taken minutes apart then differ by more than a
change to the program would.  So the runner times every query and every
set-up with a ``Meter``.  The meter runs this kernel, which does not call
qhyp, in a burst right before and right after the timed call and, from a
timer signal, once every ``PERIOD`` seconds during it.  The kernel's time
inside the call is taken out of the call's time, and the rest is scaled by

    REFERENCE_S / mean(burst before, each kernel call during, burst after)

where a burst enters as one value, its mean time per call.  A timing then
reads in seconds at the host speed at which the kernel takes ``REFERENCE_S``.
A program that does the same work in less time still reads faster by the same
factor; what cancels is the common slow-down of the host.  Sampling during
the call matters for long calls: the host's speed at the two ends of a 25 s
call says little about its speed in between.

The kernel mixes the kinds of work qhyp does: interpreter-bound complex
arithmetic and heap operations (path relaxation, Dijkstra's bookkeeping), a
numpy distance field on a few hundred kilobytes (``delta_field`` on a grid),
many calls on small arrays (per-edge density evaluations), and random reads
from an 8 MB table, which slow down with the host's memory traffic as the
large-array layers do.
"""

import heapq
import signal
import time

import numpy as np

# Seconds one kernel call takes on an unloaded 2-core x86-64 sandbox
# (Python 3.11, numpy on one thread); the unit the scaled timings are in.
REFERENCE_S = 0.004
# Kernel calls in the bursts before and after a timed call: a single call is
# too short to average out the host's sub-second jitter.
BURST = 20
# Seconds between kernel calls during a timed call: about 4% of its time.
PERIOD = 0.1

_rng = np.random.default_rng(20201122)
_GRID = _rng.uniform(-3.0, 3.0, 20_000) + 1j * _rng.uniform(-3.0, 3.0, 20_000)
_PUNCTURES = np.array([0.0, 1.0, 1j, -1.5 + 0.5j])
_SMALL = [_rng.uniform(0.1, 2.0, 24) + 0j for _ in range(48)]
_TABLE = _rng.random(1 << 20)
_READS = _rng.integers(0, 1 << 20, 100_000)


def _kernel() -> float:
    acc = 0.0
    heap = []
    z = 0.3 + 0.2j
    for i in range(1500):
        z = 0.5 * z * z + 0.25j
        w = abs(z - 1.0) + abs(z)
        heapq.heappush(heap, (w, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    d = np.min(np.abs(_GRID[:, None] - _PUNCTURES[None, :]), axis=1)
    acc += float(np.sum(np.log1p(d) / (d + 1.0)))
    for a in _SMALL:
        r = np.abs(a - _PUNCTURES[0])
        acc += float(np.sum(np.sqrt(r * r + 1.0)))
    acc += float(_TABLE[_READS].sum())
    return acc


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def sample() -> float:
    """Mean seconds one kernel call takes now, over a burst of calls."""
    return sum(_timed_kernel() for _ in range(BURST)) / BURST


class Meter:
    """Times calls one after the other, each between two kernel bursts (the
    burst after one call is the burst before the next) and, when
    ``during`` is set, with kernel calls every ``PERIOD`` seconds inside it."""

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self.before = sample()
        self.raw = self.seconds = 0.0
        self.factor = 1.0

    def run(self, fn):
        """Call ``fn``; afterwards ``raw`` holds its seconds without the kernel
        calls made inside it, ``factor`` the scale to the reference speed and
        ``seconds`` their product.  Exceptions from ``fn`` propagate, with all
        three set."""
        inside = []

        def on_alarm(signum, frame):
            inside.append(_timed_kernel())

        if self.during:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.raw = time.perf_counter() - t0 - sum(inside)
            after = sample()
            mean = (self.before + after + sum(inside)) / (2 + len(inside))
            self.factor = REFERENCE_S / mean
            self.seconds = self.raw * self.factor
            self.before = after
