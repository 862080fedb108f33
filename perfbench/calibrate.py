"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

On a shared host the speed of one core drifts by a fifth or more within
tens of seconds, for the same work, so unscaled medians of forty-second
runs move by that much from run to run.  The benchmark therefore times a
fixed kernel (dict, set, attribute, call, integer-bit and random-draw work,
as the solver and the playouts do, but no ``lcsgame`` code) between ops,
about four times a second, and multiplies every end-to-end time by
``REFERENCE_S`` over the kernel's mean time in a window of a second around
it.  A reported time is thus the time the op would take on a machine on
which the kernel takes ``REFERENCE_S``: a change of the program moves it in
full, a change of the machine's speed mostly not.

The kernel is timed in the thread's own CPU time (``time.thread_time``), so
that time spent waiting for the interpreter lock or a core does not count as
a slower machine, and with the cyclic garbage collector paused, so that a
collection of the program's garbage does not either.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# The kernel's median CPU time on a 2-vCPU Xeon at 2.1 GHz with CPython
# 3.11.7; the unit of the scaled times.
REFERENCE_S = 0.012
# A timed interval is scaled by the mean kernel time of the samples taken
# within this many seconds of it (at least MIN_SAMPLES, the nearest ones):
# the speed changes within seconds, so a wider window tracks it worse.
WINDOW_S = 1.0
MIN_SAMPLES = 3
# Between ops, a sample is taken once this much time has passed since the
# last one.
INTERVAL_S = 0.25


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


def _tables() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(9000):
        table[i & 511] = i
        acc = _step(acc, table.get((i * 7) & 511, 0))
    return acc


def _objects() -> int:
    acc = 0
    seen: set[int] = set()
    for i in range(9000):
        p = _Point(i, i & 255)
        seen.add((p.x * 2654435761) & 0xFFFF)
        acc ^= p.x & p.y
    return acc + len(seen)


def _bits() -> int:
    acc = 0
    mask = (1 << 40) - 1
    for i in range(9000):
        x = (i * 0x9E3779B1) & mask
        acc += (x & -x).bit_length() + x.bit_count()
    return acc


def _draws() -> int:
    rng = random.Random(7)
    acc = 0
    for _ in range(600):
        free = [v for v in range(24) if not (acc >> v) & 1]
        pick = free[rng.randrange(len(free))] if free else 0
        acc = (acc | (1 << pick)) if len(free) > 4 else 0
        if isinstance(pick, int):
            acc ^= len(free)
    return acc


def kernel() -> int:
    """Fixed work, the same on every call; returns a checksum."""
    return _tables() + _objects() + _bits() + _draws()


class Calibrator:
    """Kernel samples over a run, and the speed scale of any interval."""

    def __init__(self):
        self.mids: list[float] = []
        self.secs: list[float] = []
        self._last = -1e9

    def sample(self) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            secs, t1 = time.thread_time() - c0, time.perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self.mids.append((t0 + t1) / 2)
        self.secs.append(secs)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def samples(self) -> int:
        return len(self.secs)

    def median_s(self) -> float:
        return statistics.median(self.secs)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] (perf_counter
        seconds) into reference-speed time."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            by_distance = sorted(range(len(self.mids)),
                                 key=lambda i: abs(self.mids[i] - (t0 + t1) / 2))
            window = [self.secs[i] for i in by_distance[:MIN_SAMPLES]]
        else:
            window = self.secs[lo:hi]
        return REFERENCE_S / statistics.fmean(window)
