"""Host speed, read next to every run process so that times can be given at
one reference speed.

The 2-vCPU machine the benchmark was defined on changes speed from second to
second, by up to 1.8x, and the mix of its fast and slow spells drifts over
minutes.  Most likely its neighbours on the host compete for a shared core,
cache and memory.  A run-process time then depends on when it ran more than
on the code: two sets of ten 25 s runs of the same code spread by up to 33%
of their median.  The two vCPUs change speed independently (timings taken
on both at once correlate at 0.28), so the parent pins itself, and with it
every run process, to one vCPU, and times the kernel there.

``Speed.time`` times a fixed kernel of four parts, each about 10 ms: random
byte reads from an 8 MiB buffer, a pure-Python arithmetic loop, Python
function calls, and numpy vector arithmetic.  It returns their geometric
mean.  The kinds of contention slow the parts by different factors, and
muspec, which interprets expressions point by point and scans with numpy,
is slowed by a mix of them.  No single part tracked muspec in every spell;
the mean of the four did best.  The parent process times the kernel just
before and just after each run process, and scales that process's times by
``REF_S`` over the mean of the two readings: the result is the time the run
would have taken with the kernel at ``REF_S``.  The kernel is the
benchmark's own code, so a change to muspec cannot move it.
"""

from __future__ import annotations

import math
import random
import time
from array import array

import numpy

BUFFER_BYTES = 8 << 20
READS = 60_000
LOOPS = 60_000
CALLS = 120_000
VECTOR = 200_000
VECTOR_PASSES = 3
# A fixed constant: about the kernel's time on that machine in its usual state.
REF_S = 0.011


def _add(x: float, y: float) -> float:
    return x * y + 1.0


class Speed:
    def __init__(self):
        rng = random.Random(0)
        self._buf = bytearray(rng.randbytes(BUFFER_BYTES))
        self._idx = array("l", (rng.randrange(BUFFER_BYTES) for _ in range(READS)))
        self._vec = numpy.linspace(0.0, 100.0, VECTOR)
        self.time()  # fault the buffers in

    def _reads(self):
        buf, total = self._buf, 0
        for i in self._idx:
            total += buf[i]

    @staticmethod
    def _loop():
        total = 0.0
        for i in range(LOOPS):
            total += (i * 0.5) % 7.3

    @staticmethod
    def _calls():
        total = 0.0
        for _ in range(CALLS):
            total = _add(total, 0.5)

    def _vector(self):
        for _ in range(VECTOR_PASSES):
            numpy.exp(numpy.sin(self._vec)).sum()

    def time(self) -> float:
        """Geometric mean of the seconds each part of the kernel takes now."""
        log_sum = 0.0
        parts = (self._reads, self._loop, self._calls, self._vector)
        for part in parts:
            start = time.perf_counter()
            part()
            log_sum += math.log(time.perf_counter() - start)
        return math.exp(log_sum / len(parts))


def scale(before: float, after: float) -> float:
    """Factor from a run's measured times to times at the reference speed."""
    return REF_S / ((before + after) / 2)
