"""A gauge of the machine's speed, read between ops.

On a shared host the CPU runs the same code up to twice as slowly in some
stretches as in others (cache and core contention from other tenants; the
process is not descheduled, so CPU time grows too).  Those stretches last
seconds to minutes and would make two runs of the same code differ by more
than any bound worth having.

The gauge times a fixed pure-Python kernel that makes no call into cfcalc
(frozensets of vertices, dict counts, a sort: the kind of work cfcalc
does) with the garbage collector off, before the first op, after the
last and every EVERY_S CPU seconds of ops in between.  A reading is the
median of up to five timings, as many as keep the gauge near 3% of the
ops' time.  An op is rescaled by NOMINAL_S over the median of the
readings around it (Gauge.WINDOW_S): its time at the speed at which the
kernel takes NOMINAL_S.  A change to cfcalc moves the op times and
leaves the kernel alone, so the rescaled times show it in full; a change
of the machine's speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
from array import array
from time import process_time

# integers, whose hashes are the same in every process; with strings the
# kernel's speed would change with the process's hash seed
VERTICES = tuple(range(18))
ROUNDS = 8
# CPU seconds of ROUNDS kernels at a typical speed of the 2-vCPU x86 box
# the workloads' nominal rates were taken on
NOMINAL_S = 0.014


def _kernel() -> int:
    faces: dict[frozenset, int] = {}
    for tri in itertools.combinations(VERTICES, 3):
        s = frozenset(tri)
        for v in tri:
            f = s - {v}
            faces[f] = faces.get(f, 0) + 1
    return sum(sorted(faces.values()))


def timing() -> float:
    """CPU seconds of ROUNDS kernels, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        for _ in range(ROUNDS):
            _kernel()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


def reading(timings: int = 1) -> float:
    return statistics.median(timing() for _ in range(timings))


class Gauge:
    """Readings taken between ops; rescales each op by the readings near it."""

    EVERY_S = 0.3
    # an op is rescaled by the median of the readings taken within this many
    # CPU seconds of ops before or after it: wide enough to smooth a single
    # reading's noise, narrow beside the seconds a change of speed lasts
    WINDOW_S = 0.6

    def __init__(self) -> None:
        self.readings = [reading(3)]
        self.positions = [0.0]  # CPU seconds of ops before each reading
        self.starts = array("d")  # CPU seconds of ops before each op
        self._clock = 0.0
        self._since = 0.0

    def after_op(self, seconds: float) -> None:
        self.starts.append(self._clock)
        self._clock += seconds
        self._since += seconds
        if self._since >= self.EVERY_S:
            self.close()

    def close(self) -> None:
        """Take a reading now, of as many timings as keep the gauge near 3%."""
        timings = max(1, min(5, round(0.03 * self._since / NOMINAL_S)))
        self.readings.append(reading(timings))
        self.positions.append(self._clock)
        self._since = 0.0

    def rescale(self, times: list[float]) -> list[float]:
        """`times[j]` (of op j) at the nominal speed; call `close` first."""
        out = []
        for t, start in zip(times, self.starts):
            lo = bisect.bisect_left(self.positions, start - self.WINDOW_S)
            hi = bisect.bisect_right(self.positions, start + t + self.WINDOW_S)
            out.append(t * NOMINAL_S / statistics.median(self.readings[lo:hi]))
        return out

    def speed(self) -> float:
        """Median speed of the run relative to nominal (2.0: twice as fast)."""
        return NOMINAL_S / statistics.median(self.readings)


def rescaled(fn, *args):
    """Run fn(*args) between two readings: (result, CPU seconds at nominal speed)."""
    before = reading(3)
    start = process_time()
    result = fn(*args)
    elapsed = process_time() - start
    after = reading(3)
    return result, elapsed * NOMINAL_S / ((before + after) / 2.0)
