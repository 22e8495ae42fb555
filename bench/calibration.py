"""Machine-speed calibration for wall-clock samples.

The benchmark shares its processor with other tenants, and their load
slows pure-Python code by up to about 1.8x for seconds to minutes at a
time.  A fixed reference kernel, timed between requests, measures that
slowdown where it happens; each sample is scaled by NOMINAL_S over the
median kernel time within WINDOW_S of the sample.  Reported times are
therefore milliseconds at the reference speed (the kernel taking
NOMINAL_S), and the raw wall-clock figures are kept beside them.

The kernel imitates the library's hot path (small __slots__ objects with
tuple coordinates, modular products and sums, truth tests) but does not
call the library, so no change to `src/` can move it.
"""

from __future__ import annotations

import array
import bisect
import statistics
import time

# the reference speed: about the median kernel time on a shared 2-vCPU
# Intel Xeon VM under CPython 3.11, so scaled figures read as milliseconds
# there
NOMINAL_S = 0.001
WINDOW_S = 0.3
MIN_GAP_S = 0.05


class _E:
    __slots__ = ("tower", "c")

    def __init__(self, tower, c):
        self.tower = tower
        self.c = c

    def __mul__(self, o):
        a, b = self.c, o.c
        return _E(self.tower, ((a[0] * b[0] + 3 * a[1] * b[1]) % 65521, (a[0] * b[1] + a[1] * b[0]) % 65521))

    def __add__(self, o):
        a, b = self.c, o.c
        return _E(self.tower, ((a[0] + b[0]) % 65521, (a[1] + b[1]) % 65521))

    def __bool__(self):
        return any(self.c)


_ROW = [_E(None, (i, i * 7 % 13)) for i in range(1, 9)]


def kernel():
    acc = _E(None, (0, 0))
    for _ in range(100):
        for a, b in zip(_ROW, reversed(_ROW)):
            if a and b:
                acc = acc + a * b
    return acc


class SpeedProbe:
    """Kernel timings through a run, and the scale they imply at any moment."""

    def __init__(self):
        self.at = array.array("d")
        self.took = array.array("d")
        self.spent = 0.0

    def tick(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def maybe_tick(self):
        if not self.at or time.perf_counter() - self.at[-1] >= MIN_GAP_S:
            self.tick()

    def scale(self, t0, t1=None):
        """NOMINAL_S over the median kernel time within WINDOW_S of the
        interval [t0, t1] (of moment t0 when t1 is None); at least the
        nearest ticks on either side count."""
        t1 = t0 if t1 is None else t1
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 3:
            lo = max(0, min(lo, bisect.bisect_left(self.at, t0) - 2))
            hi = min(len(self.at), max(hi, bisect.bisect_right(self.at, t1) + 2))
        return NOMINAL_S / statistics.median(self.took[lo:hi])
