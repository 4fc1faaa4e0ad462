"""A fixed slice of plain-Python work that measures the machine's speed.

A shared machine changes speed by up to 2x within seconds.  The worker
times one slice next to each stretch of work it measures, and the runner
scales that stretch by the slice's time (``run.py``).  The slice uses the
standard library only, so no change to colourgl changes its time.
"""

from __future__ import annotations

import gc
import math
import time

CALIBRATION_STEPS = 8000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def times(self, other):
        return _Pair(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def calibrate():
    """Seconds taken by one fixed slice of plain-Python work of the kinds
    colourgl does (small objects, tuples, dicts, integer arithmetic, gcd,
    sorting), about 10 ms on a quiet machine.  It uses the standard library
    only, so no change to colourgl changes it; the cyclic collector is off
    while it runs, so colourgl's heap does not either."""
    gc.disable()
    t0 = time.perf_counter()
    acc, x, unit = {}, 1, _Pair(1, 1)
    for i in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, i & 7)
        acc[key] = acc.get(key, 0) + x
        p = _Pair(x & 15, i & 15).times(unit)
        if math.gcd(p.a, p.b | 1) > 1:
            acc[key] -= 1
        sorted((x % 7, x % 11, x % 5, i & 3))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed
