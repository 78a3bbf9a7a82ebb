"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's host is shared: the speed of identical pure-Python work
changes by up to about 1.5x within a minute, for reasons outside the
process.  The worker therefore runs this loop after every item, for about
`SHARE` of the item's time, so its samples are spread over the pass like the
items are.  The loop's mean time per repetition, over the reference value
`REFERENCE_REP_S`, is the pass's slowdown; run.py divides the pass's times by
it.  The loop does not touch pfaffkit, so a change to pfaffkit cannot move
it, and its own time is left out of the item timings.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

SHARE = 0.2
# Time of one repetition at the reference speed (the host's fast phase when
# the benchmark was defined); it only sets the scale of the reported times.
REFERENCE_REP_S = 0.0001


def _rep() -> int:
    """Fraction, int, tuple and dict work of the kind pfaffkit does."""
    acc = Fraction(0)
    terms: dict = {}
    for i in range(1, 25):
        acc += Fraction(i, i + 3)
        key = (i & 7, i % 5)
        terms[key] = terms.get(key, 0) + acc.numerator % 1009
    return sum(terms.values())


class Calibrator:
    def __init__(self, share: float = SHARE):
        self.share = share
        self.reps = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def after(self, busy_s: float):
        """Run repetitions for about `share * busy_s` seconds, at least one."""
        enabled = gc.isenabled()
        gc.disable()
        budget = self.share * busy_s
        c0 = time.process_time()
        t0 = time.perf_counter()
        n = 0
        while True:
            _rep()
            n += 1
            if time.perf_counter() - t0 >= budget:
                break
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        self.reps += n
        if enabled:
            gc.enable()

    def slowdown(self) -> float:
        """Mean wall time per repetition over the reference time."""
        return self.wall_s / self.reps / REFERENCE_REP_S
