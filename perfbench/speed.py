"""A machine-speed meter, so that timings are steady on a shared host.

On a few cores of a shared virtual machine the processor's speed drifts by
20-30% over seconds to minutes, and a 30 s run cannot average that out: one
seed, run eight times for 10 s, ranged from 403 to 499 ops/s.  The
meter times a fixed pure-Python reference task -- tuples, dicts, sets, small
integers and sorting, like madic's own work, but no madic code -- between
operations, about every REF_INTERVAL_S of wall time, outside every
operation's timed region.

An operation's time is scaled by NOMINAL_REF_S / (the reference time around
it), so a timing reads as it would on a machine where the reference takes
exactly NOMINAL_REF_S.  A faster madic still reads faster one for one; a
slower host phase no longer does.  Each reference sample is noisy, so the
scale uses the median of the samples within REF_WINDOW of it on each side,
which spans about two seconds and follows the drift.  run.py prints the
unscaled figures beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
from array import array
from time import perf_counter

NOMINAL_REF_S = 0.010
REF_INTERVAL_S = 0.2
REF_WINDOW = 5


def reference_task() -> int:
    """Fixed work, the same in every run and every commit."""
    rng = random.Random(12345)
    acc = 0
    for _ in range(30):
        xs = [tuple(rng.randrange(5) for _ in range(6)) for _ in range(40)]
        counts: dict = {}
        for t in xs:
            counts[t] = counts.get(t, 0) + 1
        rotations = {min(t[i:] + t[:i] for i in range(6)) for t in xs}
        acc += len(sorted(rotations)) + sum(counts.values())
    return acc


class SpeedMeter:
    """Reference timings taken between operations.  `segment` is the index
    of the next sample to be taken: an operation recorded with segment k ran
    between samples k-1 and k."""

    def __init__(self) -> None:
        self.ref_s = array("d")
        self.last = perf_counter()

    @property
    def segment(self) -> int:
        return len(self.ref_s)

    def warm_up(self) -> None:
        for _ in range(3):
            reference_task()
        self.last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        reference_task()
        self.ref_s.append(perf_counter() - t0)
        self.last = perf_counter()

    def tick(self) -> None:
        """Between operations: take a sample when one is due."""
        if perf_counter() - self.last >= REF_INTERVAL_S:
            self.sample()


def scale_factors(ref_s: list[float]) -> list[float]:
    """NOMINAL_REF_S over the smoothed reference time, per segment."""
    out = []
    for k in range(len(ref_s)):
        window = ref_s[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]
        out.append(NOMINAL_REF_S / statistics.median(window))
    return out
