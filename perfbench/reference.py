"""The host's current speed, read from a fixed pure-Python computation.

On a shared virtual machine the same pass can run 15-40% slower for seconds
or minutes at a time, and CPU time drifts with it, so raw times of runs made
minutes apart differ by more than the changes the benchmark has to show.
The benchmark therefore runs a short slice of reference work after every
operation and scales the operation's time by the speed measured in the
slices on both sides of it: the time the operation would have taken at
`NOMINAL_RATE`.  On a quiet machine that is close to the raw time; under
load it stays put while the raw time swings.

The reference work imports nothing from the package, so no change to the
program moves it, and it keeps a working set of a few hundred bytes, so it
does not push the program's data out of the caches between operations.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Units per second of `_unit`, run in the benchmark's slices, on a quiet
# 2-vCPU Xeon guest under Python 3.11, so that normalized times are close to
# raw times there.  Only a scale: normalized time = raw time * rate / NOMINAL_RATE.
NOMINAL_RATE = 25000.0
# Seconds of reference work per second of measured operation time.
SHARE = 0.1
FIRST_UNITS = 200  # the slice before the first operation


def _unit():
    # rational arithmetic, tuple-keyed dict updates and a sort: the
    # interpreter work the library's layers are made of
    acc = {}
    total = Fraction(0)
    for i in range(1, 13):
        total += Fraction(i, i + 3)
        key = (i % 7, i % 5, i)
        acc[key] = acc.get(key, 0) + i * i
    return sorted(acc), total


def run_slice(units):
    """(units, seconds) of one slice of reference work.

    The collector is off during the slice: the slice frees everything it
    makes by reference counting, so it neither pays for a collection of the
    program's objects nor moves the point where the program's next one falls.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(units):
            _unit()
        return units, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Reference slices between the intervals being measured."""

    def __init__(self):
        self.first = self.before = run_slice(FIRST_UNITS)
        self.units = self.before[0]
        self.seconds = self.before[1]

    def scale(self, interval_s):
        """Run the slice that follows an interval of `interval_s` raw seconds
        and return the factor that turns that interval's raw seconds into
        seconds at the nominal speed."""
        after = run_slice(max(1, round(SHARE * interval_s * NOMINAL_RATE)))
        factor = self.around(self.before, after)
        self.before = after
        self.units += after[0]
        self.seconds += after[1]
        return factor

    @staticmethod
    def around(before, after):
        """The factor of an interval between two (units, seconds) slices."""
        return (before[0] + after[0]) / (before[1] + after[1]) / NOMINAL_RATE

    def rate(self):
        """Mean units per second over every slice so far."""
        return self.units / self.seconds
