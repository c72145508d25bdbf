"""A fixed piece of pure-Python work that measures how fast the machine
runs at this moment.

On a shared host the same code can run 20-50% slower for seconds to
minutes at a time, while a neighbour loads the core.  `run.py` times this
kernel between rounds and divides each round's time by the mean of the
calibrations just before and just after it, so a slow spell slows both
and cancels.  The kernel touches none of jugglechain, so a change to the
library does not move it.  Its mix (about three quarters seeded random
draws summed through a generator, one quarter tuple keys in a dict) is the
one whose slow spells tracked those of all three workloads most closely,
on a 2-vCPU shared Xeon, among mixes that also tried exact fractions and
a plain integer loop; with it the median round time of 350-round stretches
of a run varied by 3% or less where the wall clock varied by 30-65%.

Times are reported in reference milliseconds: the milliseconds a round
would take on a machine where one calibration takes `REF_MS`.
"""
from __future__ import annotations

import random

REF_MS = 5.0
CHECKSUM = 16363


def kernel() -> int:
    """The fixed work; returns a checksum (the same on every call)."""
    draws = random.Random(5)
    heads = sum(draws.random() < 0.3 for _ in range(45000))
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89, (i * 31) % 1009)
        table[key] = table.get(key, ()) + (i,)
    return heads + len(table)


def scale(cal_ns: list[int]) -> list[float]:
    """For round i, played between calibrations i and i + 1: REF_MS over
    the mean of the two, in ms."""
    return [REF_MS * 2e6 / (a + b) for a, b in zip(cal_ns, cal_ns[1:])]
