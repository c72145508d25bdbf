"""Deterministic coin-flip streams for the backward chains.

Bernoulli draws compare an integer uniform variate against the exact
numerator/denominator of the probability, so a rational heads probability
is realized exactly (no float rounding in the distributional logic).
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence


class ChainRng:
    """Seeded source of exact-Bernoulli coin flips."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.seed = seed

    def heads(self, probability: Fraction) -> bool:
        p = probability if isinstance(probability, Fraction) else Fraction(probability)
        n, d = p.numerator, p.denominator  # d > 0, so 0 <= p <= 1 iff 0 <= n <= d
        if not 0 <= n <= d:
            raise ValueError("probability out of range")
        return self._rng.randrange(d) < n


class ScriptedRng:
    """Replays a fixed flip sequence (True = heads); for worked examples."""

    def __init__(self, flips: Sequence[bool]):
        self._flips = list(flips)
        self._next = 0

    def heads(self, probability: Fraction) -> bool:
        if self._next >= len(self._flips):
            raise IndexError("scripted flips exhausted")
        value = self._flips[self._next]
        self._next += 1
        return value

    @property
    def used(self) -> int:
        return self._next
