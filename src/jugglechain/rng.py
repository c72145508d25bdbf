"""Deterministic coin-flip streams for the backward chains.

Bernoulli draws compare an integer uniform variate against the exact
numerator/denominator of the probability, so a rational heads probability
is realized exactly (no float rounding in the distributional logic).  The
variate below the denominator d is drawn by the k-bit rejection loop,
k = d.bit_length(): draw k random bits until they fall below d.  That is
the loop `random.Random.randrange(d)` runs, so every draw equals
`randrange(d)` bit for bit.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

_NOTHING = object()  # remembered before the first draw; no caller passes it


class ChainRng:
    """Seeded source of exact-Bernoulli coin flips."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._bits = self._rng.getrandbits
        self.seed = seed
        # the last probability object drawn with and its checked (n, d, k)
        self._last = _NOTHING
        self._ndk = (0, 1, 1)

    def heads(self, probability: Fraction) -> bool:
        """Heads with probability n/d: draw k = d.bit_length() bits until
        the result r is below d (as `randrange(d)` does, consuming the same
        bits), and return r < n.  Every chain passes one cached
        `coin.heads_probability`, so (n, d, k) are remembered for the last
        probability object, by identity; any other is converted and
        range-checked first."""
        if probability is self._last:
            n, d, k = self._ndk
        else:
            n, d, k = self._remember(probability)
        bits = self._bits
        r = bits(k)
        while r >= d:
            r = bits(k)
        return r < n

    def _remember(self, probability) -> tuple[int, int, int]:
        p = probability if isinstance(probability, Fraction) else Fraction(probability)
        n, d = p.numerator, p.denominator  # d > 0, so 0 <= p <= 1 iff 0 <= n <= d
        if not 0 <= n <= d:
            raise ValueError("probability out of range")
        # holding the object keeps its identity from being reused
        self._ndk = (n, d, d.bit_length())
        self._last = probability
        return self._ndk


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
