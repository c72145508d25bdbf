"""Siteswap parsing, validation, and exhaustive pattern counting.

A siteswap is the throw sequence of a closed walk in the juggling-state
digraph.  Throws are written one character each: digits 0-9, letters a-z
for 10-35.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidPattern, ParseError, check_budget
from .states import JugglingState, throw_state

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Siteswap:
    throws: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.throws:
            raise ValueError("siteswap must be nonempty")
        if any(t < 0 for t in self.throws):
            raise ValueError("throws must be naturals")

    def __str__(self) -> str:
        return "".join(_ALPHABET[t] for t in self.throws)


@dataclass(frozen=True)
class PatternInfo:
    """Validation result: ball count and the cyclic state walk."""

    balls: int
    states: tuple[JugglingState, ...]  # state before each throw, in order


def parse_siteswap(text: str) -> Siteswap:
    if not text:
        raise ParseError("empty siteswap")
    throws = []
    for ch in text:
        idx = _ALPHABET.find(ch)
        if idx < 0:
            raise ParseError(f"bad character {ch!r} in siteswap {text!r}")
        throws.append(idx)
    return Siteswap(tuple(throws))


def _landing_collision(throws: tuple[int, ...]) -> bool:
    n = len(throws)
    return len({(i + t) % n for i, t in enumerate(throws)}) < n


def validate_siteswap(sw: Siteswap) -> PatternInfo:
    """Check validity and return the induced state walk.

    Valid iff the landing beats i + t_i are pairwise distinct mod the
    period n; nothing else can then fail:
      * the residues (i + t_i) mod n are 0..n-1, so sum(t) is 0 mod n;
      * the landing map m -> m + t_(m mod n) is a bijection of Z (two beats
        landing together agree mod n, hence throw alike), so the balls in
        the air before beat 0, thrown at m = r - n, r - 2n, ... with
        m + t_r >= 0, land on distinct beats, and there are
        sum_r floor((r + t_r) / n) = sum(t) / n of them;
      * one ball is due at each beat that throws t > 0 (the one landing
        there) and none at a 0 (its beat lands on itself), and none where a
        throw lands, so every throw is legal and the walk closes after n.
    """
    throws = sw.throws
    n = len(throws)
    if _landing_collision(throws):
        raise InvalidPattern(f"{sw}: two throws land on the same beat")

    # State before beat 0: balls thrown on past beats m < 0 still airborne,
    # landing at m + t_{m mod n} >= 0, each on its own beat (see above).
    # Only the last max(throws) beats matter.
    landings = [m + throws[m % n] for m in range(-max(throws), 0)]
    walk = [JugglingState(tuple(sorted(p for p in landings if p >= 0)))]
    for t in throws[:-1]:
        walk.append(throw_state(walk[-1], t))
    return PatternInfo(balls=sum(throws) // n, states=tuple(walk))


def is_valid(sw: Siteswap) -> bool:
    try:
        validate_siteswap(sw)
        return True
    except InvalidPattern:
        return False


def count_patterns(length: int, max_balls: int) -> int:
    """Count throw sequences of the given length that form a pattern with
    at most `max_balls` balls, by brute force over throws in [0, n*b].

    The count always comes out to (max_balls + 1) ** length; the
    enumeration is the independent check of that formula.  Sequences are
    counted linearly, not up to cyclic rotation.  ResourceLimit when the
    (n*b + 1)^n sequences exceed the enumeration budget.
    """
    if length < 1 or max_balls < 0:
        raise ValueError("need length >= 1 and max_balls >= 0")
    top = length * max_balls
    check_budget((top + 1) ** length, "sequence")
    count = 0
    for throws in itertools.product(range(top + 1), repeat=length):
        if sum(throws) > length * max_balls:
            continue
        if sum(throws) % length != 0:
            continue
        if not _landing_collision(throws):
            count += 1
    return count
