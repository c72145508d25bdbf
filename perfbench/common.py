"""What every workload shares: check accounting, flip sources, dealing
inputs to rounds, and total-variation checks against an exact law."""
from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from jugglechain.rng import ChainRng

from spans import NULL_SPAN, CountingFlips, Tracer

# Over 1500 rounds of `sample`, no chain's TV distance exceeded 1.7x the
# iid scale in `tv_bound` (the Markov samples are correlated, so it may
# exceed 1x); a coin flipping with q' = (q + 1) / 2 failed the 3x bound in
# each of 40 rounds, for every chain.
TV_SAFETY = 3.0


class Run:
    """One process's checks, gauges and (when tracing) spans."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.tracing = False
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}

    def span(self, name: str, units: int = 0):
        return self.tracer.span(name, units) if self.tracing else NULL_SPAN

    def flips(self, seed: int):
        source = ChainRng(seed)
        return CountingFlips(source, self.tracer) if self.tracing else source

    def check(self, layer: str, ok: bool) -> None:
        self.attempted[layer] += 1
        if not ok:
            self.failed[layer] += 1

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(value, self.gauges.get(name, value))


class Deck:
    """Items dealt a fixed number per round, in passes that each deal every
    item once, so a run of many rounds uses every item about equally often
    whatever the seed.  Each pass has its own seeded order: with one order
    cycled, decks whose sizes share a factor would put the same items in
    the same round on every pass, and which costly items met would depend
    on the seed."""

    def __init__(self, items: Iterable, rng: random.Random) -> None:
        self.items = list(items)
        self.seed = rng.getrandbits(63)
        self.orders: dict[int, list[int]] = {}

    def order(self, n_pass: int) -> list[int]:
        if n_pass not in self.orders:
            order = list(range(len(self.items)))
            random.Random(f"{self.seed}/{n_pass}").shuffle(order)
            self.orders[n_pass] = order
        return self.orders[n_pass]

    def deal(self, round_index: int, count: int) -> list:
        n = len(self.items)
        dealt = []
        for i in range(round_index * count, (round_index + 1) * count):
            dealt.append(self.items[self.order(i // n)[i % n]])
        return dealt


def round_seed(seed: int, round_index: int) -> int:
    return random.Random(f"{seed}/{round_index}").getrandbits(63)


def level_law(counts: Sequence[int], weight_at, q: Fraction) -> list[Fraction]:
    """Exact stationary law of the inversion count: level k holds counts[k]
    states, each of weight `weight_at` * q^-k.  The last bin is the exact
    remaining mass above the highest level."""
    law = [weight_at * c * q**-k for k, c in enumerate(counts)]
    law.append(1 - sum(law))
    return law


def level_tv(levels: Counter, samples: int, law: Sequence[Fraction]) -> float:
    """TV distance between sampled inversion counts and `law` (levels past
    the last exact level fall in the remainder bin)."""
    top = len(law) - 1
    binned = Counter()
    for level, count in levels.items():
        binned[min(level, top)] += count
    diff = sum(
        (abs(Fraction(binned[k], samples) - p) for k, p in enumerate(law)),
        Fraction(0),
    )
    return float(diff / 2)


def tv_bound(law: Iterable[Fraction], samples: int) -> float:
    """TV_SAFETY times the expected-TV scale of `samples` iid draws from
    `law`, half the sum of sqrt(p / n)."""
    return TV_SAFETY * 0.5 * sum(math.sqrt(float(p) / samples) for p in law)
