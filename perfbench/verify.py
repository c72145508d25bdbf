"""`verify`: exact balance checks and identities, no coins.

`flagchain`'s bracketed balance check dominates (about 10-15 ms per
state against about 0.1 ms for a plain state), so this is where a faster
flag stationarity check shows; `sample` bypasses it.  Each round draws q
from a fixed list of exact rationals >= 2 and runs:

* `verify_stationarity` on every plain state with b <= 3 and at most 8
  inversions;
* `verify_flag_stationarity` on a few states of labels 1,2,3 and of
  labels 1,1,2 (at most 6 inversions), with the CLI's default drop cap
  (cells + balls + 20) and the default tolerance;
* `composed_backward_dist == flag_backward_dist` on labels 1,2,3;
* one identity from a slice of acceptance criterion 9.

Every verdict is the library's own exact one.
"""
from __future__ import annotations

import random
from fractions import Fraction

from jugglechain.chain import CoinConfig, verify_stationarity
from jugglechain.errors import CapTooSmall
from jugglechain.flagchain import flag_backward_dist, verify_flag_stationarity
from jugglechain.hatted import composed_backward_dist
from jugglechain.series import (
    flag_series,
    flag_series_enumerated,
    grassmannian_series_closed,
    grassmannian_series_enumerated,
    perm_inversion_series,
    perm_series_closed,
    state_partition_series,
    state_partition_series_enumerated,
)
from jugglechain.states import flag_states_up_to_inversions, states_up_to_inversions

from common import Deck, Run

Q_CHOICES = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4))
PLAIN_BALLS, PLAIN_MAX_INVERSIONS = (1, 2, 3), 8
FLAG_LABELS = {"123": (1, 2, 3), "112": (1, 1, 2)}
FLAG_MAX_INVERSIONS = 6
FLAG_PER_ROUND = 3  # per label multiset
COMPOSED_LABELS, COMPOSED_PER_ROUND = (1, 2, 3), 12
SERIES_DEGREE = 24


def _series_slice():
    """(closed form, enumeration) pairs from acceptance criterion 9."""
    d = SERIES_DEGREE
    pairs = []
    for b in (1, 2, 3, 4):
        pairs.append((lambda b=b: state_partition_series(b, d),
                      lambda b=b: state_partition_series_enumerated(b, d)))
    for b in (1, 2, 3):
        pairs.append((lambda b=b: flag_series(b, d),
                      lambda b=b: flag_series_enumerated(b, d)))
    for n in range(1, 7):
        pairs.append((lambda n=n: perm_series_closed(n, d),
                      lambda n=n: perm_inversion_series(n, d)))
    for h in range(1, 7):
        for j in range(h + 1):
            pairs.append((lambda j=j, h=h: grassmannian_series_closed(j, h, d),
                          lambda j=j, h=h: grassmannian_series_enumerated(j, h, d)))
    return pairs


def cost_tiers(states, count: int, rng: random.Random) -> list[Deck]:
    """Split states into `count` decks from cheap to dear to check, so a
    round that deals one state from each costs about the same as any
    other.  A leading empty is the exact one-successor case; otherwise
    longer words have more successors to sum."""
    ranked = sorted(states, key=lambda s: (s.cells[0] is not None, len(s.cells), str(s)))
    n = len(ranked)
    return [Deck(ranked[i * n // count:(i + 1) * n // count], rng) for i in range(count)]


class Workload:
    def __init__(self, seed: int, run: Run) -> None:
        rng = random.Random(seed)
        with run.span("states.states_up_to_inversions"):
            self.plain = [
                s
                for b in PLAIN_BALLS
                for s in states_up_to_inversions(b, PLAIN_MAX_INVERSIONS)
            ]
        self.q = Deck(Q_CHOICES, rng)
        self.flag = {}
        with run.span("states.flag_states_up_to_inversions"):
            for tag, labels in FLAG_LABELS.items():
                states = flag_states_up_to_inversions(labels, FLAG_MAX_INVERSIONS)
                self.flag[tag] = cost_tiers(states, FLAG_PER_ROUND, rng)
            composed = flag_states_up_to_inversions(
                COMPOSED_LABELS, FLAG_MAX_INVERSIONS
            )
            self.composed = Deck(composed, rng)
        self.series = Deck(_series_slice(), rng)

    def round(self, index: int, run: Run) -> int:
        """One round; returns the checks it made."""
        checks = 0
        coin = CoinConfig(self.q.deal(index, 1)[0])
        with run.span("chain.verify_stationarity", len(self.plain)):
            verdicts = [verify_stationarity(s, coin) for s in self.plain]
        for ok in verdicts:
            run.check("chain", ok)
        checks += len(verdicts)

        for tag, labels in FLAG_LABELS.items():
            for tier in self.flag[tag]:
                state = tier.deal(index, 1)[0]
                drop_cap = len(state.cells) + len(labels) + 20
                try:
                    with run.span(f"flagchain.verify_flag_stationarity.{tag}", 1):
                        bracket = verify_flag_stationarity(state, coin, drop_cap)
                except CapTooSmall:
                    run.check("flagchain", False)
                else:
                    run.check("flagchain", bracket.ok)
                    run.gauge_max(
                        "flagchain.bracket.max_tail_over_weight",
                        float(bracket.tail_bound / bracket.expected),
                    )
                checks += 1

        for state in self.composed.deal(index, COMPOSED_PER_ROUND):
            with run.span("hatted.composed_backward_dist", 1):
                composed = composed_backward_dist(state, coin)
            with run.span("flagchain.flag_backward_dist", 1):
                direct = flag_backward_dist(state, coin)
            run.check("hatted", composed == direct)
            checks += 1

        closed, enumerated = self.series.deal(index, 1)[0]
        with run.span("series.closed", 1):
            lhs = closed()
        with run.span("series.enumerated", 1):
            rhs = enumerated()
        run.check("series", lhs == rhs)
        return checks + 1

    def finish(self, run: Run) -> None:
        pass
