"""The backward Markov chain on plain juggling states.

One step from a b-ball state: flip a coin with p(heads) = 1/q at most b
times, stopping at the first tails.  All heads: shift the state up one,
leaving a - in front.  Tails on flip i: move the i-th last x to the front
(remove it, shift everything else up one, occupy position 0).  The
outcomes are exactly the digraph predecessors of the state.

The stationary distribution assigns a state weight
prefactor * q^-inversions with prefactor = (1-q^-1)...(1-q^-b), and both
the transition law and stationarity are verified with exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Protocol

from .series import sn
from .states import JugglingState, inversions, states_up_to_inversions


class FlipSource(Protocol):
    def heads(self, probability: Fraction) -> bool: ...


@dataclass(frozen=True)
class CoinConfig:
    """An exact rational q > 1; the coin shows heads with probability 1/q."""

    q: Fraction

    def __post_init__(self) -> None:
        q = Fraction(self.q)
        object.__setattr__(self, "q", q)
        if q <= 1:
            raise ValueError("q must exceed 1")

    @cached_property
    def heads_probability(self) -> Fraction:
        # computed once per coin; not a field, so == and hash see q alone
        return 1 / self.q


@dataclass(frozen=True)
class TransitionDist:
    """A finite exact distribution over states."""

    entries: tuple[tuple[object, Fraction], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: str(e[0])))
        object.__setattr__(self, "entries", entries)
        states = [s for s, _ in entries]
        if len(set(map(str, states))) != len(states):
            raise ValueError("duplicate states in distribution")
        total = sum((p for _, p in entries), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p <= 0 for _, p in entries):
            raise ValueError("probabilities must be positive")

    def probability(self, state: object) -> Fraction:
        for s, p in self.entries:
            if s == state:
                return p
        return Fraction(0)

    def support(self) -> tuple[object, ...]:
        return tuple(s for s, _ in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)


def _plain_step(positions: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The move after k leading heads (0 <= k <= b) on sorted positions.

    k = b shifts every ball up one; otherwise the (k+1)-th last ball moves
    to position 0 and the others shift up one.
    """
    moved = len(positions) - 1 - k
    if moved < 0:
        return tuple([p + 1 for p in positions])
    rest = positions[:moved] + positions[moved + 1 :]
    return (0,) + tuple([p + 1 for p in rest])


def backward_step(
    state: JugglingState, coin: CoinConfig, rng: FlipSource
) -> JugglingState:
    """One sampled step."""
    b = state.balls
    p = coin.heads_probability
    k = 0
    while k < b and rng.heads(p):
        k += 1
    return JugglingState(_plain_step(state.positions, k))


class _FlipTree:
    """The flip source of `step_law`: replays a prefix of flips; past it,
    answers heads and queues the flips so far followed by tails.
    `num / den` is the probability of the flips answered so far."""

    def __init__(self, prefix: list[bool], pending: list[list[bool]]) -> None:
        self.flips, self.pending = prefix, pending
        self.next = 0
        self.num = self.den = 1

    def heads(self, probability: Fraction) -> bool:
        if self.next == len(self.flips):
            self.pending.append(self.flips + [False])
            self.flips.append(True)
        value = self.flips[self.next]
        self.next += 1
        n, d = probability.numerator, probability.denominator
        self.num *= n if value else d - n
        self.den *= d
        return value


def _flip_leaves(step, state, coin: CoinConfig):
    """Run a sampler `step(state, coin, rng)` once per flip sequence it can
    draw, yielding `(outcome, num, den)` with num / den the probability of
    that sequence.  Every sequence must end after finitely many flips, each
    with an exact rational probability."""
    pending: list[list[bool]] = [[]]
    while pending:
        flips = _FlipTree(pending.pop(), pending)
        out = step(state, coin, flips)
        yield out, flips.num, flips.den


def step_law(step, state, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law of a sampler `step(state, coin, rng)`: every
    outcome weighted by the total probability of the flip sequences that
    lead to it."""
    law: dict = {}
    for out, num, den in _flip_leaves(step, state, coin):
        law[out] = law.get(out, 0) + Fraction(num, den)
    return TransitionDist(tuple(law.items()))


def step_probability(step, state, coin: CoinConfig, target) -> Fraction:
    """`step_law(step, state, coin).probability(target)`, without building
    the law: the total probability of the flip sequences that lead to
    `target` (0 when none does)."""
    total = Fraction(0)
    for out, num, den in _flip_leaves(step, state, coin):
        if out == target:
            total += Fraction(num, den)
    return total


def backward_dist(state: JugglingState, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law: b+1 outcomes.

    k leading heads then tails (k < b) has probability (1 - 1/q) q^-k;
    all b heads has probability q^-b.
    """
    q = coin.q
    b = state.balls
    entries = []
    for k in range(b + 1):
        prob = (1 - 1 / q) * q**-k if k < b else q**-b
        entries.append((JugglingState(_plain_step(state.positions, k)), prob))
    return TransitionDist(tuple(entries))


def stationary_weight(state: JugglingState, coin: CoinConfig) -> Fraction:
    return sn(state.balls, coin.q) * coin.q ** -inversions(state)


def verify_stationarity(state: JugglingState, coin: CoinConfig) -> bool:
    """Exact balance check: the stationary weight of `state` must equal the
    weight flowing into it from its digraph successors in one step.

    A successor is `state` after a t-throw; its backward step recovers
    `state` by moving its j-th x when t lies strictly between the j-th and
    (j+1)-th x positions.  Each group j contributes a geometric sum over t
    with ratio 1/q, finite for j < b and an exact closed-form tail for
    j = b, so the infinite successor sum is evaluated exactly.
    """
    q = coin.q
    b = state.balls
    # every state with b balls shares the prefactor of its weight
    prefactor = sn(b, q)
    inv = inversions(state)
    pi = prefactor * q**-inv
    if not state.occupied(0):
        # Unique successor: the one-beat shift down; it recovers the state
        # via its all-heads branch.
        successor = JugglingState(tuple(p - 1 for p in state.positions))
        inflow = prefactor * q ** -inversions(successor) * q ** -b
        return inflow == pi

    # A successor after a t-throw has inversion count inversions(state)
    # + t - b, so pi(successor) = prefactor * q^-(inv + t - b); factor out
    # prefactor * q^(b - inv) and accumulate the geometric t-sums.
    lam = state.positions
    lhs = Fraction(0)
    for j in range(1, b + 1):
        lo = lam[j - 1]
        move_prob = (1 - 1 / q) * q ** (j - b)
        if j < b:
            hi = lam[j]
            if hi - lo < 2:
                continue
            # sum of q^-t over t in [lo+1, hi-1]
            geo = (q ** -(lo + 1) - q ** -hi) / (1 - 1 / q)
        else:
            # closed-form infinite tail: sum of q^-t over t > lo
            geo = q ** -(lo + 1) / (1 - 1 / q)
        lhs += move_prob * geo
    lhs *= prefactor * q ** (b - inv)
    return lhs == pi


@dataclass(frozen=True)
class Histogram:
    """Empirical visit counts from a simulated trajectory."""

    counts: tuple[tuple[object, int], ...]
    samples: int

    def as_dict(self) -> dict:
        return dict(self.counts)


def simulate(
    start: JugglingState,
    coin: CoinConfig,
    steps: int,
    burnin: int,
    rng,
    on_state=None,
    step=backward_step,
) -> Histogram:
    """Run a chain and tally post-burn-in states (one sample per step).

    `step(state, coin, rng)` is the chain's sampler: the plain chain's
    `backward_step` by default, or for instance `flag_backward_step`.
    `on_state`, when given, receives every visited state in order (burn-in
    included), for trajectory dumps.
    """
    if not 0 <= burnin <= steps:
        raise ValueError("need 0 <= burnin <= steps")
    counts: dict = {}
    state = start
    for t in range(steps):
        state = step(state, coin, rng)
        if on_state is not None:
            on_state(state)
        if t >= burnin:
            counts[state] = counts.get(state, 0) + 1
    ordered = tuple(sorted(counts.items(), key=lambda kv: str(kv[0])))
    return Histogram(counts=ordered, samples=steps - burnin)


def tv_distance(
    hist: Histogram, coin: CoinConfig, balls: int, max_inversions: int = 10
) -> float:
    """Total-variation distance between the empirical measure and the
    stationary law.

    The comparison set is every state with inversion count at most
    `max_inversions` plus every visited state; the stationary mass outside
    that set is accounted exactly (the empirical measure is zero there).
    """
    empirical = hist.as_dict()
    comparison = set(states_up_to_inversions(balls, max_inversions))
    comparison.update(empirical)
    n = hist.samples
    covered = Fraction(0)
    diff = Fraction(0)
    for state in comparison:
        weight = stationary_weight(state, coin)
        covered += weight
        emp = Fraction(empirical.get(state, 0), n)
        diff += abs(emp - weight)
    remainder = 1 - covered  # stationary mass never compared, empirical 0
    return float((diff + remainder) / 2)
