"""The backward Markov chain on plain juggling states.

One step from a b-ball state: flip a coin with p(heads) = 1/q at most b
times, stopping at the first tails.  All heads: shift the state up one,
leaving a - in front.  Tails on flip i: move the i-th last x to the front
(remove it, shift everything else up one, occupy position 0).  The
outcomes are exactly the digraph predecessors of the state.

The stationary distribution assigns a state weight
prefactor * q^-inversions with prefactor = (1-q^-1)...(1-q^-b).  The
exact one-step laws are built on inner states, as integer numerators over
one denominator per law (with q = a/c, the move law is over a^b), and
`TransitionDist` holds them so: its one checked constructor for builders
(`_law`) takes the integers as they are, and the text order of the states
is made only when the entries are read.  `step_law`, which enumerates a
sampler's flips, stays the reference.
Stationarity is checked exactly too: the inflow into a state over its own
weight is a sum of integer monomials in x = 1/q that does not depend on q,
evaluated for one q in integers alone.

Each sampler steps an inner state of its own (`Sampler`): the plain chain
steps position tuples (`PLAIN`), and `simulate` tallies inner states and
builds one output state per distinct state.  `tv_distance` compares a
histogram with the stationary law exactly, over the visited states alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Collection, Iterable, NamedTuple, Protocol

from .series import sn
from .states import JugglingState, _unchecked_state, inversions


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


class TransitionDist:
    """A finite exact distribution over states: integer numerators n_s over
    one denominator.  `TransitionDist(entries)` takes (state, probability)
    pairs, refuses two states with the same text, and brings them over the
    lcm of their denominators; the law builders hand over their integers
    as they are (`_law`).  Equal laws have the same states and equal
    n_s / den, compared by cross-multiplication.  `entries` orders the
    states by their text, on first read."""

    def __init__(self, entries: Iterable[tuple[object, Fraction]]) -> None:
        entries = tuple(entries)
        if len({str(s) for s, _ in entries}) != len(entries):
            raise ValueError("duplicate states in distribution")
        den = math.lcm(*[p.denominator for _, p in entries])
        self._hold([(s, p.numerator * (den // p.denominator)) for s, p in entries], den)

    def _hold(self, numerators: Collection[tuple[object, int]], den: int) -> None:
        """Hold n/den at each (state, n) of `numerators`, after the checks
        every law passes: no state twice, a total of den, each n positive."""
        nums = dict(numerators)
        if len(nums) != len(numerators):
            raise ValueError("duplicate states in distribution")
        total = sum(nums.values())
        if total != den:
            raise ValueError(f"probabilities sum to {Fraction(total, den)}, not 1")
        if any(n <= 0 for n in nums.values()):
            raise ValueError("probabilities must be positive")
        self._numerators, self._denominator = nums, den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionDist):
            return NotImplemented
        nums, den = self._numerators, self._denominator
        other_nums, other_den = other._numerators, other._denominator
        return nums.keys() == other_nums.keys() and all(
            [n * other_den == other_nums[s] * den for s, n in nums.items()]
        )

    def __hash__(self) -> int:
        # the numerators over their gcd are the same for every equal law
        g = math.gcd(*self._numerators.values())
        return hash(frozenset([(s, n // g) for s, n in self._numerators.items()]))

    def __repr__(self) -> str:
        return f"TransitionDist(entries={self.entries!r})"

    @cached_property
    def entries(self) -> tuple[tuple[object, Fraction], ...]:
        den = self._denominator
        pairs = [(s, Fraction(n, den)) for s, n in self._numerators.items()]
        return tuple(sorted(pairs, key=lambda e: str(e[0])))

    def probability(self, state: object) -> Fraction:
        return Fraction(self._numerators.get(state, 0), self._denominator)

    def support(self) -> tuple[object, ...]:
        return tuple(s for s, _ in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)


def _law(numerators: Collection[tuple[object, int]], den: int) -> TransitionDist:
    """The law of n/den at each (state, n) of `numerators`, checked, with
    no state rendered, no sort and no `Fraction`."""
    law = object.__new__(TransitionDist)
    law._hold(numerators, den)
    return law


def _plain_step(positions: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The move after k leading heads (0 <= k <= b) on sorted positions.

    k = b shifts every ball up one; otherwise the (k+1)-th last ball moves
    to position 0 and the others shift up one.
    """
    shifted = [p + 1 for p in positions]
    moved = len(positions) - 1 - k
    if moved < 0:
        return tuple(shifted)
    del shifted[moved]
    shifted.insert(0, 0)
    return tuple(shifted)


class Sampler(NamedTuple):
    """A chain's sampler on an inner state of its own choosing.

    `step(inner, coin, rng)` is one step of the chain on the inner state,
    `enter(state)` the inner state of an output state and `leave(inner)`
    the output state of an inner state.  The two maps are inverse
    bijections, so the inner states of a run can be counted in place of
    the output states; `simulate` builds an output state only per distinct
    inner state, or per step for `on_state`.
    """

    step: Callable[[Any, CoinConfig, FlipSource], Any]
    enter: Callable[[Any], Any]
    leave: Callable[[Any], Any]


def _positions_step(
    positions: tuple[int, ...], coin: CoinConfig, rng: FlipSource
) -> tuple[int, ...]:
    """One plain step on sorted positions: the move k, the heads before
    the first tails in at most b flips, then `_plain_step`."""
    b, p = len(positions), coin.heads_probability
    k = 0
    while k < b and rng.heads(p):
        k += 1
    return _plain_step(positions, k)


# The plain chain steps position tuples.  They leave unchecked: a checked
# state's strictly increasing naturals, each shifted up one, with at most
# one removed and 0 put in front of the rest, stay strictly increasing
# naturals.
PLAIN = Sampler(_positions_step, attrgetter("positions"), _unchecked_state)


def backward_step(
    state: JugglingState, coin: CoinConfig, rng: FlipSource
) -> JugglingState:
    """One sampled step of the plain chain, `PLAIN` entered and left."""
    return _unchecked_state(_positions_step(state.positions, coin, rng))


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


def step_law(step, state, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law of a sampler `step(state, coin, rng)`: run it
    once per flip sequence it can draw, and weight every outcome by the
    total probability of the sequences that lead to it.  Every sequence
    must end after finitely many flips, each with an exact rational
    probability.  The sequence probabilities are summed as integers over
    their common denominator, and the law holds those integers (`_law`)."""
    leaves: dict = {}
    pending: list[list[bool]] = [[]]
    while pending:
        flips = _FlipTree(pending.pop(), pending)
        out = step(state, coin, flips)
        leaves.setdefault(out, []).append((flips.num, flips.den))
    den = math.lcm(*(d for group in leaves.values() for _, d in group))
    nums = [(out, sum([n * (den // d) for n, d in g])) for out, g in leaves.items()]
    return _law(nums, den)


@lru_cache(maxsize=256)
def _move_law(b: int, coin: CoinConfig) -> tuple[tuple[int, ...], int]:
    """P(k) for the plain move k = 0..b of one step on b balls, as integer
    numerators over one denominator a^b, q = a/c: k leading heads then
    tails (k < b) has probability (1 - 1/q) q^-k = (a - c) c^k a^(b-1-k) /
    a^b, and all b heads has c^b / a^b."""
    a, c = coin.q.numerator, coin.q.denominator
    nums = [(a - c) * c**k * a ** (b - 1 - k) for k in range(b)]
    nums.append(c**b)
    return tuple(nums), a**b


def backward_dist(state: JugglingState, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law: b+1 outcomes, the move k with probability
    `_move_law`.  Each outcome's positions are strictly increasing
    naturals (`PLAIN`), so its state is built unchecked."""
    nums, den = _move_law(len(state.positions), coin)
    positions = state.positions
    return _law(
        [(_unchecked_state(_plain_step(positions, k)), n) for k, n in enumerate(nums)],
        den,
    )


def stationary_weight(state: JugglingState, coin: CoinConfig) -> Fraction:
    return sn(state.balls, coin.q) * coin.q ** -inversions(state)


def _inflow_by_move(
    state: JugglingState, max_throw: int | None = None
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The weight flowing into `state` in one step over its own weight
    sn(b) q^-inversions, split by the move k that brings each successor
    back, as signed monomials (coefficient, e) of x = 1/q: the move's share
    is the sum of coefficient * x^e, whatever q is.

    The successor after a t-throw has inversions(state) + t - b
    inversions, and comes back by moving its j-th x, the move k = b - j of
    probability (1 - x) x^k, when t lies strictly between the j-th and
    (j+1)-th x positions, lo = lambda_(j-1) and hi = lambda_j (0-based).
    So each group is a geometric sum over t of ratio x, which telescopes
    to x^(lo + 1 - j) - x^(hi - j) for j < b.  The j = b tail has no upper
    end: its sum is the single monomial x^(lo + 1 - b), or it stops at
    t = max_throw, x^(lo + 1 - b) - x^(max_throw + 1 - b), when that is
    given.  An empty-front state has one successor, its shift down, which
    comes back by all b heads: {b: x^0}.  Every exponent is at least 0.
    """
    b = state.balls
    if not state.occupied(0):
        return {b: ((1, 0),)}
    lam = state.positions
    inflow = {}
    for j in range(1, b + 1):
        lo = lam[j - 1]
        if j == b and max_throw is None:
            inflow[0] = ((1, lo + 1 - b),)
            continue
        hi = lam[j] if j < b else max_throw + 1
        if hi - lo >= 2:
            inflow[b - j] = ((1, lo + 1 - j), (-1, hi - j))
    return inflow


def _at_q(
    terms: Collection[tuple[int, int]], den: int, coin: CoinConfig
) -> tuple[int, int]:
    """The sum of n/den * x^e over `terms` (n, e), e >= 0, at x = 1/q, as
    integers (num, den') with num/den' the sum.  With q = a/c each x^e is
    c^e a^(E - e) / a^E, E the largest e, so den' is den a^E, and no
    `Fraction` is built."""
    if not terms:
        return 0, 1
    a, c = coin.q.numerator, coin.q.denominator
    top = max([e for _, e in terms])
    num = sum([n * c**e * a ** (top - e) for n, e in terms])
    return num, den * a**top


def verify_stationarity(state: JugglingState, coin: CoinConfig) -> bool:
    """Exact balance check: the stationary weight of `state` must equal the
    weight flowing into it from its digraph successors in one step.  Over
    the state's own weight the inflow is the sum of `_inflow_by_move`'s
    monomials in x = 1/q (every successor has b balls, so the prefactor
    sn(b) cancels), and it must be 1; `_at_q` evaluates it in integers."""
    inflow = _inflow_by_move(state).values()
    num, den = _at_q([term for monomials in inflow for term in monomials], 1, coin)
    return num == den


@dataclass(frozen=True)
class Histogram:
    """Empirical visit counts from a simulated trajectory."""

    counts: tuple[tuple[object, int], ...]
    samples: int

    def as_dict(self) -> dict:
        return dict(self.counts)


def simulate(
    start,
    coin: CoinConfig,
    steps: int,
    burnin: int,
    rng,
    on_state=None,
    sampler: Sampler = PLAIN,
) -> Histogram:
    """Run a chain and tally post-burn-in states (one sample per step).

    `sampler` is the chain: `PLAIN` by default, or for instance
    `flagchain.FLAG` or `hatted.HATTED`.  The run enters `start` once,
    steps and counts inner states, and leaves each distinct inner state
    once for the histogram, which holds output states ordered by their
    text.  `on_state`, when given, receives every visited output state in
    order (burn-in included), for trajectory dumps; only then is a state
    left on every step.  Needs 0 <= burnin < steps, so that the histogram
    holds at least one sample.
    """
    if not 0 <= burnin < steps:
        raise ValueError("need 0 <= burnin < steps")
    step, leave = sampler.step, sampler.leave
    counts: dict = {}
    inner = sampler.enter(start)
    for t in range(steps):
        inner = step(inner, coin, rng)
        if on_state is not None:
            on_state(leave(inner))
        if t >= burnin:
            counts[inner] = counts.get(inner, 0) + 1
    ordered = sorted(
        ((leave(inner), count) for inner, count in counts.items()),
        key=lambda kv: str(kv[0]),
    )
    return Histogram(counts=tuple(ordered), samples=steps - burnin)


def tv_distance(
    hist: Histogram, coin: CoinConfig, balls: int, max_inversions: int = 10
) -> float:
    """Total-variation distance between the empirical measure of a plain
    histogram and the stationary law, exactly, rounded once to a float.

    Only the visited states V enter the sum.  The empirical measure is 0
    off V, so there each state adds pi(s) to sum |emp - pi|, and together
    they add pi's unvisited mass 1 - sum_V pi:

        TV = 1/2 (sum_V |emp - pi| + 1 - sum_V pi)
           = 1/2 (1 + sum_V (|emp - pi| - pi)).

    Adding any set of unvisited states to V adds pi(s) and subtracts it
    again, so this is the rational that the comparison over every state up
    to some inversion count plus V gives, whichever count is chosen.
    `max_inversions` therefore does not change the result; it stays in the
    signature for callers that pass it.

    The sum runs in integers over one denominator: with q = a/c and L the
    highest visited inversion count, pi at level i is
    sn(b) c^i / a^i = N c^i a^(L - i) / (D a^L) for sn(b) = N/D, one
    weight per visited level, and emp = count / samples.  Raises
    ValueError on a histogram without samples or with a state that does
    not hold `balls` balls.
    """
    n = hist.samples
    if not n:
        raise ValueError("the histogram holds no samples")
    a, c = coin.q.numerator, coin.q.denominator
    prefactor = sn(balls, coin.q)
    visited = []
    for state, count in hist.counts:
        if state.balls != balls:
            raise ValueError(f"a visited state holds {state.balls} balls, not {balls}")
        visited.append((inversions(state), count))
    levels = {level for level, _ in visited}
    top = max(levels)
    scale = prefactor.denominator * a**top
    # n * scale * pi at each visited level, and n * scale * emp = count * scale
    weight = {i: n * prefactor.numerator * c**i * a ** (top - i) for i in levels}
    total = n * scale
    excess = 0
    for level, count in visited:
        pi = weight[level]
        excess += abs(count * scale - pi) - pi
    # int / int true division rounds the exact quotient once, as float() of
    # the Fraction does
    return (total + excess) / (2 * total)
