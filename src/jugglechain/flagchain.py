"""The backward Markov chain on labeled (flag) states, and its digraph.

Forward edges from a label-initial state: pick up the front label and walk
East over the shifted word; at an empty cell we may drop the carried label
and stop, at a strictly larger label we may exchange (drop the carried
label there, pick up the larger one) and keep walking.  The set of drop
positions along a walk is the transition's throw set.

Backward step: hold an empty, point at the rightmost label, and sweep
left.  At each stop (a label strictly smaller than the held item, empties
counting as +infinity) flip a coin with p(heads) = 1/q: tails exchanges
the held item with the pointed label.  The sweep only stops at labels
strictly smaller than the held item, so with repeated labels equal ones
are passed over, which is what makes the all-equal case collapse to the
plain chain.  Falling off the left end drops the held item in front.
The exact one-step law is that sampler run on every flip sequence it can
draw (`chain.step_law`), so the move rule is written once.

The stationary weight of a state is prefactor * q^-inversions, where the
prefactor multiplies (1-q^-1)...(1-q^-k) over the groups of equal labels
(sizes k): all labels distinct gives (1-1/q)^b, a single group gives the
plain-chain prefactor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chain import (
    CoinConfig,
    FlipSource,
    TransitionDist,
    step_law,
    step_probability,
)
from .errors import CapTooSmall
from .series import sn
from .states import Cell, FlagState, flag_inversions, trim_cells


def label_groups(labels: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The label multiset as (label, multiplicity) pairs, ascending."""
    groups = []
    for lab in sorted(labels):
        if groups and groups[-1][0] == lab:
            groups[-1] = (lab, groups[-1][1] + 1)
        else:
            groups.append((lab, 1))
    return tuple(groups)


def group_prefactor(labels: Sequence[int], q: Fraction) -> Fraction:
    """Product over groups of equal labels of (1-q^-1)...(1-q^-size)."""
    out = Fraction(1)
    for _, size in label_groups(labels):
        out *= sn(size, Fraction(q))
    return out


@dataclass(frozen=True)
class FlagTransition:
    target: FlagState
    drops: frozenset[int]  # positions where a label was put down


def flag_forward_edges(state: FlagState, max_drop: int) -> list[FlagTransition]:
    """All outgoing transitions whose drops stay at positions <= max_drop.

    An empty-initial state has the unique edge deleting its leading empty.
    Drops happen at strictly increasing positions along a walk, so capping
    the final drop caps them all.
    """
    cells = state.cells
    if cells[0] is None:
        return [FlagTransition(FlagState(cells[1:]), frozenset())]

    word = cells[1:]
    results: list[FlagTransition] = []

    def walk(pos: int, carried: int, current: tuple[Cell, ...], drops: tuple[int, ...]):
        if pos > max_drop:
            return
        cell = current[pos] if pos < len(current) else None
        if cell is None:
            dropped = list(current) + [None] * max(0, pos + 1 - len(current))
            dropped[pos] = carried
            results.append(
                FlagTransition(
                    FlagState(trim_cells(dropped)), frozenset(drops + (pos,))
                )
            )
            walk(pos + 1, carried, current, drops)
        else:
            if cell > carried:
                swapped = current[:pos] + (carried,) + current[pos + 1 :]
                walk(pos + 1, cell, swapped, drops + (pos,))
            walk(pos + 1, carried, current, drops)

    walk(0, cells[0], word, ())
    results.sort(key=lambda tr: (sorted(tr.drops), str(tr.target)))
    return results


def _next_stop(cells: Sequence[Cell], held: Cell, start: int) -> int:
    """First index strictly left of `start` bearing a label smaller than the
    held item (held empty = +infinity stops at every label), or -1."""
    for i in range(start - 1, -1, -1):
        c = cells[i]
        if c is not None and (held is None or c < held):
            return i
    return -1


def flag_backward_step(
    state: FlagState, coin: CoinConfig, rng: FlipSource
) -> FlagState:
    """One sampled backward step."""
    cells = list(state.cells)
    held: Cell = None
    ptr = len(cells) - 1  # rightmost cell bears a label
    while ptr >= 0:
        if not rng.heads(coin.heads_probability):
            held, cells[ptr] = cells[ptr], held
        ptr = _next_stop(cells, held, ptr)
    return FlagState(trim_cells([held] + cells))


def flag_backward_dist(state: FlagState, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law: `flag_backward_step` run on every flip
    sequence it can draw.

    The held item strictly decreases at each tails, so at most one flip
    happens per label and there are at most 2^b sequences; equal outcomes
    are merged.
    """
    return step_law(flag_backward_step, state, coin)


def flag_stationary_weight(state: FlagState, coin: CoinConfig) -> Fraction:
    return group_prefactor(state.labels, coin.q) * coin.q ** -flag_inversions(state)


@dataclass(frozen=True)
class StationarityBracket:
    """Result of a truncated balance check: the inflow is known to lie in
    [partial_sum, partial_sum + tail_bound]."""

    expected: Fraction
    partial_sum: Fraction
    tail_bound: Fraction

    @property
    def ok(self) -> bool:
        return self.partial_sum <= self.expected <= self.partial_sum + self.tail_bound


def flag_stationarity_tail_bound(
    state: FlagState, coin: CoinConfig, drop_cap: int
) -> Fraction:
    """Exact upper bound on the balance inflow omitted by capping drops.

    Every omitted successor comes from a walk whose final drop lands at a
    position p > drop_cap; such a target keeps at most b-1 other labels
    left of p, hence has at least p - b + 1 inversions, so its weight is
    at most prefactor * q^(b-1-p).  At most 2^(b-1) walks end at any given
    p (a walk is determined by its exchange subset and final drop), and
    each backward probability is at most 1.  Summing the geometric series
    over p > drop_cap gives the bound.
    """
    q = coin.q
    b = state.balls
    prefactor = group_prefactor(state.labels, q)
    per_position = 2 ** (b - 1) * prefactor * q ** (b - 1)
    return per_position * q ** -(drop_cap + 1) / (1 - 1 / q)


# the balance check's default: the tail bound must be below this share of
# the state's weight
_TOLERANCE = Fraction(1, 1024)


def _flag_inflow(state: FlagState, coin: CoinConfig) -> tuple[Fraction, Fraction]:
    """The balance inflow into `state`, weight * backward-probability
    summed over its successors, as (near, family).

    `near` covers a leading-empty state's one successor (the deletion of
    that empty, which points back via its all-heads branch), or else every
    target of fewer than n = len(state.cells) cells; `family` covers the
    n-cell targets, one per far-drop family, and is 0 for a leading empty.
    Each backward probability is the one entry P(target -> state) read
    from `flag_backward_step` by `chain.step_probability`.  Every target
    carries the labels of `state`, so the group prefactor is factored out
    of the sum and applied to both parts.

    Far-drop families.  The shifted word has n - 1 cells and its last one
    bears a label.  Only the walks whose final drop lands at p <= n - 1 are
    enumerated; each target of n cells stands for its whole family
    p = n - 1 + k, k >= 0, whose k-th member brings q^-k times its term:

    * a walk whose final drop lands at p >= n - 1 makes all its exchanges
      inside the shifted word, then carries one label c over empties to p,
      so its targets for different p differ only in the run of empties
      before c, and each extra empty adds exactly one inversion;
    * the backward sweep from any of them stops first at c and must flip
      tails there: heads would leave a label past the state's last cell.
      After that flip it sees the same cells for every p, so
      P(target -> state) does not depend on p;
    * a final drop before n - 1 gives a target of at most n - 1 cells, so
      "n cells" picks out exactly one representative per family.
    """
    if state.cells[0] is None:
        successor = FlagState(state.cells[1:])
        inflow = flag_stationary_weight(successor, coin) * step_probability(
            flag_backward_step, successor, coin, state
        )
        return inflow, Fraction(0)
    n = len(state.cells)
    q = coin.q
    near = family = Fraction(0)
    for target in {tr.target for tr in flag_forward_edges(state, n - 1)}:
        term = q ** -flag_inversions(target) * step_probability(
            flag_backward_step, target, coin, state
        )
        if len(target.cells) == n:
            family += term
        else:
            near += term
    prefactor = group_prefactor(state.labels, q)
    return prefactor * near, prefactor * family


def flag_stationarity_holds(state: FlagState, coin: CoinConfig) -> bool:
    """Exact balance check at `state`, the flag counterpart of
    `chain.verify_stationarity`: its stationary weight must equal the
    weight flowing into it in one step.  Each far-drop family of
    `_flag_inflow` is a geometric series of ratio 1/q, summed to infinity
    in closed form, so no cap or tail bound is needed."""
    near, family = _flag_inflow(state, coin)
    return near + family / (1 - 1 / coin.q) == flag_stationary_weight(state, coin)


def verify_flag_stationarity(
    state: FlagState,
    coin: CoinConfig,
    drop_cap: int,
    tolerance: Fraction = _TOLERANCE,
) -> StationarityBracket:
    """Bracketed balance check at `state`, kept only because the
    benchmark's `perfbench/verify.py` calls it; `flag_stationarity_holds`
    is the exact check.

    The partial sum is `_flag_inflow` with each far-drop family cut at
    k <= drop_cap - n + 1 (n = len(state.cells)), and an exact geometric
    tail bound covers the rest; a leading-empty state has no far drops
    and no tail.  Raises ValueError when drop_cap is below the last label
    position + b, and CapTooSmall, before any summing, when the tail bound
    is not below tolerance * weight(state).
    """
    pi = flag_stationary_weight(state, coin)
    if state.cells[0] is None:
        near, _ = _flag_inflow(state, coin)
        return StationarityBracket(
            expected=pi, partial_sum=near, tail_bound=Fraction(0)
        )

    n = len(state.cells)
    if drop_cap < n - 1 + state.balls:
        raise ValueError("drop_cap must be at least last label position + b")
    tail = flag_stationarity_tail_bound(state, coin, drop_cap)
    if tail >= pi * tolerance:
        raise CapTooSmall(
            f"tail bound {tail} is not below {tolerance} * weight {pi}"
        )
    q = coin.q
    near, family = _flag_inflow(state, coin)
    partial = near + family * (1 - q ** -(drop_cap - n + 2)) / (1 - 1 / q)
    return StationarityBracket(expected=pi, partial_sum=partial, tail_bound=tail)
