"""One-coin decomposition of the flag chain via hatted intermediate states.

A hatted state is a flag state with one marked cell; the mark may also sit
on the first implicit empty just past the last label (hat == len(cells)),
which is the entry point of every backward traversal.  Reading a hatted
state as a snapshot of the flag chain's backward sweep: cells right of the
hat are already finalized, cells left of it are untouched, and the hatted
cell holds the item currently being carried.

Backward step (normative; each step flips at most one coin):
  * unhatted u         -> hat the implicit empty at len(u), probability 1;
  * hat at 0           -> remove the hat, cells unchanged, probability 1;
  * hat at i > 0       -> let a be the hatted value and c its left
    neighbor.  If c is a label strictly smaller than a (empty = +infinity)
    flip: with probability 1 - 1/q move only the hat onto c, with
    probability 1/q swap the two cells, the hat traveling with a.
    Otherwise swap deterministically.

Composing steps from an unhatted state until the next unhatted state
reproduces the flag chain's one-step law exactly; that equality is the
contract this module is tested against.  The one-step law is
`hatted_backward_step` run on every flip sequence it can draw
(`chain.step_law`).  The composed law propagates the same step level by
level, in integers over one denominator, with equal states merged at each
level rather than each branch replayed to its leaf.  So the move rule is
written once.  The step reads two cells, slices an exchange back in, and
builds its successor without re-checking it (`_unchecked_hatted`); its
docstring says why that is safe.
As a `chain.Sampler` (`HATTED`) it steps the mixed states themselves, so
entering and leaving are the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .chain import (
    CoinConfig,
    FlipSource,
    Sampler,
    TransitionDist,
    _law,
    step_law,
)
from .errors import NonTermination
from .flagchain import flag_forward_edges
from .states import Cell, FlagState, _check_labels, _unchecked_flag


@dataclass(frozen=True)
class HattedState:
    """A flag word plus the hat position.

    Cells are stored trimmed (last stored cell bears a label); hat may be
    len(cells), marking the implicit empty just past the last label.
    """

    cells: tuple[Cell, ...]
    hat: int

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells or cells[-1] is None:
            raise ValueError("cells must be trimmed and end with a label")
        _check_labels(cells)
        if not 0 <= self.hat <= len(cells):
            raise ValueError("hat must sit on a cell or just past the last label")

    def word(self) -> str:
        tokens = ["-" if c is None else str(c) for c in self.cells]
        if self.hat == len(tokens):
            tokens.append("-")
        tokens[self.hat] += "^"
        return " ".join(tokens)

    def __str__(self) -> str:
        return self.word()


def _unchecked_hatted(cells: tuple[Cell, ...], hat: int) -> HattedState:
    """A HattedState built without `__post_init__`: for step kernels whose
    cells are trimmed and checked, and whose hat is in range, by proof."""
    state = object.__new__(HattedState)
    object.__setattr__(state, "cells", cells)
    object.__setattr__(state, "hat", hat)
    return state


MixedState = Union[FlagState, HattedState]


def hatted_backward_dist(state: MixedState, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law of the backward chain (1 or 2 outcomes)."""
    return step_law(hatted_backward_step, state, coin)


def hatted_backward_step(
    state: MixedState, coin: CoinConfig, rng: FlipSource
) -> MixedState:
    """One sampled step; flips a coin only on two-outcome branches (heads
    moves the hatted label, tails moves only the hat).

    The hatted cell a (an empty when the hat is past the last label) and
    its left neighbour c are read directly, and an exchange slices them
    back in swapped.  Every successor is built without the constructors'
    checks.  It is valid: entering hats the implicit empty past a checked
    state's trimmed cells, leaving keeps them, and every other step
    rearranges them and moves the hat one cell left.  Only a forced
    exchange can empty the last cell, when c is an empty and a the last
    label; that one cell is trimmed, and the hat stays on a.  (A hat past
    the last label always has a label left of it, so that branch flips.)

    It flips at most one coin, of probability 1/q: the one `rng.heads`
    call, with `coin.heads_probability`, is on the branch of a hat at
    i > 0 with a label c < a to its left, no loop surrounds it, and every
    other branch returns without flipping.  `composed_backward_dist`
    rests on this.
    """
    if isinstance(state, FlagState):
        return _unchecked_hatted(state.cells, len(state.cells))
    cells, i = state.cells, state.hat
    if i == 0:
        return _unchecked_flag(cells)
    c = cells[i - 1]
    a = cells[i] if i < len(cells) else None
    if c is not None and (a is None or c < a):
        if not rng.heads(coin.heads_probability):
            return _unchecked_hatted(cells, i - 1)
    elif c is None and i + 1 == len(cells):
        return _unchecked_hatted(cells[: i - 1] + (a,), i - 1)
    # heads exchanges the two cells; equal labels or an empty to the left
    # force the exchange (for equal cells the swapped word coincides with
    # the unswapped one)
    return _unchecked_hatted(cells[: i - 1] + (a, c) + cells[i + 1 :], i - 1)


def _same(state: MixedState) -> MixedState:
    return state


HATTED = Sampler(hatted_backward_step, _same, _same)


class _OneFlip:
    """A flip source of the hatted steps in `composed_backward_dist`: it
    answers one flip with `value` and records that it was asked, and the
    caller clears `asked` before each step.  A second flip in one step, or
    a coin other than the chain's, raises ValueError: the law's weights
    rest on one flip of probability 1/q per step at most."""

    __slots__ = ("value", "probability", "asked")

    def __init__(self, value: bool, probability: Fraction) -> None:
        self.value, self.probability, self.asked = value, probability, False

    def heads(self, probability: Fraction) -> bool:
        if self.asked or (
            probability is not self.probability and probability != self.probability
        ):
            raise ValueError("a hatted step flips at most one coin, of probability 1/q")
        self.asked = True
        return self.value


def composed_backward_dist(state: FlagState, coin: CoinConfig) -> TransitionDist:
    """Start at an unhatted state, run the hatted chain backward, and stop
    at the next unhatted state; the stopped law must equal the flag
    chain's one-step law.

    Entering puts the hat past the last of the len(cells) cells, each
    later step moves it one cell left, and the step from cell 0 removes
    it: every branch takes exactly len(cells) + 2 steps.  So the law is
    propagated level by level for that many steps, as integer numerators
    over a^level, q = a/c, equal states merged at each level.  Each state
    steps once with a source answering heads (`_OneFlip`); when the step
    asked for a flip, that outcome takes c of its weight and a second
    step, answering tails, takes a - c; otherwise the one outcome takes
    all a.  That is exact because each hatted step flips at most one coin
    (`hatted_backward_step`).

    States are merged on their cells alone, each level a map from cells
    to [state, numerator].  That is exact because every state of one
    level has the same hat, by induction on the level: level 0 is the
    unhatted start, and every branch moves the hat the same way at each
    step (entering hats cell len(cells) of the start, every later step
    moves it from i to i - 1, whichever branch it takes and whether or
    not it trims a cell, and the step from cell 0 unhats).  So two states
    of a level with equal cells are equal, and the cells' tuple hash,
    made in C, stands in for the dataclass hash of cells and hat.

    A state still hatted after the last level (a convention bug) raises
    NonTermination.  Every state of the last level is valid
    (`hatted_backward_step`).  `step_law` run on the composed steps is
    the reference the tests compare it with.
    """
    steps = len(state.cells) + 2
    a, c = coin.q.numerator, coin.q.denominator
    step = hatted_backward_step
    heads = _OneFlip(True, coin.heads_probability)
    tails = _OneFlip(False, coin.heads_probability)
    level: dict[tuple[Cell, ...], list] = {state.cells: [state, 1]}
    for _ in range(steps):
        grown: dict[tuple[Cell, ...], list] = {}
        for current, n in level.values():
            heads.asked = False
            out = step(current, coin, heads)
            if heads.asked:
                grown.setdefault(out.cells, [out, 0])[1] += n * c
                tails.asked = False
                out = step(current, coin, tails)
                n *= a - c
            else:
                n *= a
            grown.setdefault(out.cells, [out, 0])[1] += n
        level = grown
    ends = [(out, n) for out, n in level.values()]
    for out, _ in ends:
        if not isinstance(out, FlagState):
            raise NonTermination(f"branch still hatted after {steps} steps")
    return _law(ends, a**steps)


def hatted_forward_edges(state: MixedState) -> list[MixedState]:
    """Outgoing edges of the forward digraph (the reverse of the backward
    chain's support).

    From an unhatted state: hat position 0.  From a hatted state: remove
    the hat when it sits just past the last label; otherwise always swap
    the hatted cell a with its right neighbour c (an empty past the last
    label), the hat traveling with a, and additionally move only the hat
    when a is a label and c is strictly larger (empty = +infinity).  The
    exchange slices the two cells back in swapped; only carrying an empty
    past the last label empties the last cell, and that cell is trimmed.
    """
    if isinstance(state, FlagState):
        return [HattedState(state.cells, 0)]
    cells, i = state.cells, state.hat
    if i == len(cells):
        return [FlagState(cells)]
    edges: list[MixedState] = []
    a = cells[i]
    c = cells[i + 1] if i + 1 < len(cells) else None
    if a is not None and (c is None or a < c):
        edges.append(HattedState(cells, i + 1))
    if a is None and i + 2 == len(cells):
        edges.append(HattedState(cells[:i] + (c,), i + 1))
    else:
        edges.append(HattedState(cells[:i] + (c, a) + cells[i + 2 :], i + 1))
    return edges


def hatted_path_exists(source: FlagState, target: FlagState) -> bool:
    """Is there a directed path source -> ... -> target through hatted
    states only?

    Every edge between hatted states moves the hat exactly one cell right.
    A path enters at the source's cells hatted at 0 and leaves from the
    target's cells hatted at len(target.cells), so it takes exactly that
    many hatted steps: expand the set reachable in k steps that many
    times, then test membership once.
    """
    frontier = {HattedState(source.cells, 0)}
    for _ in range(len(target.cells)):
        frontier = {
            nxt
            for current in frontier
            for nxt in hatted_forward_edges(current)
            if isinstance(nxt, HattedState)  # paths stay inside hatted states
        }
    return HattedState(target.cells, len(target.cells)) in frontier


def path_equivalence_check(source: FlagState, target: FlagState) -> tuple[bool, bool]:
    """(flag digraph has edge source -> target, hatted path exists); the
    two verdicts should always agree.  Every drop of an edge into target
    puts a label on one of its cells, so drops up to len(target.cells) - 1
    list every edge into it."""
    drops = len(target.cells) - 1
    flag_edge = any(tr.target == target for tr in flag_forward_edges(source, drops))
    return flag_edge, hatted_path_exists(source, target)
