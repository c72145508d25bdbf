"""Juggling states: plain (indistinguishable balls) and labeled variants.

A plain state is a finite set of b distinct natural positions, read as a
semi-infinite word over {x, -} with the trailing -s implicit: position p
carries an x iff p is in the set.  A labeled ("flag") state replaces the
xs by labels drawn from a fixed multiset; it is stored as the word of its
cells with trailing empties trimmed, so the last stored cell always bears
a label.

Inversion counts treat an empty cell as +infinity, and equal labels never
invert.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional, Sequence

from .errors import IllegalThrow, ParseError, check_budget

Cell = Optional[int]  # None is an empty cell ("-"); labels are positive ints


@dataclass(frozen=True, slots=True)
class JugglingState:
    """b strictly increasing natural positions (where the xs sit)."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = tuple(self.positions)
        _set_positions(self, pos)
        # C-level builtins: enumerations and exact laws build many states.
        # A position is exactly an int: a bool, a float or a Fraction is none
        if not _INT_ONLY.issuperset(map(type, pos)):
            raise ValueError("positions must be ints")
        if pos and min(pos) < 0:
            raise ValueError("positions must be naturals")
        if any(map(operator.ge, pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")

    @property
    def balls(self) -> int:
        return len(self.positions)

    def occupied(self, position: int) -> bool:
        return position in self.positions

    def word(self) -> str:
        """Render as an x/- word with trailing -s trimmed."""
        if not self.positions:
            return ""
        chars = ["-"] * (self.positions[-1] + 1)
        for p in self.positions:
            chars[p] = "x"
        return "".join(chars)

    def __str__(self) -> str:
        return self.word()


_INT_ONLY = frozenset((int,))
# Each field is written through its slot's descriptor, bound once: the
# checked and the unchecked builds alike, and cheaper per state than
# `object.__setattr__`, which looks the name up on every write.
_set_positions = JugglingState.positions.__set__


def _unchecked_state(positions: tuple[int, ...]) -> JugglingState:
    """A JugglingState built without `__post_init__`: for step kernels
    whose positions are a tuple of strictly increasing naturals by proof."""
    state = object.__new__(JugglingState)
    _set_positions(state, positions)
    return state


def ground_state(balls: int) -> JugglingState:
    """The state x^b: every ball lands on one of the next b beats."""
    return JugglingState(tuple(range(balls)))


def parse_state(text: str) -> JugglingState:
    """Parse an x/- word ('x' marks an occupied position)."""
    if not text:
        raise ParseError("empty state")
    positions = []
    for i, ch in enumerate(text):
        if ch == "x":
            positions.append(i)
        elif ch != "-":
            raise ParseError(f"bad character {ch!r} in state {text!r}")
    return JugglingState(tuple(positions))


def inversions(state: JugglingState) -> int:
    """Number of (-, x) pairs with the - strictly left of the x."""
    return _position_inversions(state.positions)


def _position_inversions(positions: tuple[int, ...]) -> int:
    """The inversions of the state at these positions, no state built.

    Equals sum over j of (position of the j-th x) - (j - 1), the sum of
    the positions less 0 + 1 + ... + (b - 1), in one C-level sum.
    """
    b = len(positions)
    return sum(positions) - b * (b - 1) // 2


def prepend_empty(state: JugglingState) -> JugglingState:
    """Shift every position up by one, putting a - in front."""
    return JugglingState(tuple(p + 1 for p in state.positions))


def throw_state(state: JugglingState, throw: int) -> JugglingState:
    """Advance one beat: the front ball (if any) is rethrown to land
    `throw` beats later.

    A state with an empty first cell admits only throw 0.  Any two of
    (source, target, throw) determine the third.
    """
    if throw < 0:
        raise IllegalThrow(f"negative throw {throw}")
    if not state.occupied(0):
        if throw != 0:
            raise IllegalThrow("nonzero throw from a state with no ball to throw")
        return JugglingState(tuple(p - 1 for p in state.positions))
    if throw == 0:
        raise IllegalThrow("throw 0 requires an empty first cell")
    shifted = [p - 1 for p in state.positions if p != 0]
    landing = throw - 1
    if landing in shifted:
        raise IllegalThrow(f"landing cell {landing} already occupied")
    return JugglingState(tuple(sorted(shifted + [landing])))


def recover_throw(source: JugglingState, target: JugglingState) -> Optional[int]:
    """The throw labeling the edge source -> target, or None if no edge."""
    if not source.occupied(0):
        if target.positions == tuple(p - 1 for p in source.positions):
            return 0
        return None
    shifted = {p - 1 for p in source.positions if p != 0}
    extra = set(target.positions) - shifted
    if len(extra) == 1 and shifted <= set(target.positions):
        return extra.pop() + 1
    return None


def _landings(positions: tuple[int, ...], max_throw: int) -> list[int]:
    """For positions with a ball at 0: how many legal throws t <= max_throw
    land with j of the other balls below them, for j = 0..b-1.  The
    landing cell t - 1 is an empty cell below max_throw of the others
    shifted down, and the j-th group is the empty cells between the j-th
    and (j+1)-th of those, none above max_throw - 1."""
    shifted = [p - 1 for p in positions[1:]]
    lows = [0] + [p + 1 for p in shifted]
    return [max(0, min(hi, max_throw) - lo) for lo, hi in zip(lows, shifted + [max_throw])]


def forward_edges(
    state: JugglingState, max_throw: int
) -> list[tuple[int, JugglingState]]:
    """All legal (throw, target) pairs with throw <= max_throw, ascending;
    ResourceLimit, before any is listed, when they exceed the budget."""
    if not state.occupied(0):
        return [(0, throw_state(state, 0))] if max_throw >= 0 else []
    check_budget(sum(_landings(state.positions, max_throw)), "edge")
    edges = []
    for t in range(1, max_throw + 1):
        try:
            edges.append((t, throw_state(state, t)))
        except IllegalThrow:
            continue
    return edges


# ---------------------------------------------------------------------------
# Labeled (flag) states


@dataclass(frozen=True, slots=True)
class FlagState:
    """A word of cells, each empty or bearing a label from a fixed multiset.

    Trailing empties are not stored: the last cell always bears a label.
    With all labels equal this is equivalent to a plain JugglingState; with
    labels 1..b all distinct it carries full flag information.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        _set_cells(self, cells)
        if not cells or cells[-1] is None:
            raise ValueError("flag state must end with a label")
        _check_labels(cells)

    @property
    def labels(self) -> tuple[int, ...]:
        """The label multiset, sorted ascending."""
        return tuple(sorted(c for c in self.cells if c is not None))

    @property
    def balls(self) -> int:
        return sum(1 for c in self.cells if c is not None)

    def word(self) -> str:
        return render_flag(self.cells)

    def __str__(self) -> str:
        return self.word()


_set_cells = FlagState.cells.__set__


def _check_labels(cells: Sequence[Cell]) -> None:
    """Raise ValueError unless each label among `cells` is a positive int;
    None is an empty cell, a bool or a float is no label, and a label
    multiset is checked as its cells."""
    for cell in cells:
        if cell is not None and (type(cell) is not int or cell < 1):
            raise ValueError("labels must be positive integers")


def _unchecked_flag(cells: tuple[Cell, ...]) -> FlagState:
    """A FlagState built without `__post_init__`: for step kernels whose
    cells are a tuple of positive labels and empties ending with a label
    by proof."""
    state = object.__new__(FlagState)
    _set_cells(state, cells)
    return state


# the one-character token of each cell whose label is below 10
_SHORT_TOKENS = {None: "-", **{label: str(label) for label in range(10)}}


def render_flag(cells: Sequence[Cell]) -> str:
    """Cells as text: contiguous digits when every label is < 10, else
    space-separated decimal tokens.  '-' marks an empty cell.  Laws sort
    their states by this text, so the short form is one lookup per cell;
    a label of 10 or more has no short token and falls to the long form."""
    try:
        return "".join([_SHORT_TOKENS[c] for c in cells])
    except KeyError:
        return " ".join("-" if c is None else str(c) for c in cells)


def parse_flag_state(text: str) -> FlagState:
    """Parse flag-state text (either format produced by render_flag)."""
    if not text:
        raise ParseError("empty flag state")
    cells: list[Cell] = []
    tokens = text.split() if " " in text.strip() else list(text.strip())
    for tok in tokens:
        if tok == "-":
            cells.append(None)
        # ASCII digits only: str.isdigit and int also take other scripts'
        # digits ('²', '１')
        elif tok.isascii() and tok.isdigit() and int(tok) > 0:
            cells.append(int(tok))
        else:
            raise ParseError(f"bad token {tok!r} in flag state {text!r}")
    try:
        return FlagState(tuple(cells))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def flag_inversions(state: FlagState) -> int:
    """Inversions of a labeled word: pairs (i < j) whose values are out of
    order, with empty = +infinity.  Equal labels do not invert."""
    return word_inversions(state.cells)


def word_inversions(cells: Sequence[Cell]) -> int:
    """Pairs (i < j) with cells[j] a label and cells[i] empty or a larger
    label, in one pass: each label counts the empties before it and the
    earlier labels above it, O(len(cells) + b^2)."""
    total = empties = 0
    seen: list[int] = []
    for cell in cells:
        if cell is None:
            empties += 1
            continue
        total += empties
        for earlier in seen:
            if earlier > cell:
                total += 1
        seen.append(cell)
    return total


def _flag_enter(state: FlagState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (positions, word) pair of a flag state.  Labels are positive, so
    the labeled cells are the truthy ones."""
    cells = state.cells
    return tuple(compress(range(len(cells)), cells)), tuple(filter(None, cells))


def _flag_leave(inner: tuple[tuple[int, ...], tuple[int, ...]]) -> FlagState:
    """The flag state of a (positions, word) pair, the i-th label at the
    i-th position, built without the constructor's checks: the positions
    must be strictly increasing naturals, at least one, and the word as
    many positive labels."""
    positions, word = inner
    out: list[Cell] = [None] * (positions[-1] + 1)
    for position, label in zip(positions, word):
        out[position] = label
    return _unchecked_flag(tuple(out))


def erase_labels(state: FlagState) -> JugglingState:
    """Forget labels, keeping only the occupied positions."""
    return JugglingState(_flag_enter(state)[0])


def flag_from_parts(positions: Sequence[int], labels_in_order: Sequence[int]) -> FlagState:
    """Build a flag state from occupied positions and their labels read
    left to right, checked as the constructor checks it.  A label short
    leaves the last position empty, which the constructor refuses; a
    label over would have no cell, and is refused here.  The positions
    are checked before any cell is filled: each exactly an int before
    they are sorted, then distinct naturals as a plain state's."""
    if len(labels_in_order) > len(positions):
        raise ValueError("more labels than positions")
    if not _INT_ONLY.issuperset(map(type, positions)):
        raise ValueError("positions must be ints")
    positions = JugglingState(tuple(sorted(positions))).positions
    return FlagState(_flag_leave((positions, labels_in_order)).cells if positions else ())


def trim_cells(cells: Sequence[Cell]) -> tuple[Cell, ...]:
    """Drop trailing empty cells."""
    out = list(cells)
    while out and out[-1] is None:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# Enumeration helpers

def _walk_positions(
    prefix: tuple[int, ...],
    remaining: int,
    slots: int,
    minimum: int,
    out: list[tuple[int, ...]],
) -> None:
    """Append to `out` each position tuple that extends `prefix` by `slots`
    positions whose gaps are weakly increasing, each at least `minimum`,
    summing to `remaining`, in lexicographic order of the gap vector.

    The gap g at index j is the position g + j, so each position is made
    as its gap is chosen and each finished tuple is appended once, not
    rebuilt from its gaps.  A first gap g leaves slots - 1 gaps of at
    least g, so g runs up to remaining // slots: every branch taken ends
    in a tuple.  Module-level, so no call leaves a reference cycle for
    the cyclic collector."""
    if slots == 0:
        if remaining == 0:
            out.append(prefix)
        return
    j = len(prefix)
    if slots == 1:
        if remaining >= minimum:
            out.append(prefix + (remaining + j,))
        return
    for gap in range(minimum, remaining // slots + 1):
        _walk_positions(prefix + (gap + j,), remaining - gap, slots - 1, gap, out)


def _plain_positions(balls: int, count: int) -> list[tuple[int, ...]]:
    """The positions of each b-ball state with inversion count exactly
    `count`, in lexicographic order of their gap vectors, no state built.

    States correspond to weakly increasing gap vectors (a partition with at
    most b parts summing to `count`): position_j = gap_j + j, so each tuple
    `_walk_positions` lists is strictly increasing naturals by construction.
    """
    if balls < 0:  # `_walk_positions` would recurse without end
        raise ValueError(f"the ball count must be at least 0, got {balls}")
    positions: list[tuple[int, ...]] = []
    _walk_positions((), count, balls, 0, positions)
    return positions


def states_with_inversions(balls: int, count: int) -> Iterator[JugglingState]:
    """All b-ball states with inversion count exactly `count`, in
    lexicographic order of their gap vectors: the positions are listed
    first (`_plain_positions`), then each is checked by the constructor.
    """
    return map(JugglingState, _plain_positions(balls, count))


def states_up_to_inversions(balls: int, max_count: int) -> Iterator[JugglingState]:
    # without balls the one state, the empty one, lies on level 0
    top = max_count if balls else min(max_count, 0)
    for k in range(top + 1):
        yield from states_with_inversions(balls, k)


def state_count_by_inversions(balls: int, count: int) -> int:
    """Number of b-ball states with the given inversion count: the position
    tuples `_plain_positions` lists, counted without building a state."""
    return len(_plain_positions(balls, count))


def distinct_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of `items` once, in the order itertools.permutations
    first yields it: each distinct value by first appearance, followed by each
    ordering of the items left once that value's first copy is removed."""
    items = tuple(items)
    if len(items) < 2:
        yield items
        return
    for value in dict.fromkeys(items):
        i = items.index(value)
        for rest in distinct_permutations(items[:i] + items[i + 1 :]):
            yield (value,) + rest


def _extend_words(
    prefix: tuple[int, ...],
    rest: tuple[int, ...],
    made: int,
    budget: int,
    out: dict[int, list[tuple[int, ...]]],
) -> None:
    """Append to out[i] each distinct ordering of `rest` (ascending) put
    after `prefix`, whose word has i <= budget inversions, `made` of them
    within the prefix and against `rest`; as `distinct_permutations` of
    prefix + rest orders them.

    Each distinct value of `rest` goes next in turn, ascending, which is
    its first-appearance order.  The items it is put before and exceeds
    are those of `rest` below it, as many as the index of its first copy,
    as `rest` is ascending, and removing that copy keeps it ascending.  So
    the inversions made grow with the value, and the first value past the
    budget ends the loop.  Module-level, like `_walk_positions`."""
    if not rest:
        out.setdefault(made, []).append(prefix)
        return
    for i, value in enumerate(rest):
        if i and rest[i - 1] == value:
            continue
        if made + i > budget:
            return
        _extend_words(prefix + (value,), rest[:i] + rest[i + 1 :], made + i, budget, out)


def _label_words(
    labels: Sequence[int], max_count: int
) -> dict[int, list[tuple[int, ...]]]:
    """The distinct words over the label multiset with at most `max_count`
    inversions, listed by inversion count, each list in the order of
    `distinct_permutations(sorted(labels))`; no word past the count is
    made."""
    out: dict[int, list[tuple[int, ...]]] = {}
    _extend_words((), tuple(sorted(labels)), 0, max_count, out)
    return out


def _flag_listing(
    labels: Sequence[int], top: int
) -> tuple[dict[int, list[tuple[int, ...]]], list[list[tuple[int, ...]]]]:
    """What the flag states over `labels` with at most `top` inversions are
    made of, listed once and no state built: the distinct words over the
    labels by inversion count (`_label_words`), and the position tuples of
    each plain level 0..top (`_plain_positions`).  A flag state of count
    n is one tuple of level i filled with one word of count n - i."""
    words = _label_words(labels, top)
    return words, [_plain_positions(len(labels), count) for count in range(top + 1)]


def _flag_levels(labels: Sequence[int], counts: range) -> Iterator[Iterator[FlagState]]:
    """The flag states over `labels` of each inversion count in `counts` in
    turn, one iterator per count (`counts.step` 1): plain tuples with
    plain_inv inversions, each filled with every word of count - plain_inv.
    The labels are checked first, once; the words and the plain levels
    are listed once (`_flag_listing`), up to the last count, for every
    flag level they fill."""
    FlagState(tuple(labels))  # the checked constructor refuses bad labels
    words, plain = _flag_listing(labels, counts.stop - 1)

    def level(count: int) -> Iterator[FlagState]:
        for plain_inv in range(count + 1):
            fills = words.get(count - plain_inv)
            if not fills:
                continue
            for positions in plain[plain_inv]:
                for fill in fills:
                    yield _flag_leave((positions, fill))

    for count in counts:
        yield level(count)


def flag_states_with_inversions(labels: Sequence[int], count: int) -> Iterator[FlagState]:
    """All flag states over the label multiset with inversion count exactly
    `count`.

    The count splits as (plain inversions of the occupied positions)
    + (inversions among the word of labels), so enumerate plain states
    first and fill in label arrangements.
    """
    return itertools.chain.from_iterable(_flag_levels(labels, range(count, count + 1)))


def flag_states_up_to_inversions(labels: Sequence[int], max_count: int) -> Iterator[FlagState]:
    return itertools.chain.from_iterable(_flag_levels(labels, range(max_count + 1)))


# ---------------------------------------------------------------------------
# Window duality

def window_states(balls: int, window: int) -> list[JugglingState]:
    """All b-ball states with every x in [0, window)."""
    return [
        JugglingState(combo)
        for combo in itertools.combinations(range(window), balls)
    ]


def window_dual(state: JugglingState, window: int) -> JugglingState:
    """Reverse the length-`window` word and exchange xs and -s."""
    occupied = set(state.positions)
    if occupied and max(occupied) >= window:
        raise ValueError("state does not fit in the window")
    dual = tuple(
        sorted(window - 1 - p for p in range(window) if p not in occupied)
    )
    return JugglingState(dual)


def window_edges(balls: int, window: int) -> set[tuple[JugglingState, JugglingState]]:
    """Edges of the bounded digraph: throws <= window between window states."""
    edges = set()
    for state in window_states(balls, window):
        for _, target in forward_edges(state, window):
            edges.add((state, target))
    return edges


def window_duality_holds(balls: int, window: int) -> bool:
    """Check that the dual map carries edges of the (b, n) digraph onto the
    reversed edges of the (n-b, n) digraph, bijectively."""
    forward = window_edges(balls, window)
    mapped = {
        (window_dual(tgt, window), window_dual(src, window)) for src, tgt in forward
    }
    return mapped == window_edges(window - balls, window)
