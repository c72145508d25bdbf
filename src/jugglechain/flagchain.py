"""The backward Markov chain on labeled (flag) states, and its digraph.

A flag state is its positions and its word w, the labels read left to
right; `states` alone splits a state into the two (`_flag_enter`) and
fills them back (`_flag_leave`).  Each routine but the sampler is the
plain chain's on the positions times one on the word: positions move
only in `chain` and `states`, and this module reads and writes words.

Backward step: the plain move k, then for k < b the (k+1)-th last label is
carried to the front; at each strictly smaller label on the way a coin
with p(heads) = 1/q is flipped, and tails exchanges the two.  Equal labels
are passed over, so the all-equal case collapses to the plain chain.  The
sampler `FLAG` steps a state's cells by the paper's one sweep
(`_flag_sweep`), which draws the move and walks the word in one pass;
`flag_backward_step` is one step of it.  The exact law is the plain move
law P(k) times the word law W_k, both integer numerators over one
denominator: their product is memoised per word (`_flag_law`), so a
state's law is b + 1 plain moves and one flag state per outcome.  The
sampler run on every flip sequence (`chain.step_law`) is the reference
the tests compare it with.

Forward edges: a plain throw t, with the final drop at t - 1, times the
front label's walks over the labels left of it (`_word_walks`).  Each
walk comes back by one branch of the sweep, so the balance check reads
each term W_k(w', w) off its walk and builds no word law.

The stationary weight is prefactor * q^-inversions, the prefactor being
(1-q^-1)...(1-q^-k) over the groups of equal labels (sizes k).  The
inversions are the plain ones plus the word's, so the weight is the plain
chain's times Mallows' q^-inv(w).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import attrgetter, mul
from typing import Sequence

from .chain import (
    CoinConfig,
    FlipSource,
    Sampler,
    TransitionDist,
    _at_q,
    _inflow_by_move,
    _law,
    _move_law,
    _plain_step,
)
from .errors import CapTooSmall, check_budget
from .series import sn
from .states import (
    Cell,
    FlagState,
    _flag_enter,
    _flag_leave,
    _landings,
    _position_inversions,
    _unchecked_flag,
    _unchecked_state,
    flag_inversions,
    forward_edges,
    word_inversions,
)


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
    q = Fraction(q)
    return _group_prefactor(label_groups(labels), q.numerator, q.denominator)


@lru_cache(maxsize=256)
def _group_prefactor(groups: tuple[tuple[int, int], ...], a: int, c: int) -> Fraction:
    """`group_prefactor` of one multiset at q = a/c in lowest terms: every
    state of it shares the value, so it is memoised per (label groups, a,
    c), a key of ints alone."""
    q = Fraction(a, c)
    out = Fraction(1)
    for _, size in groups:
        out *= sn(size, q)
    return out


@dataclass(frozen=True)
class FlagTransition:
    target: FlagState
    drops: frozenset[int]  # positions where a label was put down


def _word_walks(
    word: tuple[int, ...], m: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """The forward walks of `word` when its final drop has m labels to its
    left, each as (w', e, s): the front label walks over word[1 : m + 1],
    optionally exchanging itself with each strictly larger label (putting
    itself down and carrying on with that one), and the label it carries
    at the end is put down after them, leaving the word w'; e counts the
    exchanges and s the strictly smaller labels passed.

    Each walk is read back by the backward sweep's move k = b - 1 - m,
    with q = a/c, as W_k(w', word) = a^(b-1-e-s) (a-c)^e c^s / a^(b-1).
    The sweep carries w'[m] left over w'[:m], and flips only at a label
    strictly below the one it holds: heads leaves that label in the cell
    and tails the held one, two different labels, so the word left fixes
    every flip, and at most one branch of the sweep takes w' to `word`.
    The walk run backwards is such a branch.  Where it exchanged, the cell
    holds its smaller label and the sweep holds the larger: tails, of
    weight a - c, swaps them back.  Where it passed a strictly smaller
    label, heads, of weight c, passes it again.  Any other label is
    passed with no flip, of weight a, and the sweep starts at a^k.  So
    W_k(w', word) is this one branch's weight.  Distinct walks leave
    distinct words, repeated labels included: two walks leaving one w'
    would both run back as the one branch from w' to `word`, whose tails
    mark the exchanges of each, and a walk is fixed by its exchanges.  And
    every w' with W_k(w', word) > 0 is a walk's, since a branch run
    forwards is a walk.
    """
    walks = [((), word[0], 0, 0)]  # (labels walked over, label carried, e, s)
    for label in word[1 : m + 1]:
        grown = []
        for done, carried, e, s in walks:
            if label > carried:
                grown.append((done + (label,), carried, e, s))
                grown.append((done + (carried,), label, e + 1, s))
            else:
                grown.append((done + (label,), carried, e, s + (label < carried)))
        walks = grown
    after = word[m + 1 :]
    return [(done + (carried,) + after, e, s) for done, carried, e, s in walks]


def _walk_counts(word: tuple[int, ...]) -> list[int]:
    """len(_word_walks(word, m)) for m = 0..b-1, none listed.  A walk is
    fixed by the labels it exchanges with, an increasing chain word[0] <
    word[j1] < word[j2] < ... with 0 < j1 < j2 < ...; chains[j] counts the
    chains ending at j, the sum of those ending at an earlier, smaller
    label, and the walks at m are the chains ending at or before m."""
    chains = [1]
    for j in range(1, len(word)):
        chains.append(sum([n for n, low in zip(chains, word) if low < word[j]]))
    return list(accumulate(chains))


def flag_forward_edges(state: FlagState, max_drop: int) -> list[FlagTransition]:
    """All outgoing transitions whose drops stay at positions <= max_drop:
    a plain throw t of the state's positions, the final drop at t - 1, times
    each word of `_word_walks`.  An empty-initial state has the unique edge
    deleting its leading empty.  Drops increase along a walk, so capping
    the final drop caps them all.  ResourceLimit, before any is listed,
    when the edges exceed the budget: per count m of labels left of the
    final drop, the throws (`states._landings`) times the walks."""
    if state.cells[0] is None:
        return [FlagTransition(FlagState(state.cells[1:]), frozenset())]
    source, word = _flag_enter(state)
    throws = _landings(source, max_drop + 1)
    check_budget(sum(map(mul, throws, _walk_counts(word))), "edge")
    results = []
    for t, target in forward_edges(_unchecked_state(source), max_drop + 1):
        positions = target.positions
        m = positions.index(t - 1)
        for walked, _, _ in _word_walks(word, m):
            # an exchange puts down a strictly smaller label, so the
            # exchanges are where the walked labels differ from the word's
            drops = {positions[i] for i in range(m) if walked[i] != word[i + 1]}
            drops.add(t - 1)
            results.append(
                FlagTransition(_flag_leave((positions, walked)), frozenset(drops))
            )
    results.sort(key=lambda tr: (sorted(tr.drops), str(tr.target)))
    return results


def _flag_sweep(
    cells: tuple[Cell, ...], coin: CoinConfig, rng: FlipSource
) -> tuple[Cell, ...]:
    """One step on a state's cells, the paper's backward sweep: hold an
    empty (+infinity), walk left from the last label, flip at each label
    below the held item, and on tails exchange the two; the held item ends
    in front, and the empties a picked-up last label leaves are trimmed.

    While the empty is held every label is a stop, so those flips are
    `chain._positions_step`'s draw of the move k, and its tails picks up
    the (k+1)-th last label, leaving the labels on `chain._plain_step`'s
    positions.  The later flips walk the held label over the word alone,
    passing empties and equal labels, so a flip sequence has probability
    P(k) W_k (`flag_backward_dist`).  Labels only go where labels were, so
    the cells are a checked state's, rearranged.
    """
    p = coin.heads_probability
    out = list(cells)
    held = None
    for i in range(len(out) - 1, -1, -1):
        label = out[i]
        if label is not None and (held is None or label < held) and not rng.heads(p):
            out[i], held = held, label
    while out and out[-1] is None:
        out.pop()
    return (held, *out)


# The flag chain steps a state's cells and leaves them unchecked (see the
# sweep); the laws and forward edges fill theirs unchecked (`_flag_leave`).
FLAG = Sampler(_flag_sweep, attrgetter("cells"), _unchecked_flag)


def flag_backward_step(
    state: FlagState, coin: CoinConfig, rng: FlipSource
) -> FlagState:
    """One sampled step of the flag chain, `FLAG` entered and left."""
    return _unchecked_flag(_flag_sweep(state.cells, coin, rng))


def _word_law(
    word: tuple[int, ...], k: int, coin: CoinConfig
) -> tuple[dict[tuple[int, ...], int], int]:
    """W_k(word, .): the law of the word after the plain move k, walked by
    `_flag_sweep` once it holds a label, as integer numerators over one
    denominator a^(b-1), q = a/c, with b labels.  `_flag_law` alone builds
    it, once per (word, coin) for every k, and memoises the product.

    The carried label walks left over the labels before it, as in the
    sweep, all branches at once: a branch is the labels passed so far and
    the label held, and equal branches merge.  At a label below the held
    one, heads (c of a) passes it and tails (a - c) puts the held label
    down and carries that one on; any other label is passed, all a of the
    weight.  The walk covers b - 1 - k labels, each multiplying the
    denominator by a, and it starts at a^k, so every branch is over
    a^(b-1).  The move k = b keeps the word, with all of the weight.
    `step_law` of the sweep on the word's gap-free cells, divided by P(k),
    is the same law; the tests compare the two.
    """
    a, c = coin.ac
    top = a ** (len(word) - 1)
    moved = len(word) - 1 - k
    if moved < 0:
        return {word: top}, top
    branches = {((), word[moved]): a**k}
    for label in reversed(word[:moved]):
        grown: dict = {}
        for (passed, held), n in branches.items():
            kept = ((label,) + passed, held)
            if label < held:
                swapped = ((held,) + passed, label)
                grown[kept] = grown.get(kept, 0) + n * c
                grown[swapped] = grown.get(swapped, 0) + n * (a - c)
            else:
                grown[kept] = grown.get(kept, 0) + n * a
        branches = grown
    law: dict = {}
    after = word[moved + 1 :]
    for (passed, held), n in branches.items():
        outcome = (held,) + passed + after
        law[outcome] = law.get(outcome, 0) + n
    return law, top


@lru_cache(maxsize=4096)
def _flag_law(
    word: tuple[int, ...], coin: CoinConfig
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """P(k) W_k(word, w') for every move k, as integer numerators over one
    denominator a^b a^(b-1): per move k, the pairs (w', numerator).  It
    depends on the word alone, so it is memoised per (word, coin)."""
    moves, den = _move_law(len(word), coin)
    laws = []
    for k, move in enumerate(moves):
        law, top = _word_law(word, k, coin)
        laws.append(tuple([(w, move * n) for w, n in law.items()]))
    return tuple(laws), den * top


@lru_cache(maxsize=4096)
def _word_inversions(word: tuple[int, ...]) -> int:
    """`word_inversions` of a word of labels.  The balance checks read it
    for every source word of every state, and `_word_walks` leaves the
    same few words for many states, so it is memoised like `_flag_law`."""
    return word_inversions(word)


def flag_backward_dist(state: FlagState, coin: CoinConfig) -> TransitionDist:
    """The exact one-step law: the plain move k with probability P(k)
    (`chain._move_law`), times the word law W_k (`_word_law`), in integers
    over one denominator (`_flag_law`).

    `flag_backward_step`'s sweep draws k with its first flips and then
    walks the word alone (`_flag_sweep`), so each outcome's probability is
    the product.  Each outcome is a valid flag state (`_flag_leave`).
    `step_law(flag_backward_step, state, coin)` is the same law, enumerated
    from the sampler; the tests compare the two.
    """
    positions, word = _flag_enter(state)
    laws, den = _flag_law(word, coin)
    entries = []
    for k, law in enumerate(laws):
        after = _plain_step(positions, k)
        for outcome, n in law:
            entries.append((_flag_leave((after, outcome)), n))
    return _law(entries, den)


def flag_stationary_weight(state: FlagState, coin: CoinConfig) -> Fraction:
    return group_prefactor(state.labels, coin.q) * coin.q ** -flag_inversions(state)


class StationarityBracket:
    """Result of a truncated balance check: the inflow is known to lie in
    [partial_sum, partial_sum + tail_bound], and `expected` is the state's
    stationary weight.

    The three share the state's group prefactor, so the check holds each
    over it as an integer pair (numerator, denominator), and `ok` compares
    them by cross-multiplication.  Each public field is the exact
    `Fraction`, prefactor * numerator / denominator, made on its first
    read.
    """

    def __init__(
        self,
        state: FlagState,
        coin: CoinConfig,
        expected: tuple[int, int],
        partial_sum: tuple[int, int],
        tail_bound: tuple[int, int],
    ) -> None:
        self._state, self._coin = state, coin
        self._expected, self._partial, self._tail = expected, partial_sum, tail_bound

    @property
    def ok(self) -> bool:
        # partial <= expected <= partial + tail; every denominator is positive
        (en, ed), (pn, pd), (tn, td) = self._expected, self._partial, self._tail
        return pn * ed <= en * pd and en * pd * td <= (pn * td + tn * pd) * ed

    @cached_property
    def _prefactor(self) -> Fraction:
        return group_prefactor(self._state.labels, self._coin.q)

    def _over_prefactor(self, pair: tuple[int, int]) -> Fraction:
        # one reduction of the product, not one per factor and one after
        p, (n, d) = self._prefactor, pair
        return Fraction(p.numerator * n, p.denominator * d)

    @cached_property
    def expected(self) -> Fraction:
        return self._over_prefactor(self._expected)

    @cached_property
    def partial_sum(self) -> Fraction:
        return self._over_prefactor(self._partial)

    @cached_property
    def tail_bound(self) -> Fraction:
        return self._over_prefactor(self._tail)

    def __repr__(self) -> str:
        return (
            f"StationarityBracket(expected={self.expected!r}, "
            f"partial_sum={self.partial_sum!r}, tail_bound={self.tail_bound!r})"
        )


# the balance check's default: the tail bound must be below this share of
# the state's weight
_TOLERANCE = Fraction(1, 1024)


def _flag_inflow(
    state: FlagState, coin: CoinConfig, max_drop: int | None = None
) -> tuple[int, int]:
    """The balance inflow into `state` over its group prefactor and its
    plain weight q^-inversions of its positions, weight * backward
    probability summed over its successors, those with every drop at or
    below `max_drop` when it is given; as integers (num, den) with num/den
    the inflow.

    A successor fills the plain successor after a throw t with a word w'
    of `_word_walks(w, m)`, m labels lying left of the final drop t - 1.
    It comes back by the plain move k = b - 1 - m and then the sweep's
    walk of the word, with probability P_k * W_k(w', w), and its weight is
    the group prefactor * q^-(plain inversions) * q^-inv(w').  The walk
    gives W_k(w', w) = a^(b-1-e-s) (a-c)^e c^s / a^(b-1), q = a/c, from its
    e exchanges and s smaller labels passed (`_word_walks` proves it), so
    no word law is built; inv(w') is counted from w' itself.  The word
    part does not depend on t, so the inflow is the sum over k of plain_k
    * sum_w' x^inv(w') W_k(w', w), x = 1/q, with plain_k the monomials of
    `chain._inflow_by_move`.  Each plain monomial times x^inv(w')
    W_k(w', w) is one term, and `chain._at_q` sums them all over the one
    denominator a^(b-1).  The far drops (one label carried ever further
    past the last label) are the plain j = b tail, k = 0.  An empty-front
    state comes back from its shift down by k = b, word kept, with all of
    the weight.
    """
    positions, word = _flag_enter(state)
    b = len(word)
    a, c = coin.ac
    max_throw = None if max_drop is None else max_drop + 1
    terms = []
    for k, monomials in _inflow_by_move(_unchecked_state(positions), max_throw).items():
        walks = [(word, 0, 0)] if k == b else _word_walks(word, b - 1 - k)
        for source, e, s in walks:
            n = a ** (b - 1 - e - s) * (a - c) ** e * c**s
            shift = _word_inversions(source)
            terms.extend([(coef * n, power + shift) for coef, power in monomials])
    return _at_q(terms, a ** (b - 1), coin)


def flag_stationarity_holds(state: FlagState, coin: CoinConfig) -> bool:
    """Exact balance check at `state`, the flag counterpart of
    `chain.verify_stationarity`: its stationary weight must equal the
    weight flowing into it in one step, `_flag_inflow` with the far drops
    summed to infinity in closed form.  Every successor has the same
    labels, so the group prefactor of each weight cancels, and so does the
    plain weight: the inflow num/den must be x^inv(w) for the state's word
    w, x = 1/q = c/a, compared in integers as num * a^inv == den * c^inv."""
    num, den = _flag_inflow(state, coin)
    inv = _word_inversions(_flag_enter(state)[1])
    a, c = coin.ac
    return num * a**inv == den * c**inv


def verify_flag_stationarity(
    state: FlagState,
    coin: CoinConfig,
    drop_cap: int,
    tolerance: Fraction = _TOLERANCE,
) -> StationarityBracket:
    """Bracketed balance check at `state`, kept only because the
    benchmark's `perfbench/verify.py` calls it; `flag_stationarity_holds`
    is the exact check.

    The partial sum is `_flag_inflow` capped at drop_cap, and an exact
    geometric tail bound covers the rest; a leading-empty state has no far
    drops and no tail.  Raises ValueError when drop_cap is below the last
    label position + b, and CapTooSmall, before any summing, when the tail
    bound is not below tolerance * weight(state).

    The check runs in integers alone.  The weight, the partial sum and the
    tail bound each are the group prefactor times a ratio of integers, with
    q = a/c, so the prefactor cancels: the `CapTooSmall` test and the
    bracket's `ok` cross-multiply those (numerator, denominator) pairs, and
    the bracket makes its exact `Fraction` fields only when they are read.

    The tail bound: every omitted successor comes from a walk whose final
    drop lands at a position p > drop_cap; such a target keeps at most b-1
    other labels left of p, hence has at least p - b + 1 inversions, so
    its weight is at most prefactor * q^(b-1-p).  At most 2^(b-1) walks
    end at any given p (a walk is determined by its exchange subset and
    final drop), and each backward probability is at most 1.  Summing the
    geometric series over p > drop_cap gives the bound,
    2^(b-1) * prefactor * q^-n / (q - 1) with n = drop_cap + 1 - b.
    """
    a, c = coin.ac
    positions, word = _flag_enter(state)
    b = len(word)
    plain = _position_inversions(positions)
    inv = plain + _word_inversions(word)
    expected = c**inv, a**inv
    if state.cells[0] is None:
        tail, max_drop = (0, 1), None
    else:
        if drop_cap < len(state.cells) - 1 + b:
            raise ValueError("drop_cap must be at least last label position + b")
        n = drop_cap + 1 - b
        tail = 2 ** (b - 1) * c ** (n + 1), a**n * (a - c)
        tol = Fraction(tolerance)
        # tail >= tolerance * expected, each over the prefactor
        if tail[0] * expected[1] * tol.denominator >= (
            expected[0] * tail[1] * tol.numerator
        ):
            prefactor = group_prefactor(state.labels, coin.q)
            raise CapTooSmall(
                f"tail bound {prefactor * Fraction(*tail)} is not below "
                f"{tolerance} * weight {prefactor * Fraction(*expected)}"
            )
        max_drop = drop_cap
    num, den = _flag_inflow(state, coin, max_drop)
    # _flag_inflow leaves out the plain weight x^plain
    partial = num * c**plain, den * a**plain
    return StationarityBracket(state, coin, expected, partial, tail)
