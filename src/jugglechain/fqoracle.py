"""Ground truth from linear algebra over Z/p.

Exhaustive enumeration of b x N matrices tallies pivot-column states and
their labeled refinement, giving the fractions and transition laws that
the chains must reproduce with q = p.  Both come from one row reduction:
each row's pivot is its leading column once reduced against the rows
above it.  Two families of matrices are counted: every b x N matrix (a
sweep, `_sweep_counts`) and every column prepended to one matrix (a
column-prepend law, `_prepend_counts`).  The counts are keyed by inner
states, as the chain laws are (`chain.PLAIN`, `flagchain.FLAG`): a lead
tuple's sorted leads, or the cells with each row's label at its lead,
filled in row order (`_key`).  A sweep makes one state per key; a
column-prepend law holds the keys, so comparing it with a chain law makes
no state, and a state is made only when the law is read.

Both counters enumerate the rows above the last depth first, each node
weighted by the number of matrices it stands for and classified by its
own lead.  The reduced rows above a node have distinct leads and span the
space V that the rows above span.  By `_leading_columns` a row's lead is
the rightmost start of its coset row + V, so each row's lead depends on
the rows above only through V.  A column-prepend law's node is one
reduced row, kept in `reduced` (lead -> row) for every extension of its
prefix and removed on backtrack, so the reduction of a prefix of rows is
done once and shared by every matrix that starts with it.  A sweep's
rows take all of F^N, so the rows below depend on V only through its
leads: a sweep's node is one lead prefix, and it keeps no row.  When a
row lies in V, `_leading_columns` returns None without reading later
rows, so all of the prefix's completions are rank deficient, counted at
once.  The last row is counted, not listed.

A row is classified by its projection: the one vector of its coset mod V
that is zero at every lead of V.  The reduced rows, by ascending lead, each
subtract the multiple of themselves that clears their lead, and none
disturbs a smaller lead, where it is zero; two such vectors of one coset
differ by a vector of V zero at every lead, and a nonzero vector of V
starts at a lead, so they are equal.  This projection is linear, and it
starts where `_reduce` ends (None: it is zero): every other vector of the
coset adds a nonzero vector of V, which starts at a lead, where the
projection is zero, so it starts no later than the projection.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .chain import PLAIN, TransitionDist, _law
from .errors import check_budget
from .flagchain import FLAG, label_groups
from .states import (
    FlagState,
    JugglingState,
    _INT_ONLY,
    _check_labels,
    _flag_cells,
    _flag_enter,
    flag_inversions,
    inversions,
)

SUPPORTED_PRIMES = (2, 3, 5)
# _INVERSES[p][a]: the inverse of a != 0 in Z/p
_INVERSES = {p: [0] + [pow(a, -1, p) for a in range(1, p)] for p in SUPPORTED_PRIMES}


def _check_modulus(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"modulus must be one of {SUPPORTED_PRIMES}")


@dataclass(frozen=True)
class FqMatrix:
    """Dense row-major matrix over Z/p; each entry exactly an int (a bool,
    a float or a str is none), reduced mod p."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_modulus(self.p)
        if not all(_INT_ONLY.issuperset(map(type, row)) for row in self.rows):
            raise ValueError("entries must be ints")
        rows = tuple(tuple(e % self.p for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def prepend_column(self, col: Sequence[int]) -> "FqMatrix":
        if len(col) != self.height:
            raise ValueError("column height mismatch")
        return FqMatrix(
            self.p,
            tuple((c,) + row for c, row in zip(col, self.rows)),
        )


def enumerate_matrices(height: int, width: int, p: int) -> Iterator[FqMatrix]:
    """All p^(b*N) matrices, columns varying lexicographically."""
    check_budget(p ** (height * width), "matrix")
    column_space = list(itertools.product(range(p), repeat=height))
    for cols in itertools.product(column_space, repeat=width):
        # zip over no columns gives no rows: width 0 has b empty ones
        yield FqMatrix(p, tuple(zip(*cols)) or ((),) * height)


def _reduce(
    row: Sequence[int], reduced: dict[int, Sequence[int]], p: int
) -> tuple[Sequence[int], Optional[int]]:
    """Reduce a row against rows with distinct leading columns (lead ->
    row): while its lead is a reduced row's lead, subtract the multiple of
    that row which clears it.  Returns the row and its final lead, None
    once it reaches zero."""
    v, start = row, 0
    while True:
        lead = None
        for j in range(start, len(v)):  # a loop, not next(genexpr): hot
            if v[j]:
                lead = j
                break
        if lead not in reduced:
            return v, lead
        w = reduced[lead]
        factor = v[lead] * pow(w[lead], -1, p) % p
        v = [(a - factor * b) % p for a, b in zip(v, w)]
        start = lead + 1


def _leading_columns(matrix: FqMatrix) -> Optional[list[int]]:
    """Each row's pivot column, top to bottom; None if the rank falls
    short of the number of rows.

    Each row is reduced in turn against the reduced rows above it
    (`_reduce`).  A row that reaches zero lies in the span of the rows
    above.  The lead a row ends on is its pivot:
    - the reduced rows above have distinct leads and span what the rows
      above span, so any nonzero vector of that span starts at one of
      their leads, never at this row's;
    - adding such a vector to the reduced row moves its start left or
      keeps it, so the final lead is the rightmost start that any vector
      of row_i + span(rows above) can have;
    - the northwest rank difference r[i][j] - r[i-1][j] (r: ranks of the
      top-i by left-j submatrices) is 1 exactly when every vector of that
      coset is nonzero among the first j columns, so it jumps from 0 to 1
      at that column.
    """
    reduced: dict[int, Sequence[int]] = {}  # leading column -> reduced row
    leads = []
    for row in matrix.rows:
        v, lead = _reduce(row, reduced, matrix.p)
        if lead is None:
            return None
        reduced[lead] = v
        leads.append(lead)
    return leads


def _sweep_counts(p: int, height: int, width: int) -> defaultdict:
    """How many height x width matrices over Z/p have each lead tuple of
    `_leading_columns` (None: rank deficient).

    Row i takes all of F^N (rule 1), whose vectors fall into cosets of V,
    p^i each (the i reduced rows are independent).  Each row stands for its
    coset: its lead is its projection's start, and the rows below see it
    only through V + span(row), the same for the whole coset.  So only the
    projections count, each weighted p^i, and the zero one, V itself,
    counts p^i rank-deficient rows with all their completions.  The nonzero
    projections on one line through 0 share their start and V + span(row)
    too, so one per line counts, the one whose first nonzero is 1, weighted
    (p - 1) p^i.

    One node per lead prefix, not per line: the subtree below a row depends
    only on the leads of V + span(row), which are V's leads and the row's.
    Induct from the last row up: a row's projections are the vectors zero
    at V's leads (projecting is the identity on them, and its kernel is V),
    so which of them start at each column, and so the counts of the rows
    below, depend only on V's leads.  The lines through 0 that start at a
    column j off V's leads are the vectors with a 1 at j, zeros before j
    and at every lead, and all of Z/p at the other columns past j: p^free
    of them, free the columns past j off V's leads.  Their subtrees are
    equal, so one child stands for them all, weighted (p - 1) p^i p^free.
    No row is listed or reduced; only leads are kept.

    This is a count, not a restatement of the formulas it is checked
    against.  A lead tuple's count is a product of powers of p, one factor
    per row, read off the columns free past each lead.  It meets
    `formula_pivot_fraction`'s |GL_b| / p^(b^2) / p^inv only summed over
    the row orders of its sorted leads, by the q-factorial (Mahonian)
    identity: the sum over S_b of x^inv is [b]_x!, at x = 1/p.  The tests
    hold it to `_leading_columns` of every matrix in a small budget.

    The last row's lines are counted in the same way, right to left over
    the columns off V's leads: each adds a share, at first (p - 1) p^i
    weight, at its lead and multiplies the share by p.
    """
    counts: defaultdict = defaultdict(int)
    if not height:
        counts[()] = 1  # the one 0 x w matrix has full rank
        return counts
    leads: list[int] = []

    def descend(i: int, weight: int) -> None:
        coset = p**i
        counts[None] += weight * coset * p ** (width * (height - 1 - i))
        share = weight * (p - 1) * coset
        if i == height - 1:
            prefix = tuple(leads)
            for j in reversed(range(width)):
                if j not in leads:
                    counts[(*prefix, j)] += share
                    share *= p
            return
        free = width - i  # the columns off V's leads
        for j in range(width):
            if j in leads:
                continue
            free -= 1
            leads.append(j)
            descend(i + 1, share * p**free)
            leads.pop()

    descend(0, 1)
    return counts


def _prepend_counts(matrix: FqMatrix) -> defaultdict:
    """How many of the p^b matrices made by prepending a column to the
    b x N `matrix` have each lead tuple of `_leading_columns` (None: rank
    deficient).

    Row i ranges over the line x + c*e_0, x the row with 0 prepended (rule
    2).  Projecting is linear, so its projections are u + c*g, u and g the
    projections of x and e_0.  Each node projects its row's u past the
    reduced rows in row order: each is zero at the leads of the rows above
    it, so clearing its own lead disturbs none already cleared.  g is the same for
    every row below a node, so it is carried down the descent with the last
    row's u: a node's row is zero at every lead above it, as is each
    carried vector, so one row operation clears the node's lead in each and
    leaves them the projections past the grown span.  The root projects
    them past no row: they are the last x and e_0.

    Column-0 scaling: while 0 is no reduced row's lead, row i's values
    c != 0 count as the value 1, so only the values 0 and 1 are enumerated,
    the value 1 weighted p - 1, and that weight multiplies every count of
    its subtree.  Proof:
    - the reduced rows have distinct leads, none at column 0, and span what
      the rows above span, so every row above is zero in column 0;
    - multiplying column 0 by a unit u is an invertible column operation
      within every left-j submatrix, so it keeps every northwest rank and,
      by `_leading_columns`, every lead tuple;
    - it fixes the rows above, maps row i's value c to u*c and permutes the
      column-0 values of each later row, which range over all of Z/p, so
      it maps the matrices whose row i has value c one to one onto those
      whose row i has value u*c, with the same leads;
    - u = 1/c maps every c != 0 to 1.

    The last row leads where u + c*g starts, for each c (rule 3): let k be
    g's first nonzero.  If u has a nonzero before k, all p values lead at
    u's first nonzero.  Else every c leads at k but the one that cancels
    g's first nonzero, c = -u[k] / g[k], whose lead is the first nonzero of
    u + c*g past k (None: rank deficient).  If g = 0, every value gives u.
    """
    p = matrix.p
    counts: defaultdict = defaultdict(int)
    if not matrix.rows:
        counts[()] = 1  # the one 0 x w matrix has full rank
        return counts
    *upper, last = [[0, *row] for row in matrix.rows]
    width = len(last)
    inverse = _INVERSES[p]
    reduced: dict[int, list[int]] = {}
    leads: list[int] = []

    def clear(x: list[int], w: list[int], lead: int) -> list[int]:
        # x less the multiple of w, leading at `lead`, that clears x[lead]
        if not x[lead]:
            return x
        f = x[lead] * inverse[w[lead]]
        return [(a - f * b) % p for a, b in zip(x, w)]

    def descend(i: int, weight: int, last_u: list[int], g: list[int]) -> None:
        if i == len(upper):  # rule 3
            prefix = tuple(leads)
            for k in range(width):
                if g[k]:
                    break
                if last_u[k]:
                    counts[(*prefix, k)] += p * weight
                    return
            else:  # g = 0 and u = 0: every value gives zero
                counts[None] += p * weight
                return
            counts[(*prefix, k)] += (p - 1) * weight
            c = -last_u[k] * inverse[g[k]] % p
            for m in range(k + 1, width):
                if (last_u[m] + c * g[m]) % p:
                    counts[(*prefix, m)] += weight
                    return
            counts[None] += weight
            return
        u = upper[i]
        for lead, w in reduced.items():  # row order
            u = clear(u, w, lead)
        scaling = 0 not in reduced
        for c in (0, 1) if scaling else range(p):
            v = [(a + c * b) % p for a, b in zip(u, g)] if c else u
            share = weight * (p - 1) if scaling and c else weight
            lead = None
            for k in range(width):
                if v[k]:
                    lead = k
                    break
            if lead is None:
                counts[None] += share * p ** (len(upper) - i)
                continue
            reduced[lead] = v
            leads.append(lead)
            descend(i + 1, share, clear(last_u, v, lead), clear(g, v, lead))
            leads.pop()
            del reduced[lead]

    descend(0, 1, last, [1] + [0] * (width - 1))
    return counts


def _key(leads: Sequence[int], ordered: Optional[Sequence[int]]) -> tuple:
    """The inner state of a full-rank lead tuple, row i leading at
    leads[i]: its sorted leads, `PLAIN`'s positions, when `ordered` is
    None, else its cells with label ordered[i] at leads[i], `FLAG`'s
    (`_flag_cells`), made straight from the leads in row order.  The leads
    are distinct naturals (`_leading_columns` keys each reduced row by its
    lead), and the labels are 1..height or were checked where they entered
    (`group_fraction_sweep`, `coarse_flag_pivot_state`), so `PLAIN.leave`
    and `FLAG.leave` make each state unchecked."""
    if ordered is None:
        return tuple(sorted(leads))
    if not ordered:  # no flag state has zero labels
        raise ValueError("a labeled state needs at least one row")
    return _flag_cells(leads, ordered)


def _state_counts(
    counts: dict, ordered: Optional[Sequence[int]]
) -> defaultdict:
    """Lead tuple `counts` by `_key` (None: rank deficient), the counts of
    lead tuples with one key summed; no state is made."""
    by_key: defaultdict = defaultdict(int)
    for leads, count in counts.items():
        by_key[leads if leads is None else _key(leads, ordered)] += count
    return by_key


def pivot_state(matrix: FqMatrix) -> Optional[JugglingState]:
    """Pivot columns under left-to-right elimination: column j is pivotal
    iff it is not in the span of the columns before it.  These are the
    rows' leading columns, where the rank of the left-j submatrix grows.
    None if the rank falls short of the number of rows."""
    leads = _leading_columns(matrix)
    return None if leads is None else PLAIN.leave(_key(leads, None))


def flag_pivot_state(matrix: FqMatrix) -> Optional[FlagState]:
    """The labeled refinement of pivot_state: label i sits at row i's
    leading column, where the northwest rank function jumps by one in
    both directions.

    This is the complete invariant of downward row operations together
    with rightward column operations; erasing labels recovers
    pivot_state.  None if the rank falls short.
    """
    return coarse_flag_pivot_state(matrix, range(1, matrix.height + 1))


def coarse_flag_pivot_state(
    matrix: FqMatrix, labels: Sequence[int]
) -> Optional[FlagState]:
    """flag_pivot_state with row i relabeled by the i-th entry of the
    sorted label multiset (rows come in contiguous equal-label groups);
    ValueError, whatever the rank, on a wrong label count or label."""
    ordered = sorted(labels)
    if len(ordered) != matrix.height:
        raise ValueError("label multiset size must match the row count")
    _check_labels(ordered)
    leads = _leading_columns(matrix)
    if leads is None:
        return None
    return FLAG.leave(_key(leads, ordered))


def gl_order(b: int, p: int) -> int:
    """Number of invertible b x b matrices over Z/p."""
    out = 1
    for i in range(b):
        out *= p**b - p**i
    return out


def formula_pivot_fraction(b: int, p: int, target: JugglingState) -> Fraction:
    """|GL_b| / p^(b^2) / p^inversions: the predicted fraction, N-free,
    one `Fraction` of integers."""
    return Fraction(gl_order(b, p), p ** (b * b + inversions(target)))


def formula_flag_fraction(b: int, p: int, target: FlagState) -> Fraction:
    """((p - 1)/p)^b / p^flag_inversions, one `Fraction` of integers."""
    return Fraction((p - 1) ** b, p ** (b + flag_inversions(target)))


def formula_group_fraction(
    labels: Sequence[int], p: int, target: FlagState
) -> Fraction:
    """The group prefactor at q = p over p^flag_inversions, one `Fraction`
    of integers: a group of m equal labels contributes (1 - p^-1)...(1 -
    p^-m) = (p - 1)(p^2 - 1)...(p^m - 1) / p^(m(m + 1)/2)."""
    num, exponent = 1, flag_inversions(target)
    for _, size in label_groups(labels):
        for i in range(1, size + 1):
            num *= p**i - 1
        exponent += size * (size + 1) // 2
    return Fraction(num, p**exponent)


def _fraction_sweep(
    height: int, width: int, p: int, ordered: Optional[Sequence[int]]
) -> dict:
    """Fraction of all height x width matrices over Z/p by state: plain
    when `ordered` is None, else row i labeled ordered[i]."""
    _check_modulus(p)
    # exactly ints, as `FqMatrix`'s entries: a bool is none
    if not _INT_ONLY.issuperset(map(type, (height, width))) or min(height, width) < 0:
        raise ValueError("height and width must be ints of at least 0")
    total = p ** (height * width)
    check_budget(total, "matrix")
    counts = _state_counts(_sweep_counts(p, height, width), ordered)
    leave = PLAIN.leave if ordered is None else FLAG.leave
    return {
        key if key is None else leave(key): Fraction(count, total)
        for key, count in counts.items()
    }


def pivot_fraction_sweep(
    b: int, n: int, p: int
) -> dict[Optional[JugglingState], Fraction]:
    """Fraction of b x N matrices by pivot state (None = rank deficient)."""
    return _fraction_sweep(b, n, p, None)


def flag_fraction_sweep(b: int, w: int, p: int) -> dict[Optional[FlagState], Fraction]:
    return _fraction_sweep(b, w, p, range(1, b + 1))


def group_fraction_sweep(
    labels: Sequence[int], w: int, p: int
) -> dict[Optional[FlagState], Fraction]:
    _check_labels(labels)  # whatever the ranks, before any matrix
    return _fraction_sweep(len(labels), w, p, sorted(labels))


def _prepend_law(
    matrix: FqMatrix, ordered: Optional[Sequence[int]]
) -> TransitionDist:
    """Law of the state of `matrix` (as in `_fraction_sweep`) after
    prepending a uniformly random column, `ordered` None or the labels
    1..height.  Prepending keeps full rank, so no column leaves None; a
    rank-deficient matrix stays so under the zero column, so a None count
    refuses it."""
    counts = _state_counts(_prepend_counts(matrix), ordered)
    if None in counts:
        raise ValueError("matrix must have full rank")
    leave = PLAIN.leave if ordered is None else FLAG.leave
    return _law(counts, matrix.p**matrix.height, leave)


def column_prepend_dist(matrix: FqMatrix) -> TransitionDist:
    """Law of the pivot state after prepending a uniformly random column.

    Must coincide with the plain backward chain's one-step law at q = p.
    """
    return _prepend_law(matrix, None)


def flag_column_prepend_dist(matrix: FqMatrix) -> TransitionDist:
    """Labeled version: must coincide with the flag chain's law at q = p."""
    return _prepend_law(matrix, range(1, matrix.height + 1))


def matrix_for_state(state: JugglingState, width: int, p: int) -> FqMatrix:
    """A full-rank matrix with the given pivot state: row i has a 1 in the
    i-th occupied column."""
    if state.positions and state.positions[-1] >= width:
        raise ValueError("state does not fit in the width")
    rows = []
    for i, pos in enumerate(state.positions):
        row = [0] * width
        row[pos] = 1
        rows.append(tuple(row))
    return FqMatrix(p, tuple(rows))


def partial_permutation_matrix(state: FlagState, width: int, p: int) -> FqMatrix:
    """The partial permutation matrix of a distinct-label flag state:
    a 1 in row `label`, column `position` for every labeled cell."""
    positions, word = _flag_enter(state)
    labels = sorted(word)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if len(state.cells) > width:
        raise ValueError("state does not fit in the width")
    rows = [[0] * width for _ in labels]
    rank = {lab: i for i, lab in enumerate(labels)}
    for pos, label in zip(positions, word):
        rows[rank[label]][pos] = 1
    return FqMatrix(p, tuple(tuple(r) for r in rows))
