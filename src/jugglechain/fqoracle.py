"""Ground truth from linear algebra over Z/p.

Exhaustive enumeration of b x N matrices tallies pivot-column states and
their labeled refinement, giving the fractions and transition laws that
the chains must reproduce with q = p.  Both come from one row reduction:
each row's pivot is its leading column once reduced against the rows
above it.  The counts draw each entry from a set of values (all of Z/p
in a sweep; in a column-prepend law, all of Z/p in the new column 0 and
the matrix's own entry elsewhere) and enumerate the rows above the last
depth first, one reduced row per node, so the reduction of a prefix of
rows is done once and shared by every matrix that starts with it.

A row's lead, and every later row's, depend on the rows above only
through their span V, so a row is listed by its projection: the one
vector of its coset mod V that is zero at every lead of V, which starts
at the row's lead.
- A row that takes all of F^N, as every row of a sweep does, lists the
  projections alone, one per line through 0, each weighted (p - 1) p^i
  for the p^i rows of its coset and the p - 1 points of its line; the
  rows in V count as rank deficient at once.
- A row fixed but in one entry j, as every row of a column-prepend law
  is, ranges over a line x + c*e_j; projecting is linear, so its
  projections are u + c*g, u and g projected once.
- The last row is counted, not listed: a line's leads for every c at
  once, any other row column by column, its lead fixed at the first
  column whose entry survives the reduction and no reduced row can clear,
  all of its completions past that column counted at once.

When column 0 takes all of Z/p in every row, as in every column-prepend
law, a row's column-0 values 1..p-1 count alike while no row above leads
at column 0, so only the value 1 is enumerated, weighted p - 1.  The rows
above are then zero in column 0, and multiplying column 0 by a unit u
keeps every northwest rank, hence every lead tuple, while it fixes the
rows above and maps a row's value c, with all of its completions, one to
one onto the value u*c.  Each matrix is still counted exactly as its own
reduction classifies it.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .chain import TransitionDist, _law
from .errors import check_budget
from .flagchain import label_groups
from .states import (
    FlagState,
    JugglingState,
    _check_labels,
    _flag_enter,
    _flag_leave,
    _unchecked_state,
    flag_inversions,
    inversions,
)

SUPPORTED_PRIMES = (2, 3, 5)
# _INVERSES[p][a]: the inverse of a != 0 in Z/p
_INVERSES = {p: [0] + [pow(a, -1, p) for a in range(1, p)] for p in SUPPORTED_PRIMES}


@dataclass(frozen=True)
class FqMatrix:
    """Dense row-major matrix over Z/p."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"modulus must be one of {SUPPORTED_PRIMES}")
        rows = tuple(tuple(int(e) % self.p for e in row) for row in self.rows)
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
            tuple((int(c) % self.p,) + row for c, row in zip(col, self.rows)),
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


def _lead_counts(
    p: int, choices: Sequence[Sequence[Sequence[int]]]
) -> defaultdict:
    """How many matrices, entry (i, j) drawn from the values choices[i][j]
    (distinct values, every row the same width), have each lead tuple of
    `_leading_columns` (None: rank deficient).

    Rows above the last are enumerated depth first.  Each node is one
    reduced row, kept in `reduced` (lead -> row) for every extension of
    its prefix and removed on backtrack, and weighted by the number of
    matrices it stands for.  The reduced rows have distinct leads and
    span the space V that the rows above span.  By `_leading_columns` a
    row's lead is the rightmost start of its coset row + V, so each row's
    lead depends on the rows above only through V, and every node is
    classified by its own lead.  When a row lies in V, `_leading_columns`
    returns None without reading later rows, so all of the prefix's
    completions are rank deficient, counted at once.

    Projection: each coset v + V holds exactly one vector that is zero at
    every lead of V.  The reduced rows, by ascending lead, each subtract
    the multiple of themselves that clears their lead, and none disturbs
    a smaller lead, where it is zero; two such vectors of one coset differ
    by a vector of V zero at every lead, and a nonzero vector of V starts
    at a lead, so they are equal.  This projection is linear, and it
    starts where `_reduce` ends (None: it is zero): every other vector of
    the coset adds a nonzero vector of V, which starts at a lead, where
    the projection is zero, so it starts no later than the projection.

    Row i is listed by one of three rules:
    - Whole-free rows (rule 1): every entry takes all of Z/p, so the row
      ranges over F^N, whose vectors fall into cosets of V, p^i each (the
      i reduced rows are independent).  Each row stands for its coset:
      its lead is its projection's start, and the rows below see it only
      through V + span(row), the same for the whole coset.  So only the
      projections are listed, each weighted p^i, and the zero one, V
      itself, counts p^i rank-deficient rows with all their completions.
      The nonzero projections on one line through 0 share their start and
      V + span(row) too, so one per line is listed, the one whose first
      nonzero is 1, weighted (p - 1) p^i: for each column j off V's leads,
      a 1 at j, zeros before j and at every lead, and all of Z/p at the
      other columns past j.  No row is reduced.
    - Line rows (rule 2): every entry is fixed but entry j, which takes
      all of Z/p, as in every row of a column-prepend law.  The
      candidates are x + c*e_j, x the fixed entries with 0 at j, and
      their projections are u + c*g, u and g the projections of x and
      e_j, each made once per node.
    - Other rows: each candidate is reduced by `_reduce`.

    Column-0 scaling: when column 0 takes all of Z/p in every row and 0 is
    no reduced row's lead as row i is drawn, row i's candidates with
    column-0 value c != 0 count as those with value 1, so a line or other
    row enumerates the column-0 values 0 and 1 only, the value 1 weighted
    p - 1, and that weight multiplies every count of its subtree.  Proof:
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
    Rule 1 lists one row per line already, and needs no scaling.

    The last row is counted, not listed.  A line row (rule 3) leads where
    u + c*g starts, for each c: let k be g's first nonzero.  If u has a
    nonzero before k, all p candidates lead at u's first nonzero.  Else
    every c leads at k but the one that cancels g's first nonzero,
    c = -u[k] / g[k], whose lead is the first nonzero of u + c*g past k
    (None: rank deficient).  If g = 0, every candidate is u.

    Any other last row is reduced column by column (`walk`), all
    candidates that agree on the columns read so far together.  `_reduce`
    finds the row's first nonzero column j; if j is a reduced row's lead,
    it subtracts the multiple of that row which clears column j.  That row
    is zero left of its lead, so the columns already read stay zero, and
    column j, when read, holds its entry minus sum(f_l * reduced[l][j])
    over the leads l < j, each factor f_l fixed when column l was read.
    So the multiple subtracted at column j depends only on the entries of
    columns < j.  At column j:
    - not a lead: a value that the subtracted multiple does not cancel
      leaves a nonzero entry that no reduced row can clear, so the row's
      final lead is j and `_reduce` reads no later column: all
      completions of the later columns share it, prod(len(choices[-1][k])
      for k > j) of them, counted at once.  The one value that cancels, if
      drawable, continues;
    - a lead: every value continues, with factor (value - subtracted) /
      reduced[j][j] (zero when it cancels).  When every later column takes
      all of Z/p, each later non-lead column cancels exactly one of its
      values whatever was subtracted, so the values all count alike: they
      continue as one walk of weight len(choices[-1][j]) times its own.
      The first value continues in this walk and each other value in a
      walk of its own, so a fixed entry costs no call.
    A candidate that continues past the last column reduces to zero: rank
    deficient.
    """
    counts: defaultdict = defaultdict(int)
    if not choices:
        counts[()] = 1  # the one 0 x w matrix has full rank
        return counts
    *upper, last = choices
    width = len(last)
    # completions[i]: the matrices of rows i.. drawn; kinds[i]: row i's
    # line (j, x), else None for a whole-free row or the last row, else
    # its candidates
    completions, kinds = [1], []
    for i in reversed(range(len(choices))):
        row = choices[i]
        sizes = [len(values) for values in row]
        completions.append(completions[-1] * math.prod(sizes))
        free_entries = sizes.count(p)
        if free_entries == width:
            kinds.append(None)
        elif free_entries == 1 and sizes.count(1) == width - 1:
            x = [values[0] for values in row]
            j = sizes.index(p)
            x[j] = 0
            kinds.append((j, x))
        else:
            kinds.append(list(itertools.product(*row)) if i < len(upper) else None)
    completions.reverse()
    kinds.reverse()
    last_line = kinds.pop()
    # after[j]: the completions of the last row's columns past j; free[j]:
    # each of those columns takes all of Z/p (read by `walk` alone)
    after, free = [1] * width, [True] * width
    for j in reversed(range(width - 1) if last_line is None else ()):
        size = len(last[j + 1])
        after[j] = after[j + 1] * size
        free[j] = free[j + 1] and size == p
    # column-0 scaling (see above) needs column 0 to take all of Z/p in
    # every row
    scalable = width > 0 and all(len(row[0]) == p for row in choices)
    inverse = _INVERSES[p]
    reduced: dict[int, Sequence[int]] = {}
    leads: list[int] = []

    def walk(j: int, subtracted: Sequence[int], weight: int, prefix: tuple) -> None:
        # subtracted[k]: sum(f_l * reduced[l][k]) over the leads l < j,
        # shared by `weight` candidates
        while j < width:
            values = last[j]
            w = reduced.get(j)
            if w is not None and free[j]:
                weight *= len(values)
                j += 1
                continue
            s = subtracted[j] % p
            if w is not None:
                scale = inverse[w[j]]
                for c in values[1:]:
                    f = (c - s) * scale % p
                    walk(
                        j + 1,
                        [a + f * b for a, b in zip(subtracted, w)] if f else subtracted,
                        weight,
                        prefix,
                    )
                f = (values[0] - s) * scale % p
                if f:
                    subtracted = [a + f * b for a, b in zip(subtracted, w)]
                j += 1
                continue
            cancels = s in values
            if len(values) > cancels:
                counts[(*prefix, j)] += (len(values) - cancels) * weight * after[j]
            if not cancels:
                return
            j += 1
        counts[None] += weight

    def project(j: int, x: list[int]) -> tuple[list[int], list[int]]:
        # the projections u of x and g of e_j (see above), in one pass
        u, g = x, [0] * width
        g[j] = 1
        for lead in sorted(reduced):
            w = reduced[lead]
            scale = inverse[w[lead]]
            if u[lead]:
                f = u[lead] * scale
                u = [(a - f * b) % p for a, b in zip(u, w)]
            if g[lead]:
                f = g[lead] * scale
                g = [(a - f * b) % p for a, b in zip(g, w)]
        return u, g

    def count_line(weight: int) -> None:
        # rule 3
        u, g = project(*last_line)
        prefix = tuple(leads)
        for k in range(width):
            if g[k]:
                break
            if u[k]:
                counts[(*prefix, k)] += p * weight
                return
        else:  # g = 0 and u = 0: every candidate is zero
            counts[None] += p * weight
            return
        counts[(*prefix, k)] += (p - 1) * weight
        c = -u[k] * inverse[g[k]] % p
        for m in range(k + 1, width):
            if (u[m] + c * g[m]) % p:
                counts[(*prefix, m)] += weight
                return
        counts[None] += weight

    def descend(i: int, weight: int) -> None:
        if i == len(upper):
            if last_line is None:
                walk(0, [0] * width, weight, tuple(leads))
            else:
                count_line(weight)
            return
        kind = kinds[i]
        if kind is None:  # rule 1
            coset = p**i
            counts[None] += weight * coset * completions[i + 1]
            share = weight * (p - 1) * coset
            entries = [(0,) if k in reduced else range(p) for k in range(width)]
            for j in range(width):
                if j in reduced:
                    continue
                head = (0,) * j + (1,)
                leads.append(j)
                for tail in itertools.product(*entries[j + 1 :]):
                    reduced[j] = head + tail
                    descend(i + 1, share)
                leads.pop()
                del reduced[j]
            return
        scaling = scalable and 0 not in reduced
        scaled = weight * (p - 1) if scaling else weight  # a column-0 value != 0
        nodes = []  # (reduced row, its lead, its weight)
        if isinstance(kind, tuple):  # rule 2
            u, g = project(*kind)
            for c in (0, 1) if scaling else range(p):
                v = [(a + c * b) % p for a, b in zip(u, g)] if c else u
                lead = None
                for k in range(width):
                    if v[k]:
                        lead = k
                        break
                nodes.append((v, lead, scaled if c else weight))
        else:
            for row in kind:
                if scaling and row[0] > 1:
                    continue
                v, lead = _reduce(row, reduced, p)
                nodes.append((v, lead, scaled if row[0] else weight))
        for v, lead, share in nodes:
            if lead is None:
                counts[None] += share * completions[i + 1]
                continue
            reduced[lead] = v
            leads.append(lead)
            descend(i + 1, share)
            leads.pop()
            del reduced[lead]

    descend(0, 1)
    return counts


def _state_key(leads: Sequence[int], ordered: Optional[Sequence[int]]) -> tuple:
    """What fixes the state of a full-rank lead tuple: the sorted leads
    when `ordered` is None, else the sorted (lead, label) pairs, row i
    labeled ordered[i]."""
    return tuple(sorted(leads if ordered is None else zip(leads, ordered)))


def _state(key: tuple, ordered: Optional[Sequence[int]]) -> JugglingState | FlagState:
    """The state of a `_state_key`: the leads' plain state, or each label
    placed at its lead by `_flag_leave`.  It is built unchecked: the leads
    are distinct naturals (`_leading_columns` keys each reduced row by its
    lead), and the labels are 1..height or were checked where they entered
    (`group_fraction_sweep`, `coarse_flag_pivot_state`)."""
    if ordered is None:
        return _unchecked_state(key)
    if not ordered:  # no flag state has zero labels
        raise ValueError("a labeled state needs at least one row")
    return _flag_leave(tuple(zip(*key)))


def _state_counts(
    p: int,
    choices: Sequence[Sequence[Sequence[int]]],
    ordered: Optional[Sequence[int]],
) -> dict:
    """`_lead_counts` by state.  Lead tuples with one `_state_key` make one
    state, so their counts are summed first and each state is built once."""
    by_key: defaultdict = defaultdict(int)
    for leads, count in _lead_counts(p, choices).items():
        by_key[leads if leads is None else _state_key(leads, ordered)] += count
    return {
        key if key is None else _state(key, ordered): count
        for key, count in by_key.items()
    }


def pivot_state(matrix: FqMatrix) -> Optional[JugglingState]:
    """Pivot columns under left-to-right elimination: column j is pivotal
    iff it is not in the span of the columns before it.  These are the
    rows' leading columns, where the rank of the left-j submatrix grows.
    None if the rank falls short of the number of rows."""
    leads = _leading_columns(matrix)
    return None if leads is None else _state(_state_key(leads, None), None)


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
    return _state(_state_key(leads, ordered), ordered)


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
    total = p ** (height * width)
    check_budget(total, "matrix")
    counts = _state_counts(p, [[range(p)] * width] * height, ordered)
    return {k: Fraction(v, total) for k, v in counts.items()}


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
    p = matrix.p
    choices = [[range(p), *((e,) for e in row)] for row in matrix.rows]
    counts = _state_counts(p, choices, ordered)
    if None in counts:
        raise ValueError("matrix must have full rank")
    return _law(counts.items(), p**matrix.height)


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
