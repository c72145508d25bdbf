"""Ground truth from linear algebra over Z/p.

Exhaustive enumeration of b x N matrices tallies pivot-column states (and
their labeled refinement from northwest ranks), giving the fractions and
transition laws that the chains must reproduce with q = p.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .chain import TransitionDist
from .errors import ResourceLimit
from .flagchain import group_prefactor
from .states import (
    Cell,
    FlagState,
    JugglingState,
    flag_inversions,
    inversions,
    trim_cells,
)

SUPPORTED_PRIMES = (2, 3, 5)


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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def prepend_column(self, col: Sequence[int]) -> "FqMatrix":
        if len(col) != self.height:
            raise ValueError("column height mismatch")
        return FqMatrix(
            self.p,
            tuple((int(c) % self.p,) + row for c, row in zip(col, self.rows)),
        )


def enumerate_matrices(
    height: int, width: int, p: int, budget: int = 2_000_000
) -> Iterator[FqMatrix]:
    """All p^(b*N) matrices, columns varying lexicographically."""
    total = p ** (height * width)
    if total > budget:
        raise ResourceLimit(f"{total} matrices exceeds the budget of {budget}")
    column_space = list(itertools.product(range(p), repeat=height))
    for cols in itertools.product(column_space, repeat=width):
        yield FqMatrix(p, tuple(zip(*cols)))


def _reduce_column(
    col: Sequence[int], basis: list[tuple[int, list[int]]], p: int
) -> list[int]:
    """Reduce a column against an echelon basis [(lead row, vector), ...]."""
    v = list(col)
    for lead, vec in basis:
        if v[lead]:
            factor = (v[lead] * pow(vec[lead], p - 2, p)) % p
            v = [(a - factor * b) % p for a, b in zip(v, vec)]
    return v


def pivot_state(matrix: FqMatrix) -> Optional[JugglingState]:
    """Pivot columns under left-to-right elimination: column j is pivotal
    iff it is not in the span of the columns before it.  None if the rank
    falls short of the number of rows."""
    p = matrix.p
    basis: list[tuple[int, list[int]]] = []
    pivots = []
    for j in range(matrix.width):
        v = _reduce_column(matrix.column(j), basis, p)
        lead = next((i for i, e in enumerate(v) if e), None)
        if lead is not None:
            basis.append((lead, v))
            pivots.append(j)
            if len(pivots) == matrix.height:
                break
    if len(pivots) < matrix.height:
        return None
    return JugglingState(tuple(pivots))


def _rank_profile(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Ranks of the left-j submatrices for j = 0..N, via one left-to-right
    column reduction."""
    n = len(rows[0]) if rows else 0
    basis: list[tuple[int, list[int]]] = []
    profile = [0]
    for j in range(n):
        col = [row[j] for row in rows]
        v = _reduce_column(col, basis, p)
        lead = next((i for i, e in enumerate(v) if e), None)
        if lead is not None:
            basis.append((lead, v))
        profile.append(len(basis))
    return profile


def northwest_ranks(matrix: FqMatrix) -> list[list[int]]:
    """r[i][j] = rank of the top-i by left-j submatrix (0-indexed sizes)."""
    b, n = matrix.height, matrix.width
    r = [[0] * (n + 1)]
    for i in range(1, b + 1):
        r.append(_rank_profile(matrix.rows[:i], matrix.p))
    return r


def flag_pivot_state(matrix: FqMatrix) -> Optional[FlagState]:
    """The labeled refinement of pivot_state: row i labels the column where
    the northwest rank function jumps by one in both directions.

    This is the complete invariant of downward row operations together
    with rightward column operations; erasing labels recovers
    pivot_state.  None if the rank falls short.
    """
    r = northwest_ranks(matrix)
    b, n = matrix.height, matrix.width
    if r[b][n] < b:
        return None
    cells: list[Cell] = [None] * n
    for i in range(1, b + 1):
        for j in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                cells[j - 1] = i
    return FlagState(trim_cells(cells))


def coarse_flag_pivot_state(
    matrix: FqMatrix, labels: Sequence[int]
) -> Optional[FlagState]:
    """flag_pivot_state with row i relabeled by the i-th entry of the
    sorted label multiset (rows come in contiguous equal-label groups)."""
    fine = flag_pivot_state(matrix)
    if fine is None:
        return None
    ordered = sorted(labels)
    if len(ordered) != matrix.height:
        raise ValueError("label multiset size must match the row count")
    cells = tuple(
        None if c is None else ordered[c - 1] for c in fine.cells
    )
    return FlagState(cells)


def gl_order(b: int, p: int) -> int:
    """Number of invertible b x b matrices over Z/p."""
    out = 1
    for i in range(b):
        out *= p**b - p**i
    return out


def formula_pivot_fraction(b: int, p: int, target: JugglingState) -> Fraction:
    """|GL_b| / p^(b^2) / p^inversions: the predicted fraction, N-free."""
    return Fraction(gl_order(b, p), p ** (b * b)) / p ** inversions(target)


def formula_flag_fraction(b: int, p: int, target: FlagState) -> Fraction:
    return Fraction(p - 1, p) ** b / p ** flag_inversions(target)


def formula_group_fraction(
    labels: Sequence[int], p: int, target: FlagState
) -> Fraction:
    return group_prefactor(labels, Fraction(p)) / p ** flag_inversions(target)


def _fraction_sweep(
    height: int,
    width: int,
    p: int,
    key: Callable[[FqMatrix], Hashable],
    budget: int,
) -> dict:
    """Fraction of all height x width matrices over Z/p by key(matrix)."""
    counts = Counter(map(key, enumerate_matrices(height, width, p, budget)))
    total = p ** (height * width)
    return {k: Fraction(v, total) for k, v in counts.items()}


def pivot_fraction_sweep(
    b: int, n: int, p: int, budget: int = 2_000_000
) -> dict[Optional[JugglingState], Fraction]:
    """Fraction of b x N matrices by pivot state (None = rank deficient)."""
    return _fraction_sweep(b, n, p, pivot_state, budget)


def flag_fraction_sweep(
    b: int, w: int, p: int, budget: int = 2_000_000
) -> dict[Optional[FlagState], Fraction]:
    return _fraction_sweep(b, w, p, flag_pivot_state, budget)


def group_fraction_sweep(
    labels: Sequence[int], w: int, p: int, budget: int = 2_000_000
) -> dict[Optional[FlagState], Fraction]:
    return _fraction_sweep(
        len(labels), w, p, lambda m: coarse_flag_pivot_state(m, labels), budget
    )


def _prepend_law(
    matrix: FqMatrix, key: Callable[[FqMatrix], Hashable]
) -> TransitionDist:
    """Law of key(matrix) after prepending a uniformly random column."""
    if key(matrix) is None:
        raise ValueError("matrix must have full rank")
    p = matrix.p
    columns = itertools.product(range(p), repeat=matrix.height)
    counts = Counter(key(matrix.prepend_column(col)) for col in columns)
    assert None not in counts  # prepending preserves full rank
    total = p**matrix.height
    return TransitionDist(
        tuple((s, Fraction(c, total)) for s, c in counts.items())
    )


def column_prepend_dist(matrix: FqMatrix) -> TransitionDist:
    """Law of the pivot state after prepending a uniformly random column.

    Must coincide with the plain backward chain's one-step law at q = p.
    """
    return _prepend_law(matrix, pivot_state)


def flag_column_prepend_dist(matrix: FqMatrix) -> TransitionDist:
    """Labeled version: must coincide with the flag chain's law at q = p."""
    return _prepend_law(matrix, flag_pivot_state)


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
    labels = state.labels
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if len(state.cells) > width:
        raise ValueError("state does not fit in the width")
    b = len(labels)
    rows = [[0] * width for _ in range(b)]
    rank = {lab: i for i, lab in enumerate(labels)}
    for pos, cell in enumerate(state.cells):
        if cell is not None:
            rows[rank[cell]][pos] = 1
    return FqMatrix(p, tuple(tuple(r) for r in rows))
