"""Exact q-series utilities.

All series are truncated formal power series in x = q^{-1}.  Each one
counts states, permutations or subspaces by inversions, so its
coefficients are ints and every identity is checked coefficient by
coefficient with no rounding.  The default truncation degree is 24.

Every closed form is one ratio of q-factorials (x;x)_n = (1 - x)...(1 - x^n),
built in place one factor 1 - x^i at a time by `_factorial_ratio`.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import errors
from .errors import ResourceLimit, check_budget
from .states import (
    _flag_levels,
    inversions,
    state_count_by_inversions,
    window_states,
    word_inversions,
)

DEFAULT_DEGREE = 24


@dataclass(frozen=True)
class TruncSeries:
    """Integer coefficients c_0..c_D of x^0..x^D; arithmetic is exact mod
    x^(D+1).  A coefficient that is not an int (a Fraction, a float) is
    refused with TypeError."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.degree != other.degree:
            raise ValueError("mismatched truncation degrees")
        a, b = self.coeffs, other.coeffs
        return TruncSeries(
            tuple(sum(map(operator.mul, a, b[k::-1])) for k in range(len(a)))
        )

    def evaluate(self, x: Fraction) -> Fraction:
        """Evaluate the truncated polynomial at an exact point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _divide_step(counts: list[int], i: int) -> None:
    """Divide the truncated series `counts` by 1 - x^i in place: a running
    sum with stride i, taken with k ascending so each term adds one
    already divided."""
    for k in range(i, len(counts)):
        counts[k] += counts[k - i]


def _factorial_ratio(
    tops: Iterable[int], bottoms: Iterable[int], degree: int
) -> TruncSeries:
    """prod_{n in tops} (x;x)_n / prod_{m in bottoms} (x;x)_m, truncated
    at x^degree, where (x;x)_n = (1 - x)(1 - x^2)...(1 - x^n).

    A factor 1 - x^i with i > degree is 1 in the truncated ring, so only
    the factors with i <= degree are applied.  Multiplying by 1 - x^i is a
    running difference, taken with k descending so each term subtracts one
    not yet multiplied; dividing is `_divide_step`.  Every factor has
    constant term 1, so it is a unit of the truncated ring, which is
    commutative: each product and quotient is exact there, and the order
    in which the factors are applied does not change the result."""
    counts = [1] + [0] * degree
    for n in tops:
        for i in range(1, min(n, degree) + 1):
            for k in range(degree, i - 1, -1):
                counts[k] -= counts[k - i]
    for m in bottoms:
        for i in range(1, min(m, degree) + 1):
            _divide_step(counts, i)
    return TruncSeries(counts)


def check_state_budget(sizes: Iterable[int], degree: int, what: str) -> None:
    """Raise ResourceLimit, before anything is listed, if a sweep up to
    `degree` inversions over the flag states of a multiset with groups of
    these sizes ([b]: b-ball states; [1]*b: labels 1..b) lists more than
    the budget.  Its count, 1/prod_m (x;x)_m, is built one `_divide_step`
    by 1 - x^i at a time; each quotient is 1 plus nonnegative terms, so
    the first partial count over the budget refuses.  A ball puts a state
    on every level, so the table can stop at the budget's degree; without
    one (no size but 0) the count is the one empty state, and no table is
    built.  The words a sweep lists never outnumber its states: each, put
    on positions 0..b-1, is a distinct state with its inversions."""
    sizes = iter(sizes)
    first = next((m for m in sizes if m), None)
    if first is None:
        return
    top = min(degree, errors.ENUMERATION_BUDGET)
    counts = [1] + [0] * top
    for m in itertools.chain([first], sizes):
        for i in range(1, min(m, top) + 1):
            _divide_step(counts, i)
            check_budget(sum(counts), what)


def check_enumeration_budget(balls: int, degree: int) -> None:
    """Raise ResourceLimit when enumerating the b-ball states or the flag
    states with labels 1..b up to `degree` inversions would exceed the
    enumeration budget, before any enumeration.  Both counts grow with b,
    so this also refuses a sweep over b = 1..balls."""
    check_state_budget([balls], degree, "state")
    check_state_budget(itertools.repeat(1, balls), degree, "flag state")


def _count_by_inversions(
    items: Iterable, inversions_of: Callable[[object], int], degree: int
) -> TruncSeries:
    """Count `items` by their inversion numbers, dropping those above `degree`."""
    counts = [0] * (degree + 1)
    for item in items:
        inv = inversions_of(item)
        if inv <= degree:
            counts[inv] += 1
    return TruncSeries(tuple(counts))


def sn(n: int, q: Fraction) -> Fraction:
    """The product (1 - q^-1)(1 - q^-2)...(1 - q^-n); sn(0) = 1.

    Its reciprocal is the partition function of n-ball states weighted by
    q^-inversions, and it is the stationary-weight prefactor of the chain
    with indistinguishable balls.
    """
    q = Fraction(q)
    # with q = a/c each factor is (a^i - c^i) / a^i
    a, c = q.numerator, q.denominator
    num = 1
    for i in range(1, n + 1):
        num *= a**i - c**i
    return Fraction(num, a ** (n * (n + 1) // 2))


def state_partition_series(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Closed form of sum over b-ball states of x^inversions: the inverse
    of the product of (1 - x^i) for i = 1..b."""
    return _factorial_ratio((), [balls], degree)


def state_partition_series_enumerated(
    balls: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """The same series by exhaustive state enumeration, degree by degree;
    ResourceLimit, before any is listed, if the states exceed the budget."""
    check_state_budget([balls], degree, "state")
    return TruncSeries(state_count_by_inversions(balls, k) for k in range(degree + 1))


def flag_series(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """(1 - x)^-b: the closed form of the distinct-label flag state sum."""
    return _factorial_ratio((), itertools.repeat(1, balls), degree)


def flag_series_enumerated(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Sum of x^inversions over flag states with labels 1..b, enumerated;
    ResourceLimit, before any is listed, if the states exceed the budget.
    Without labels the one state is the empty one, which no FlagState
    holds, so it is counted as the plain state it is."""
    if not balls:
        return state_partition_series_enumerated(0, degree)
    check_state_budget(itertools.repeat(1, balls), degree, "flag state")
    levels = _flag_levels(range(1, balls + 1), range(degree + 1))
    return TruncSeries(sum(1 for _ in level) for level in levels)


def check_caps(perm_max: int, window_max: int) -> None:
    """Raise ResourceLimit if the permutations of [perm_max] or the states
    of a window of window_max cells are past their enumeration caps."""
    if perm_max > 8:
        raise ResourceLimit("permutation enumeration capped at n = 8")
    if window_max > 12:
        raise ResourceLimit("window enumeration capped at h = 12")


def perm_inversion_series(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Sum over permutations of [n] of x^inversions, by enumeration."""
    check_caps(n, 0)
    return _count_by_inversions(
        itertools.permutations(range(1, n + 1)), word_inversions, degree
    )


def perm_series_closed(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """The closed form: product of (1 - x^i)/(1 - x) over i = 1..n."""
    return _factorial_ratio([n], itertools.repeat(1, n), degree)


def grassmannian_series_closed(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """(x;x)_h / ((x;x)_j (x;x)_{h-j}) as a truncated series (Gaussian
    binomial)."""
    if not 0 <= j <= h:
        raise ValueError("need 0 <= j <= h")
    return _factorial_ratio([h], [j, h - j], degree)


def grassmannian_series_enumerated(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """Sum of x^inversions over j-ball states with every x in [0, h)."""
    check_caps(0, h)
    return _count_by_inversions(window_states(j, h), inversions, degree)


def bundle_factorization_holds(balls: int, degree: int = DEFAULT_DEGREE) -> bool:
    """Check (1-x)^-b = [prod (1-x^i)^-1] * [prod (1-x^i)/(1-x)] exactly.

    The left side counts flag states; the right factors it through plain
    states times label arrangements.
    """
    lhs = flag_series(balls, degree)
    rhs = state_partition_series(balls, degree) * perm_series_closed(balls, degree)
    return lhs == rhs
