"""Exact q-series utilities.

All series are truncated formal power series in x = q^{-1}.  Each one
counts states, permutations or subspaces by inversions, so its
coefficients are ints and every identity is checked coefficient by
coefficient with no rounding.  The default truncation degree is 24.

Every closed form is one ratio of q-factorials (x;x)_n = (1 - x)...(1 - x^n),
built in place one factor 1 - x^i at a time by `_factorial_ratio`.  Every
enumeration lists each position tuple, label word or permutation it
counts and counts it as listed, building no state for it.  Closed and
enumerated builders refuse the same arguments (`_check_args`).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import errors
from .errors import check_budget
from .states import (
    _flag_listing,
    _position_inversions,
    state_count_by_inversions,
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


_BALLS = "the ball count must be at least 0"
_PERMUTATION = "the permutation size must be at least 0"
_WINDOW = "need 0 <= j <= h"


def _check_args(degree: int, need: str, *sizes: int) -> None:
    """The one argument check of every public series builder, closed and
    enumerated alike, so the two sides of an identity refuse the same
    inputs: ValueError unless the truncation degree is at least 0, and
    ValueError(need) unless every size is."""
    if degree < 0:
        raise ValueError(f"the degree must be at least 0, got {degree}")
    if min(sizes) < 0:
        raise ValueError(need)


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
    _check_args(degree, _BALLS, balls)
    return _factorial_ratio((), [balls], degree)


def state_partition_series_enumerated(
    balls: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """The same series by exhaustive enumeration, degree by degree: the
    position tuples of each level are listed and counted, no state built;
    ResourceLimit, before any is listed, if the states exceed the budget."""
    _check_args(degree, _BALLS, balls)
    check_state_budget([balls], degree, "state")
    return TruncSeries(state_count_by_inversions(balls, k) for k in range(degree + 1))


def flag_series(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """(1 - x)^-b: the closed form of the distinct-label flag state sum."""
    _check_args(degree, _BALLS, balls)
    return _factorial_ratio((), itertools.repeat(1, balls), degree)


def flag_series_enumerated(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Sum of x^inversions over flag states with labels 1..b, enumerated;
    ResourceLimit, before any is listed, if the states exceed the budget.

    Each flag state of n inversions is one plain tuple of i inversions
    filled with one word of n - i, and the flag enumeration
    (`states._flag_levels`) builds it from that pair by `_flag_leave`, an
    unchecked bijection: building the states added no check, so counting
    the pairs is exact.  The coefficient at n is sum_i |plain level i| *
    |words of n - i|, both listed by `_flag_listing`, the listing that
    enumeration fills from.  Without labels the one state, the empty one,
    is the empty tuple with the empty word."""
    _check_args(degree, _BALLS, balls)
    check_state_budget(itertools.repeat(1, balls), degree, "flag state")
    words, plain = _flag_listing(range(1, balls + 1), degree)
    fills = TruncSeries(len(words.get(k, ())) for k in range(degree + 1))
    return TruncSeries(map(len, plain)) * fills


def check_sweep_budget(perm_max: int, window_max: int) -> None:
    """Raise ResourceLimit, before anything is listed, if the permutations
    of [n] for n = 1..perm_max, sum n!, or the states of a window of h
    cells for h = 1..window_max, every ball count j, sum C(h, j) = sum
    2^h, exceed the budget.  Each running sum is checked as it grows, so
    the first term past the budget refuses, and no huge count is built."""
    total, count = 0, 1
    for n in range(1, perm_max + 1):
        count *= n
        total += count
        check_budget(total, "permutation")
    total = 0
    for h in range(1, window_max + 1):
        total += 2**h
        check_budget(total, "window state")


def perm_inversion_series(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Sum over permutations of [n] of x^inversions, each permutation
    listed with its count by `_lehmer_permutations`; ResourceLimit, before
    any is listed, if the n! exceed the budget."""
    _check_args(degree, _PERMUTATION, n)
    count = 1
    for i in range(2, n + 1):
        count *= i
        check_budget(count, "permutation")
    return _count_by_inversions(
        _lehmer_permutations(n), operator.itemgetter(1), degree
    )


def _lehmer_permutations(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every permutation of [n] once, with its inversion count, listed by
    Lehmer code, one at a time.

    Each permutation of [n] is one of [n - 1] with n inserted j places
    from the right end, 0 <= j <= n - 1, and each arises once: deleting n
    undoes the insertion.  The j entries right of n are all smaller, and
    no pair without n changes order, so the insertion adds exactly j
    inversions.  The j picked for each k is the Lehmer code digit of k
    (the smaller entries to its right), which no later, larger insertion
    changes, so a permutation's inversions are its digits' sum, known as
    it is made.  The permutations of [n - 1] come one at a time from the
    same generator, so no level is held."""
    if not n:
        yield (), 0
        return
    top = (n,)
    for perm, inv in _lehmer_permutations(n - 1):
        for j in range(n):
            yield perm[: n - 1 - j] + top + perm[n - 1 - j :], inv + j


def perm_series_closed(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """The closed form: product of (1 - x^i)/(1 - x) over i = 1..n."""
    _check_args(degree, _PERMUTATION, n)
    return _factorial_ratio([n], itertools.repeat(1, n), degree)


def grassmannian_series_closed(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """(x;x)_h / ((x;x)_j (x;x)_{h-j}) as a truncated series (Gaussian
    binomial)."""
    _check_args(degree, _WINDOW, j, h - j)
    return _factorial_ratio([h], [j, h - j], degree)


def grassmannian_series_enumerated(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """Sum of x^inversions over j-ball states with every x in [0, h): each
    position tuple, combinations of range(h), counted by the formula
    `inversions` reads, no state built; ResourceLimit, before any is
    listed, if the C(h, j) exceed the budget.  C(h, i) grows with i up to
    min(j, h - j), so it is built up that far, refused at the first value
    past the budget."""
    _check_args(degree, _WINDOW, j, h - j)
    count = 1
    for i in range(min(j, h - j)):
        count = count * (h - i) // (i + 1)
        check_budget(count, "window state")
    return _count_by_inversions(
        itertools.combinations(range(h), j), _position_inversions, degree
    )


def bundle_factorization_holds(balls: int, degree: int = DEFAULT_DEGREE) -> bool:
    """Check (1-x)^-b = [prod (1-x^i)^-1] * [prod (1-x^i)/(1-x)] exactly.

    The left side counts flag states; the right factors it through plain
    states times label arrangements.
    """
    lhs = flag_series(balls, degree)
    rhs = state_partition_series(balls, degree) * perm_series_closed(balls, degree)
    return lhs == rhs
