"""Exact q-series utilities.

All series are truncated formal power series in x = q^{-1} with Fraction
coefficients, so every identity can be checked coefficient-by-coefficient
with no rounding.  The default truncation degree is 24.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ResourceLimit
from .states import (
    flag_states_with_inversions,
    state_count_by_inversions,
    states_with_inversions,
    word_inversions,
)

DEFAULT_DEGREE = 24


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients c_0..c_D of x^0..x^D; arithmetic is exact mod x^(D+1).

    The coefficients are Fractions, but `*` and `inverse` run on integer
    numerators over one common denominator (the lcm of the coefficient
    denominators) and build one Fraction per output coefficient.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "coeffs",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs),
        )

    @classmethod
    def zero(cls, degree: int) -> "TruncSeries":
        return cls((Fraction(0),) * (degree + 1))

    @classmethod
    def one(cls, degree: int) -> "TruncSeries":
        return cls((Fraction(1),) + (Fraction(0),) * degree)

    @classmethod
    def x_power(cls, power: int, degree: int) -> "TruncSeries":
        coeffs = [Fraction(0)] * (degree + 1)
        if power <= degree:
            coeffs[power] = Fraction(1)
        return cls(tuple(coeffs))

    @classmethod
    def from_ints(cls, coeffs: Sequence[int], degree: int) -> "TruncSeries":
        padded = list(coeffs) + [0] * (degree + 1 - len(coeffs))
        return cls(tuple(Fraction(c) for c in padded[: degree + 1]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def _check(self, other: "TruncSeries") -> None:
        if self.degree != other.degree:
            raise ValueError("mismatched truncation degrees")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        a, da = _numerators(self.coeffs)
        b, db = _numerators(other.coeffs)
        den = da * db
        return TruncSeries(
            tuple(
                Fraction(sum(map(operator.mul, a, b[k::-1])), den)
                for k in range(self.degree + 1)
            )
        )

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With a_j the integer numerators over den, the inverse's coefficient
        k is den * n_k / a_0^(k+1), where n_0 = 1 and
        n_k = -sum_{j=1..k} a_j * a_0^(j-1) * n_(k-j) are integers.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        a, den = _numerators(self.coeffs)
        a0 = a[0]
        scaled = [a_j * a0**j for j, a_j in enumerate(a[1:])]  # a_(j+1) a_0^j
        n = [1]
        for _ in a[1:]:
            n.append(-sum(map(operator.mul, scaled, reversed(n))))
        return TruncSeries(
            tuple(Fraction(den * n_k, a0 ** (k + 1)) for k, n_k in enumerate(n))
        )

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncSeries.one(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: Fraction) -> Fraction:
        """Evaluate the truncated polynomial at an exact point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def sn(n: int, q: Fraction) -> Fraction:
    """The product (1 - q^-1)(1 - q^-2)...(1 - q^-n); sn(0) = 1.

    Its reciprocal is the partition function of n-ball states weighted by
    q^-inversions, and it is the stationary-weight prefactor of the chain
    with indistinguishable balls.
    """
    q = Fraction(q)
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - q ** -i
    return out


def sn_series(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """(1 - x)(1 - x^2)...(1 - x^n) as a truncated series in x = q^-1."""
    poly = [1] + [0] * degree
    for i in range(1, n + 1):
        for k in range(degree, i - 1, -1):
            poly[k] -= poly[k - i]
    return TruncSeries.from_ints(poly, degree)


def state_partition_series(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Closed form of sum over b-ball states of x^inversions: the inverse
    of the product of (1 - x^i) for i = 1..b."""
    return sn_series(balls, degree).inverse()


def state_partition_series_enumerated(
    balls: int, degree: int = DEFAULT_DEGREE, budget: int = 2_000_000
) -> TruncSeries:
    """The same series by exhaustive state enumeration, degree by degree."""
    counts = []
    total = 0
    for k in range(degree + 1):
        c = state_count_by_inversions(balls, k)
        total += c
        if total > budget:
            raise ResourceLimit("state enumeration exceeds budget")
        counts.append(c)
    return TruncSeries.from_ints(counts, degree)


def flag_series(balls: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """(1 - x)^-b: the closed form of the distinct-label flag state sum."""
    base = TruncSeries.one(degree) - TruncSeries.x_power(1, degree)
    return base.inverse() ** balls


def flag_series_enumerated(
    balls: int, degree: int = DEFAULT_DEGREE, budget: int = 2_000_000
) -> TruncSeries:
    """Sum of x^inversions over flag states with labels 1..b, enumerated."""
    labels = tuple(range(1, balls + 1))
    counts = []
    total = 0
    for k in range(degree + 1):
        c = sum(1 for _ in flag_states_with_inversions(labels, k))
        total += c
        if total > budget:
            raise ResourceLimit("flag state enumeration exceeds budget")
        counts.append(c)
    return TruncSeries.from_ints(counts, degree)


def flag_series_identity_holds(balls: int, degree: int = DEFAULT_DEGREE) -> bool:
    return flag_series(balls, degree) == flag_series_enumerated(balls, degree)


def perm_inversion_series(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """Sum over permutations of [n] of x^inversions, by enumeration."""
    if n > 8:
        raise ResourceLimit("permutation enumeration capped at n = 8")
    counts = [0] * (degree + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        inv = word_inversions(perm)
        if inv <= degree:
            counts[inv] += 1
    return TruncSeries.from_ints(counts, degree)


def perm_series_closed(n: int, degree: int = DEFAULT_DEGREE) -> TruncSeries:
    """The closed form: product of (1 - x^i)/(1 - x) over i = 1..n."""
    one_minus_x = TruncSeries.one(degree) - TruncSeries.x_power(1, degree)
    return sn_series(n, degree) * (one_minus_x.inverse() ** n)


def grassmannian_series_closed(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """s_h / (s_j * s_{h-j}) as a truncated series (Gaussian binomial)."""
    if not 0 <= j <= h:
        raise ValueError("need 0 <= j <= h")
    return (
        sn_series(h, degree)
        * sn_series(j, degree).inverse()
        * sn_series(h - j, degree).inverse()
    )


def grassmannian_series_enumerated(
    j: int, h: int, degree: int = DEFAULT_DEGREE
) -> TruncSeries:
    """Sum of x^inversions over j-ball states with every x in [0, h)."""
    if h > 12:
        raise ResourceLimit("window enumeration capped at h = 12")
    counts = [0] * (degree + 1)
    for combo in itertools.combinations(range(h), j):
        inv = sum(p - i for i, p in enumerate(combo))
        if inv <= degree:
            counts[inv] += 1
    return TruncSeries.from_ints(counts, degree)


def bundle_factorization_holds(balls: int, degree: int = DEFAULT_DEGREE) -> bool:
    """Check (1-x)^-b = [prod (1-x^i)^-1] * [prod (1-x^i)/(1-x)] exactly.

    The left side counts flag states; the right factors it through plain
    states times label arrangements.
    """
    lhs = flag_series(balls, degree)
    rhs = state_partition_series(balls, degree) * perm_series_closed(balls, degree)
    return lhs == rhs
