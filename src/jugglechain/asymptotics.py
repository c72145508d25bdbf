"""Occupancy probabilities and the many-balls limit.

P_c, the stationary probability of finding exactly c balls in the first h
slots, has an exact product form; its consecutive ratio locates the most
likely c.  Scaling c = lambda*b, h = mu*b and fixing E = q^-b (the
probability of an all-heads step) gives closed forms for mu(lambda), its
inverse lambda(mu), and the limiting ball density d lambda / d mu.

`empirical_density` checks that density by simulation, one row per
position.  In a plain step every ball moves up one and at most one returns
to 0, so a ball's position is its age: the run keeps birth steps, not
positions, and each lifetime adds one range of positions to the occupancy
counts, at O(1) expected cost per step whatever b.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, check_budget
from .series import sn


def prob_exactly(b: int, h: int, c: int, q: Fraction) -> Fraction:
    """Stationary probability of exactly c balls among positions [0, h).

    Exact product form: s_b * q^-((b-c)(h-c)) * s_h / (s_c s_{h-c} s_{b-c})
    with s_n = (1-q^-1)...(1-q^-n).
    """
    if not 0 <= c <= min(h, b):
        raise DomainError(f"need 0 <= c <= min(h, b), got c={c}, h={h}, b={b}")
    q = Fraction(q)
    return (
        sn(b, q)
        * q ** -((b - c) * (h - c))
        * sn(h, q)
        / (sn(c, q) * sn(h - c, q))
        / sn(b - c, q)
    )


def prob_ratio(b: int, h: int, c: int, q: Fraction) -> Fraction:
    """P_c / P_{c-1} in closed form: (q^c-1)^-1 (q^h - q^(c-1)) (q^(b-c+1)-1)."""
    if not 1 <= c <= min(h, b):
        raise DomainError(f"need 1 <= c <= min(h, b), got c={c}")
    q = Fraction(q)
    return (q**h - q ** (c - 1)) * (q ** (b - c + 1) - 1) / (q**c - 1)


def most_likely_count(b: int, h: int, q: Fraction) -> int:
    """The c maximizing P_c, located where the consecutive ratio crosses
    from above 1 to below; a ratio exactly 1 resolves to the smaller c."""
    c = 0
    while c + 1 <= min(h, b) and prob_ratio(b, h, c + 1, q) > 1:
        c += 1
    return c


def _check_e(e: float) -> None:
    if not 0 < e < 1:
        raise DomainError(f"E must lie in (0, 1), got {e}")


def _check_mu_max(mu_max: float) -> None:
    # a NaN passes, for the row budget to refuse
    if mu_max < 0:
        raise DomainError(f"mu_max must be nonnegative, got {mu_max}")


def mu_of_lambda(e: float, lam: float) -> float:
    """How far out (in units of b) the first lambda*b balls reach."""
    _check_e(e)
    if not 0 < lam < 1:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    return lam + math.log((1 - e) / (1 - e ** (1 - lam))) / math.log(1 / e)


def lambda_of_mu(e: float, mu: float) -> float:
    """Fraction of balls among the first mu*b positions."""
    _check_e(e)
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    # mu - log(1 + E^(1-mu) - E) / log(1/E), with E^(1-mu) factored out of
    # the logarithm: no cancellation of two numbers of size mu, and
    # E^(mu-1) <= 1/E never overflows
    return 1 - math.log1p((1 - e) * e ** (mu - 1)) / math.log(1 / e)


def ball_density(e: float, mu: float) -> float:
    """Limiting occupancy probability at position mu*b:
    (1-E) / (1 + E^(1-mu) - E); equals 1-E at mu = 0."""
    _check_e(e)
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    # grouping the exponential with -E makes the mu=0 denominator exactly 1
    try:
        return (1 - e) / (1 + (e ** (1 - mu) - e))
    except OverflowError:
        # E^(1-mu) overflows while the density tends to 0; multiplying
        # through by E^(mu-1) keeps every term finite
        t = e ** (mu - 1)
        return (1 - e) * t / (1 + (1 - e) * t)


def density_curve(
    e: float, mu_max: float, step: float
) -> list[tuple[float, float]]:
    """Sampled (mu, density) rows for plotting; row 0 is (0, 1-E).
    DomainError for a negative mu_max, as `ball_density` refuses a
    negative mu; ResourceLimit when the row count is not finite or exceeds
    the enumeration budget."""
    if step <= 0:
        raise DomainError("step must be positive")
    _check_mu_max(mu_max)
    # floor division keeps an infinite quotient a float (NaN), for the guard
    rows = (mu_max / step + 1e-9) // 1 + 1
    check_budget(rows, "density row")
    return [(i * step, ball_density(e, i * step)) for i in range(int(rows))]


@dataclass(frozen=True)
class DensityComparison:
    mu: float
    empirical: float
    predicted: float

    @property
    def absdiff(self) -> float:
        return abs(self.empirical - self.predicted)


def empirical_density(
    balls: int,
    e: float,
    mu_max: float,
    steps: int,
    burnin: int,
    seed: int,
) -> list[DensityComparison]:
    """Simulate the plain chain at q = E^(-1/b) and compare the occupancy
    frequency of each position h < ceil(mu_max * b), at mu = h / b, with
    the closed-form density.  DomainError for a negative mu_max;
    ResourceLimit when the ceil(mu_max * b) rows are not finite or exceed
    the enumeration budget.

    Step t draws u and the move k with P(k >= j) = E^(j/b); the state
    after it is sampled when burnin <= t < steps.  Every plain move puts
    at most one ball at 0 and shifts the rest up one, so a ball's position
    at step t is its age t - s, s the step that put it at 0 (a ball of the
    initial ground state at position p counts as put there at -p - 1).  The
    loop keeps only the birth steps, newest first: move k < b takes out the
    (k+1)-th oldest and puts t in front, and all heads changes nothing.  A
    finished lifetime [s, t) occupies one contiguous run of positions over
    the sampled steps, added as one range to a difference array; so a step
    costs O(k + 1), not O(b).
    """
    _check_e(e)
    if not 0 <= burnin < steps:
        raise DomainError(f"need 0 <= burnin < steps, got {burnin}, {steps}")
    if balls < 1:
        raise DomainError(f"need balls >= 1, got {balls}")
    _check_mu_max(mu_max)
    rng = random.Random(seed)
    heads = e ** (1.0 / balls)
    log_heads = math.log(heads)
    check_budget(mu_max * balls, "density row")
    hmax = math.ceil(mu_max * balls)
    # occupancy[h] is the prefix sum of starts[0..h]: a lifetime adds one
    # range of positions, clipped to the sampled steps and to [0, hmax)
    starts = [0] * (hmax + 1)
    births = deque(range(-1, -balls - 1, -1))
    for step in range(steps):
        u = rng.random()
        # number of leading heads: P(k >= j) = heads^j
        k = balls if u <= 0.0 else min(balls, int(math.log(u) / log_heads))
        if k < balls:
            # the ball born at `born` dies now: its lifetime occupies
            # positions lo..hi-1 over the sampled steps
            born = births[-1 - k]
            del births[-1 - k]
            births.appendleft(step)
            lo = burnin - born if born < burnin else 0
            hi = min(step - born, hmax)
            if lo < hi:
                starts[lo] += 1
                starts[hi] -= 1
    # the balls still up live until the last step
    for born in births:
        lo = burnin - born if born < burnin else 0
        hi = min(steps - born, hmax)
        if lo < hi:
            starts[lo] += 1
            starts[hi] -= 1
    occupancy = list(accumulate(starts[:hmax]))
    return _density_rows(occupancy, steps - burnin, balls, e)


def _density_rows(
    occupancy: list[int], samples: int, balls: int, e: float
) -> list[DensityComparison]:
    """Rows of `empirical_density`, one per position 0 <= h <
    len(occupancy), from the count of balls seen there over `samples`
    sampled states."""
    return [
        DensityComparison(h / balls, count / samples, ball_density(e, h / balls))
        for h, count in enumerate(occupancy)
    ]
