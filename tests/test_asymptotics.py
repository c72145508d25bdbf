import math
import random
from fractions import Fraction

import pytest

import jugglechain.errors as errors
from jugglechain.asymptotics import (
    _density_rows,
    ball_density,
    density_curve,
    empirical_density,
    lambda_of_mu,
    most_likely_count,
    mu_of_lambda,
    prob_exactly,
    prob_ratio,
)
from jugglechain.chain import CoinConfig, _plain_step, stationary_weight
from jugglechain.errors import DomainError, ResourceLimit
from jugglechain.series import sn
from jugglechain.states import states_up_to_inversions

Q2 = Fraction(2)


def argmax_prob_direct(b: int, h: int, q: Fraction) -> int:
    """The reference for `most_likely_count`: evaluate every P_c and take
    the first maximum."""
    best_c, best = 0, prob_exactly(b, h, 0, q)
    for c in range(1, min(h, b) + 1):
        value = prob_exactly(b, h, c, q)
        if value > best:
            best_c, best = c, value
    return best_c


def position_scan_density(balls, e, mu_max, steps, burnin, seed):
    """The reference for `empirical_density`: on the same draws, step the
    sorted positions with `_plain_step` and scan them at every sampled
    step, O(b) per step."""
    rng = random.Random(seed)
    heads = e ** (1.0 / balls)
    log_heads = math.log(heads)
    hmax = int(math.ceil(mu_max * balls))
    occupancy = [0] * hmax
    state = tuple(range(balls))
    for step in range(steps):
        u = rng.random()
        k = balls if u <= 0.0 else min(balls, int(math.log(u) / log_heads))
        state = _plain_step(state, k)
        if step >= burnin:
            for h in state:
                if h >= hmax:
                    break
                occupancy[h] += 1
    return _density_rows(occupancy, steps - burnin, balls, e)


class TestOccupancyProbability:
    def test_total_probability(self):
        for b in range(1, 5):
            for h in range(1, 7):
                total = sum(
                    prob_exactly(b, h, c, Q2) for c in range(min(h, b) + 1)
                )
                assert total == 1

    def test_enumeration_oracle_brackets_closed_form(self):
        # sum stationary weights of states with exactly c balls in [0, h),
        # splitting off the infinite remainder as an exact geometric factor:
        # the far parts contribute 1/s_{b-c} exactly in the limit, so the
        # truncated sum plus tail must bracket the closed form
        b, h, q = 2, 3, Q2
        coin = CoinConfig(q)
        for c in range(min(h, b) + 1):
            counted = Fraction(0)
            for state in states_up_to_inversions(b, 30):
                inside = sum(1 for p in state.positions if p < h)
                if inside == c:
                    counted += stationary_weight(state, coin)
            exact = prob_exactly(b, h, c, q)
            # states beyond inversion 30 carry less than 2^-25 mass
            assert abs(exact - counted) < Fraction(1, 2**25)

    def test_ground_mass_case(self):
        # c = b, h = b: only the ground state fits entirely inside [0, b)
        for b in (1, 2, 3):
            assert prob_exactly(b, b, b, Q2) == sn(b, Q2)

    def test_domain(self):
        with pytest.raises(DomainError):
            prob_exactly(2, 3, 3, Q2)


class TestRatio:
    def test_matches_quotient(self):
        for q in (Q2, Fraction(3)):
            for b in range(1, 5):
                for h in range(1, 7):
                    for c in range(1, min(h, b) + 1):
                        assert prob_ratio(b, h, c, q) == prob_exactly(
                            b, h, c, q
                        ) / prob_exactly(b, h, c - 1, q)

    def test_crossing_matches_argmax(self):
        for q in (Q2, Fraction(3, 2)):
            for b in range(1, 7):
                for h in range(1, 11):
                    assert most_likely_count(b, h, q) == argmax_prob_direct(
                        b, h, q
                    )

    def test_large_q_prefers_ground(self):
        # with q huge the ratio stays above 1, so all balls crowd in
        assert most_likely_count(4, 4, Fraction(10**6)) == 4


class TestContinuumFormulas:
    def test_density_at_zero_is_exact(self):
        for e in (0.00001, 0.1, 0.5, 0.9):
            assert ball_density(e, 0.0) == 1 - e

    def test_density_limits_as_e_vanishes(self):
        assert ball_density(1e-9, 0.5) == pytest.approx(1.0, abs=1e-4)
        assert ball_density(1e-9, 1.5) == pytest.approx(0.0, abs=1e-4)

    def test_round_trip(self):
        for e in [i / 10 for i in range(1, 10)]:
            for lam in [i / 20 for i in range(1, 20)]:
                mu = mu_of_lambda(e, lam)
                assert abs(lambda_of_mu(e, mu) - lam) < 1e-10

    def test_ordering(self):
        for e in (0.2, 0.7):
            for lam in (0.1, 0.5, 0.9):
                assert mu_of_lambda(e, lam) > lam
            for mu in (0.3, 1.0, 2.0):
                assert lambda_of_mu(e, mu) < mu

    def test_density_is_derivative_of_lambda(self):
        h = 1e-4
        for e in [i / 10 for i in range(1, 10)]:
            for mu in (0.3, 0.8, 1.2, 2.0):
                fd = (lambda_of_mu(e, mu + h) - lambda_of_mu(e, mu - h)) / (2 * h)
                assert abs(fd - ball_density(e, mu)) < 1e-6

    def test_lambda_at_one(self):
        for e in (1e-5, 0.1, 0.5):
            expected = 1 - math.log(2 - e) / math.log(1 / e)
            assert lambda_of_mu(e, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_tail_fraction_approximation(self):
        e = 1e-5
        tail = 1 - lambda_of_mu(e, 1.0)
        approx = math.log(2) / math.log(1 / e)
        assert abs(tail - approx) / approx < 0.1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ball_density(1.5, 0.0)
        with pytest.raises(DomainError):
            mu_of_lambda(0.5, 0.0)
        with pytest.raises(DomainError):
            lambda_of_mu(0.5, -1.0)


class TestFarTail:
    """Past about mu = 1 + 709/log(1/E), E^(1-mu) overflows a float while
    the density tends to 0 and lambda to 1."""

    @pytest.mark.parametrize("e", [1e-5, 0.1, 0.5, 0.9])
    def test_density_finite_and_nonincreasing(self, e):
        switch = 1 + math.log(1.7e308) / math.log(1 / e)
        mus = [switch * k / 100 for k in range(90, 120)]
        mus += [switch + k * 1e-9 * switch for k in range(-500, 500)]
        mus += [1e6, 1e300]
        values = [ball_density(e, mu) for mu in sorted(mus)]
        assert all(0 <= d < 1 for d in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    @pytest.mark.parametrize("e", [1e-5, 0.1, 0.5, 0.9])
    def test_lambda_tends_to_one(self, e):
        for mu in (2000.0, 1e6, 1e300):
            assert lambda_of_mu(e, mu) == pytest.approx(1.0, abs=1e-9)

    def test_values_short_of_the_overflow_unchanged(self):
        for e, mu in [(0.1, 6.0), (0.1, 308.0), (0.5, 1000.0), (1e-5, 62.0)]:
            assert ball_density(e, mu) == (1 - e) / (1 + (e ** (1 - mu) - e))

    @pytest.mark.parametrize("e", [1e-9, 1e-5, 0.1, 0.5, 0.9, 0.999])
    def test_lambda_in_unit_interval_and_nondecreasing(self, e):
        # a grid from 0 to past the overflow, and a fine one around it,
        # where the form mu - log(1 + E^(1-mu) - E)/log(1/E) would cancel
        # two numbers of size mu
        switch = 1 + math.log(1.7e308) / math.log(1 / e)
        mus = [switch * k / 20000 for k in range(24001)]
        mus += [switch + k * 1e-9 * switch for k in range(-10000, 10000)]
        values = [lambda_of_mu(e, mu) for mu in sorted(mus)]
        assert all(0 <= lam <= 1 for lam in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestDensityCurve:
    def test_y_intercept_row(self):
        rows = density_curve(0.1, 2.0, 0.01)
        assert rows[0] == (0.0, 1 - 0.1)
        assert len(rows) == 201

    def test_flat_curve_at_high_e(self):
        rows = density_curve(0.9, 6.0, 0.1)
        values = [d for _, d in rows]
        assert max(values) == values[0] == pytest.approx(0.1)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sigmoidal_at_tiny_e(self):
        rows = dict(density_curve(0.00001, 6.0, 0.5))
        assert rows[0.5] > 0.99
        assert rows[3.0] < 0.01

    @pytest.mark.parametrize(
        "mu_max,step", [(2.0, 1e-6), (1e308, 1e-308), (math.nan, 0.1)]
    )
    def test_oversized_table_refused(self, mu_max, step):
        with pytest.raises(ResourceLimit, match="density row enumeration"):
            density_curve(0.1, mu_max, step)

    def test_budget_is_exact(self, monkeypatch):
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", 100)
        assert len(density_curve(0.1, 0.99, 0.01)) == 100
        with pytest.raises(ResourceLimit):
            density_curve(0.1, 1.0, 0.01)


class TestEmpiricalDensity:
    def test_matches_closed_form(self):
        rows = empirical_density(
            balls=64, e=0.1, mu_max=3.0, steps=150_000, burnin=15_000, seed=5
        )
        assert max(r.absdiff for r in rows) < 0.05

    def test_intercept_and_monotonicity(self):
        rows = empirical_density(
            balls=48, e=0.2, mu_max=2.0, steps=120_000, burnin=12_000, seed=9
        )
        assert abs(rows[0].empirical - 0.8) < 0.05
        # averaged over four buckets per unit of mu the occupancy decreases
        buckets = [[] for _ in range(8)]
        for h, row in enumerate(rows):
            buckets[h * 4 // 48].append(row.empirical)
        values = [sum(bucket) / len(bucket) for bucket in buckets]
        assert all(a >= b - 0.02 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("balls", [11, 13, 100])
    def test_one_row_per_position(self, balls):
        # at these b, h / b * b rounds below h for some h
        rows = empirical_density(
            balls=balls, e=0.1, mu_max=3.0, steps=2000, burnin=200, seed=1
        )
        assert len(rows) == 3 * balls
        assert [r.mu for r in rows] == [h / balls for h in range(3 * balls)]

    @pytest.mark.parametrize(
        "balls,mu_max", [(64, 1e308), (1_000_000, 1e7), (1000, 2000.001)]
    )
    def test_oversized_table_refused(self, balls, mu_max):
        with pytest.raises(ResourceLimit, match="density row enumeration"):
            empirical_density(
                balls=balls, e=0.1, mu_max=mu_max, steps=10, burnin=0, seed=1
            )

    def test_budget_is_exact(self, monkeypatch):
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", 100)
        kwargs = dict(balls=10, e=0.1, steps=10, burnin=0, seed=1)
        assert len(empirical_density(mu_max=10.0, **kwargs)) == 100
        with pytest.raises(ResourceLimit):
            empirical_density(mu_max=10.01, **kwargs)

    def test_seed_determinism(self):
        kwargs = dict(balls=32, e=0.3, mu_max=1.5, steps=20_000, burnin=2_000, seed=3)
        assert empirical_density(**kwargs) == empirical_density(**kwargs)

    @pytest.mark.parametrize(
        "balls, steps, burnin", [(1, 3000, 300), (2, 3000, 300), (8, 3000, 300),
                                 (64, 3000, 500), (256, 1500, 700)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_equals_the_position_scan(self, balls, steps, burnin, seed):
        kwargs = dict(balls=balls, e=0.1, mu_max=3.0, steps=steps,
                      burnin=burnin, seed=seed)
        assert empirical_density(**kwargs) == position_scan_density(**kwargs)

    @pytest.mark.parametrize(
        "case",
        [
            dict(balls=8, e=0.1, mu_max=3.0, steps=500, burnin=0),
            dict(balls=64, e=0.1, mu_max=3.0, steps=500, burnin=0),
            # one sampled step, early and after a long burn-in
            dict(balls=8, e=0.1, mu_max=3.0, steps=1, burnin=0),
            dict(balls=64, e=0.1, mu_max=3.0, steps=2000, burnin=1999),
            # mu_max < 1: hmax < b, and the oldest balls lie past hmax
            dict(balls=64, e=0.1, mu_max=0.5, steps=2000, burnin=100),
            dict(balls=256, e=0.01, mu_max=0.3, steps=1000, burnin=100),
            dict(balls=8, e=0.1, mu_max=0.0, steps=200, burnin=10),
            # E near 1: most moves are all heads and leave every ball be
            dict(balls=8, e=0.99, mu_max=6.0, steps=3000, burnin=100),
            dict(balls=64, e=0.999, mu_max=3.0, steps=2000, burnin=1000),
            # E tiny: the first tails comes early, and old balls move
            dict(balls=64, e=1e-9, mu_max=2.0, steps=2000, burnin=100),
            dict(balls=48, e=0.2, mu_max=2.0, steps=2000, burnin=200),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_edge_cases_equal_the_position_scan(self, case, seed):
        kwargs = dict(case, seed=seed)
        assert empirical_density(**kwargs) == position_scan_density(**kwargs)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=100, burnin=100),  # no sampled step
            dict(balls=0),
        ],
    )
    def test_arguments_refused(self, bad):
        kwargs = dict(balls=8, e=0.1, mu_max=2.0, steps=100, burnin=10, seed=1)
        with pytest.raises(DomainError):
            empirical_density(**dict(kwargs, **bad))
