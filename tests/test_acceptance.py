"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""
import time
from fractions import Fraction

from jugglechain.asymptotics import (
    ball_density,
    density_curve,
    empirical_density,
    lambda_of_mu,
    most_likely_count,
    mu_of_lambda,
)
from jugglechain.chain import (
    CoinConfig,
    backward_dist,
    simulate,
    tv_distance,
)
from jugglechain.flagchain import (
    flag_backward_dist,
    verify_flag_stationarity,
)
from jugglechain.fqoracle import (
    column_prepend_dist,
    flag_column_prepend_dist,
    enumerate_matrices,
    flag_pivot_state,
    formula_pivot_fraction,
    pivot_fraction_sweep,
    pivot_state,
)
from jugglechain.hatted import HattedState, composed_backward_dist, hatted_backward_dist
from jugglechain.rng import ChainRng
from jugglechain.series import (
    bundle_factorization_holds,
    flag_series,
    flag_series_enumerated,
    grassmannian_series_closed,
    grassmannian_series_enumerated,
    perm_inversion_series,
    perm_series_closed,
    state_partition_series,
    state_partition_series_enumerated,
)
from jugglechain.siteswap import count_patterns
from jugglechain.states import (
    flag_states_up_to_inversions,
    ground_state,
    parse_flag_state,
    parse_state,
    states_up_to_inversions,
)
from test_asymptotics import argmax_prob_direct


def report(number: int, description: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{verdict}] {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_pattern_count():
    t0 = time.time()
    ok = all(
        count_patterns(n, b) == (b + 1) ** n
        for n in range(1, 5)
        for b in range(0, 4)
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    report(1, "count_patterns(n,b) == (b+1)^n for n<=4, b<=3", ok, elapsed)


def test_criterion_2_backward_distribution_example():
    t0 = time.time()
    dist = backward_dist(parse_state("--xx-x"), CoinConfig(Fraction(2)))
    expected = {
        "x--xx": Fraction(1, 2),
        "x--x--x": Fraction(1, 4),
        "x---x-x": Fraction(1, 8),
        "---xx-x": Fraction(1, 8),
    }
    ok = {str(s): p for s, p in dist.entries} == expected
    report(2, "backward_dist(--xx-x, q=2) reproduces the four outcomes", ok,
           time.time() - t0)


def test_criterion_3_exact_stationarity():
    from jugglechain.chain import verify_stationarity

    t0 = time.time()
    ok = True
    for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
        coin = CoinConfig(q)
        for b in (1, 2, 3):
            for state in states_up_to_inversions(b, 8):
                ok &= verify_stationarity(state, coin)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    report(3, "exact stationarity for inversions<=8, b in {1,2,3}, "
              "q in {2, 3, 7/2}", ok, elapsed)


def test_criterion_4_matrix_fractions():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        for b in (1, 2):
            sweeps = {}
            for n in (3, 4):
                sweep = pivot_fraction_sweep(b, n, p)
                sweeps[n] = sweep
                for state, fraction in sweep.items():
                    if state is not None:
                        ok &= fraction == formula_pivot_fraction(b, p, state)
            for state, fraction in sweeps[3].items():
                if state is not None:
                    ok &= sweeps[4][state] == fraction  # width independence
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(4, "pivot fractions match |GL_b|/p^(b^2)/p^inv for p in {2,3}, "
              "b in {1,2}, N in {3,4}, width-independent", ok, elapsed)


def test_criterion_5_transition_oracle():
    t0 = time.time()
    ok = True
    checked = 0
    for p in (2, 3):
        coin = CoinConfig(Fraction(p))
        for m in enumerate_matrices(2, 4, p):
            plain = pivot_state(m)
            if plain is None:
                continue
            checked += 1
            ok &= column_prepend_dist(m) == backward_dist(plain, coin)
            ok &= flag_column_prepend_dist(m) == flag_backward_dist(
                flag_pivot_state(m), coin
            )
    elapsed = time.time() - t0
    ok = ok and checked == 210 + 6240 and elapsed < 60
    report(5, "column-prepend law equals both chain laws for every "
              "full-rank 2x4 matrix, p in {2,3}", ok, elapsed)


def test_criterion_6_flag_distribution_example():
    t0 = time.time()
    ok = True
    state = parse_flag_state("--31-2")
    for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
        x = 1 / q
        expected = {
            "1--32": (1 - x) ** 2,
            "2--31": (1 - x) * x,
            "1--3--2": (1 - x) * x,
            "3---1-2": x * x * (1 - x),
            "---31-2": x**3,
        }
        dist = flag_backward_dist(state, CoinConfig(q))
        ok &= {str(s): p for s, p in dist.entries} == expected
    report(6, "flag_backward_dist(--31-2) is the five-term law in q "
              "(q = 2, 3, 7/2)", ok, time.time() - t0)


def test_criterion_7_flag_stationarity():
    t0 = time.time()
    coin = CoinConfig(Fraction(2))
    tolerance = Fraction(1, 2**10)
    ok = True
    for labels in [(1,), (1, 2), (1, 2, 3), (1, 1, 2)]:
        for state in flag_states_up_to_inversions(labels, 6):
            cap = len(state.cells) + len(labels) + 24
            bracket = verify_flag_stationarity(state, coin, cap, tolerance)
            ok &= bracket.ok
            if state.cells[0] is not None:
                ok &= bracket.tail_bound < bracket.expected * tolerance
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(7, "bracketed flag stationarity, inversions<=6, distinct labels "
              "b<=3 plus {1,1,2}, tail < 2^-10 * weight", ok, elapsed)


def test_criterion_8_hatted_composition():
    t0 = time.time()
    coin = CoinConfig(Fraction(2))
    ok = True
    for b in (1, 2, 3):
        labels = tuple(range(1, b + 1))
        for state in flag_states_up_to_inversions(labels, 6):
            ok &= composed_backward_dist(state, coin) == flag_backward_dist(
                state, coin
            )
    # the worked single step near "3 - 2 1": the first hatted step branches
    # two ways with probabilities {1 - 1/q, 1/q}
    q = Fraction(3)
    entry = HattedState(parse_flag_state("3-21").cells, 4)
    step = hatted_backward_dist(entry, CoinConfig(q))
    probs = sorted(p for _, p in step.entries)
    ok &= probs == sorted([1 - 1 / q, 1 / q])
    ok &= step.probability(HattedState(parse_flag_state("3-21").cells, 3)) == 1 - 1 / q
    elapsed = time.time() - t0
    report(8, "composed hatted law equals the flag law (b<=3, inv<=6, q=2); "
              "two-outcome step at {1-1/q, 1/q}", ok, elapsed)


def test_criterion_9_series_identities():
    t0 = time.time()
    d = 24
    ok = True
    for b in (1, 2, 3, 4):
        ok &= state_partition_series(b, d) == state_partition_series_enumerated(b, d)
    for b in (1, 2, 3):
        ok &= flag_series(b, d) == flag_series_enumerated(b, d)
    for n in range(1, 7):
        ok &= perm_inversion_series(n, d) == perm_series_closed(n, d)
    for h in range(1, 11):
        for j in range(h + 1):
            ok &= grassmannian_series_closed(j, h, d) == grassmannian_series_enumerated(j, h, d)
    for b in (1, 2, 3, 4, 5, 6):
        ok &= bundle_factorization_holds(b, d)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    report(9, "partition, flag, permutation (n<=6), Grassmannian (h<=10), "
              "and bundle identities to degree 24", ok, elapsed)


def test_criterion_10_asymptotics():
    t0 = time.time()
    ok = True
    # round trip to 1e-10
    for e in [i / 10 for i in range(1, 10)]:
        for lam in [i / 20 for i in range(1, 20)]:
            ok &= abs(lambda_of_mu(e, mu_of_lambda(e, lam)) - lam) < 1e-10
    # density is the derivative of lambda(mu), central difference at 1e-4
    step = 1e-4
    for e in [i / 10 for i in range(1, 10)]:
        for mu in (0.3, 0.8, 1.2, 2.0):
            fd = (lambda_of_mu(e, mu + step) - lambda_of_mu(e, mu - step)) / (2 * step)
            ok &= abs(fd - ball_density(e, mu)) < 1e-6
    # exact intercept
    for e in (0.00001, 0.1, 0.9):
        ok &= ball_density(e, 0.0) == 1 - e
        rows = density_curve(e, 6.0, 0.01)
        ok &= rows[0] == (0.0, 1 - e)
    # ratio crossing equals direct argmax
    for q in (Fraction(2), Fraction(3, 2)):
        for b in range(1, 7):
            for h in range(1, 11):
                ok &= most_likely_count(b, h, q) == argmax_prob_direct(b, h, q)
    report(10, "lambda/mu round trip 1e-10, density = d lambda/d mu to 1e-6, "
               "exact 1-E intercepts, ratio crossing = argmax", ok,
           time.time() - t0)


def test_criterion_11_monte_carlo():
    t0 = time.time()
    coin = CoinConfig(Fraction(2))
    hist = simulate(ground_state(2), coin, 1_000_000, 10_000, ChainRng(20240601))
    tv = tv_distance(hist, coin, 2, 10)
    ok = tv < 0.01
    rows = empirical_density(
        balls=64, e=0.1, mu_max=3.0, steps=400_000, burnin=20_000, seed=20240602
    )
    worst = max(r.absdiff for r in rows)
    ok &= worst < 0.05
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(11, f"10^6-step TV = {tv:.4f} < 0.01; empirical density max "
               f"deviation = {worst:.4f} < 0.05", ok, elapsed)
