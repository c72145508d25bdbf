"""`sample`: Monte-Carlo runs of every sampler.

Coins (`rng`) and the per-step kernels of `chain`, `flagchain`, `hatted`
and `asymptotics` do nearly all the work here and none in `verify` or
`oracle`.  Expected coins per plain step is the sum of q^-i for i < b:
1.5 at b=2, q=2 and about 4.16 at b=8, q=5/4, so a kernel whose cost
scales with coins shows its effect as that count rises.  The density run
uses numpy's generator and draws no `ChainRng` coins.

Each round restarts every chain from a fixed state with its own seed and
checks the round's samples against the exact stationary law by TV
distance, with a bound sized from the sample count.  The plain b=2 chain
is compared state by state (`tv_distance`); the others through the law
of the inversion count, which is where a wrong q shows (every state's
weight is prefactor * q^-inversions).  Densities are pooled over the run
and held to the 0.05 of acceptance criterion 11.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

from jugglechain.asymptotics import empirical_density
from jugglechain.chain import (
    CoinConfig,
    simulate,
    stationary_weight,
    tv_distance,
)
from jugglechain.flagchain import flag_backward_step, group_prefactor
from jugglechain.hatted import hatted_backward_step
from jugglechain.series import flag_series, sn, state_partition_series
from jugglechain.states import (
    FlagState,
    flag_inversions,
    ground_state,
    inversions,
    states_up_to_inversions,
)

from common import Run, level_law, level_tv, round_seed, tv_bound

# kind: (balls, q, sampled steps); each run adds BURNIN steps first
PLAIN = {"plain2": (2, Fraction(2), 1500), "plain8": (8, Fraction(5, 4), 600)}
FLAG_LABELS, FLAG_STEPS = (1, 2, 3, 4), 500
HATTED_LABELS, HATTED_STEPS = (1, 2, 3), 4000  # about 540 unhatted visits
BURNIN = 100
FLAG_Q = Fraction(2)
LAW_DEGREE = 40  # exact inversion levels; the rest is one remainder bin
TV_MAX_INVERSIONS = 10  # tv_distance's comparison set for plain2

DENSITY = dict(balls=64, e=0.1, mu_max=3.0)
DENSITY_STEPS, DENSITY_BURNIN = 800, 300
DENSITY_LIMIT = 0.05  # acceptance criterion 11


def expected_coins_per_step(balls: int, q: Fraction) -> Fraction:
    return sum((q**-i for i in range(balls)), Fraction(0))


class Workload:
    def __init__(self, seed: int, run: Run) -> None:
        self.seed = seed
        self.laws = {}
        # plain2 is compared state by state, over tv_distance's set
        balls, q, _ = PLAIN["plain2"]
        coin = CoinConfig(q)
        with run.span("states.states_up_to_inversions"):
            near = list(states_up_to_inversions(balls, TV_MAX_INVERSIONS))
        weights = [stationary_weight(s, coin) for s in near]
        self.laws["plain2"] = weights + [1 - sum(weights)]
        balls, q, _ = PLAIN["plain8"]
        counts = state_partition_series(balls, LAW_DEGREE).coeffs
        self.laws["plain8"] = level_law(counts, sn(balls, q), q)
        for kind, labels in (("flag4", FLAG_LABELS), ("hatted3", HATTED_LABELS)):
            counts = flag_series(len(labels), LAW_DEGREE).coeffs
            self.laws[kind] = level_law(
                counts, group_prefactor(labels, FLAG_Q), FLAG_Q
            )
        samples = {kind: steps for kind, (_, _, steps) in PLAIN.items()}
        samples["flag4"] = FLAG_STEPS
        self.bounds = {k: tv_bound(self.laws[k], n) for k, n in samples.items()}
        self.density_sum: list[float] | None = None
        self.density_predicted: list[float] = []
        self.density_rounds = 0

    def round(self, index: int, run: Run) -> int:
        """One round; returns the chain steps it ran."""
        seed = round_seed(self.seed, index)
        flips = run.flips(seed)
        work = 0
        for kind, (balls, q, steps) in PLAIN.items():
            coin = CoinConfig(q)
            total = steps + BURNIN
            with run.span(f"chain.simulate.{kind}", total):
                hist = simulate(ground_state(balls), coin, total, BURNIN, flips)
            work += total
            if kind == "plain2":
                with run.span("chain.tv_distance", 1):
                    tv = tv_distance(hist, coin, balls, TV_MAX_INVERSIONS)
            else:
                levels = Counter()
                for state, count in hist.counts:
                    levels[inversions(state)] += count
                tv = level_tv(levels, hist.samples, self.laws[kind])
            run.check("chain", tv < self.bounds[kind])

        coin = CoinConfig(FLAG_Q)
        state = FlagState(FLAG_LABELS)
        visited = []
        total = FLAG_STEPS + BURNIN
        with run.span("flagchain.flag_backward_step", total):
            for _ in range(total):
                state = flag_backward_step(state, coin, flips)
                visited.append(state)
        work += total
        levels = Counter(flag_inversions(s) for s in visited[BURNIN:])
        tv = level_tv(levels, FLAG_STEPS, self.laws["flag4"])
        run.check("flagchain", tv < self.bounds["flag4"])

        state = FlagState(HATTED_LABELS)
        visited = []
        total = HATTED_STEPS + BURNIN
        with run.span("hatted.hatted_backward_step", total):
            for _ in range(total):
                state = hatted_backward_step(state, coin, flips)
                visited.append(state)
        work += total
        # the unhatted visits form the flag chain on the same labels
        flags = [s for s in visited[BURNIN:] if isinstance(s, FlagState)]
        levels = Counter(flag_inversions(s) for s in flags)
        tv = level_tv(levels, len(flags), self.laws["hatted3"])
        run.check("hatted", tv < tv_bound(self.laws["hatted3"], len(flags)))

        with run.span("asymptotics.empirical_density", DENSITY_STEPS):
            rows = empirical_density(
                steps=DENSITY_STEPS, burnin=DENSITY_BURNIN, seed=seed, **DENSITY
            )
        work += DENSITY_STEPS
        if self.density_sum is None:
            self.density_sum = [0.0] * len(rows)
            self.density_predicted = [r.predicted for r in rows]
        for i, r in enumerate(rows):
            self.density_sum[i] += r.empirical
        self.density_rounds += 1
        return work

    def finish(self, run: Run) -> None:
        """The pooled density check (every round samples equally many
        steps, so the pooled density is the mean of the rounds')."""
        worst = max(
            abs(total / self.density_rounds - predicted)
            for total, predicted in zip(self.density_sum, self.density_predicted)
        )
        run.gauges["asymptotics.max_absdiff"] = worst
        run.check("asymptotics", worst < DENSITY_LIMIT)
