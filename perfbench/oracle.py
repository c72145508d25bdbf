"""`oracle`: Z/p ground truth against the chain laws.

`fqoracle` does most of the work here: about 20-40 us per matrix in an
exhaustive sweep and 0.3-12 ms per column-prepend law.  Each round runs
the same pivot, flag and group fraction sweeps at acceptance-suite sizes
(p in {2, 3}, b <= 3), every state's fraction compared with its formula,
so that rounds cost about the same; then, for one full-rank matrix of
each size, it compares the column-prepend laws with `backward_dist` and
`flag_backward_dist` at q = p.  The matrices are drawn from the seed, including sizes beyond
exhaustive reach such as 3x6 over Z/5.  Unlike `verify`, which reads one
entry of the exact one-step law per target, this compares whole laws.
"""
from __future__ import annotations

import random
from fractions import Fraction

from jugglechain.chain import CoinConfig, backward_dist
from jugglechain.flagchain import flag_backward_dist
from jugglechain.fqoracle import (
    FqMatrix,
    column_prepend_dist,
    flag_column_prepend_dist,
    flag_fraction_sweep,
    flag_pivot_state,
    formula_flag_fraction,
    formula_group_fraction,
    formula_pivot_fraction,
    group_fraction_sweep,
    pivot_fraction_sweep,
    pivot_state,
)

from common import Deck, Run

# (kind, balls or label multiset, width, p), each swept every round
SWEEPS = [
    ("pivot", 3, 3, 2),
    ("pivot", 2, 3, 3),
    ("flag", 3, 3, 2),
    ("flag", 1, 4, 3),
    ("group", (1, 1, 2), 3, 2),
    ("group", (1, 1), 3, 3),
]
SWEEP_FUNCTIONS = {
    "pivot": (pivot_fraction_sweep, formula_pivot_fraction),
    "flag": (flag_fraction_sweep, formula_flag_fraction),
    "group": (group_fraction_sweep, formula_group_fraction),
}
# (height, width, p) of the matrices whose column-prepend laws are compared
PREPEND_SIZES = [(2, 3, 2), (2, 4, 3), (2, 5, 5), (3, 5, 3), (3, 6, 5)]
POOL_PER_SIZE = 200


def random_full_rank(height, width, p, rng):
    """Draw uniform matrices until one has full rank; returns it with its
    pivot and flag pivot states, and the number of draws it took."""
    draws = 0
    while True:
        rows = tuple(
            tuple(rng.randrange(p) for _ in range(width)) for _ in range(height)
        )
        matrix = FqMatrix(p, rows)
        draws += 1
        plain = pivot_state(matrix)
        if plain is not None:
            return (matrix, plain, flag_pivot_state(matrix)), draws


def check_prepend(run: Run, entry, q: Fraction) -> None:
    """Compare both column-prepend laws of a full-rank matrix with the
    chain laws at q (correct only at q = p)."""
    matrix, plain, flag = entry
    coin = CoinConfig(q)
    with run.span("fqoracle.column_prepend_dist", 1):
        law = column_prepend_dist(matrix)
    with run.span("chain.backward_dist", 1):
        expected = backward_dist(plain, coin)
    run.check("fqoracle", law == expected)
    with run.span("fqoracle.flag_column_prepend_dist", 1):
        law = flag_column_prepend_dist(matrix)
    with run.span("flagchain.flag_backward_dist", 1):
        expected = flag_backward_dist(flag, coin)
    run.check("fqoracle", law == expected)


class Workload:
    def __init__(self, seed: int, run: Run) -> None:
        rng = random.Random(seed)
        self.pools = []
        draws = 0
        for height, width, p in PREPEND_SIZES:
            pool = []
            for _ in range(POOL_PER_SIZE):
                entry, tries = random_full_rank(height, width, p, rng)
                pool.append(entry)
                draws += tries
            self.pools.append(Deck(pool, rng))
        kept = len(PREPEND_SIZES) * POOL_PER_SIZE
        run.gauges["fqoracle.full_rank_ratio"] = kept / draws

    def round(self, index: int, run: Run) -> int:
        """One round; returns the matrices the oracle classified."""
        matrices = 0
        for kind, balls, width, p in SWEEPS:
            sweep, formula = SWEEP_FUNCTIONS[kind]
            height = len(balls) if kind == "group" else balls
            count = p ** (height * width)
            with run.span(f"fqoracle.{kind}_fraction_sweep", count):
                fractions = sweep(balls, width, p)
            for state, fraction in fractions.items():
                if state is not None:
                    run.check("fqoracle", fraction == formula(balls, p, state))
            matrices += count
        for pool in self.pools:
            entry = pool.deal(index, 1)[0]
            check_prepend(run, entry, Fraction(entry[0].p))
            matrices += 2 * entry[0].p ** entry[0].height
        return matrices

    def finish(self, run: Run) -> None:
        pass
