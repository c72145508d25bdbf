"""Show that the benchmark's checks fail when they should.

    python3 perfbench/selftest.py

Three cases, each on a few rounds from a fixed seed:

1. the unmodified code passes every check of every workload;
2. a biased flip source (the check is given the right q, the coin flips
   with a wrong one) makes `sample` fail in `chain`, `flagchain` and
   `hatted`;
3. column-prepend laws compared with the chain laws at q = p + 1 make
   every `oracle` comparison fail.

Exits 0 when all three hold.
"""
import sys
from fractions import Fraction

import env

SEED = 1
ROUNDS = 3


def main() -> int:
    env.use_source_tree()
    import oracle
    import sample
    import verify
    from common import Run

    class BiasedFlips:
        """Flips with q' = (q + 1) / 2 whatever q the caller asks for."""

        def __init__(self, source):
            self._source = source
            self.seed = source.seed

        def heads(self, probability):
            q = 1 / Fraction(probability)
            return self._source.heads(1 / ((q + 1) / 2))

    class BiasedRun(Run):
        def flips(self, seed):
            return BiasedFlips(super().flips(seed))

    results = []
    for module in (sample, verify, oracle):
        run = Run()
        workload = module.Workload(SEED, run)
        for index in range(ROUNDS):
            workload.round(index, run)
        workload.finish(run)
        failed, attempted = sum(run.failed.values()), sum(run.attempted.values())
        results.append((f"unmodified {module.__name__}: no failures",
                        failed == 0, f"{failed}/{attempted}"))

    run = BiasedRun()
    workload = sample.Workload(SEED, run)
    for index in range(ROUNDS):
        workload.round(index, run)
    layers = ("chain", "flagchain", "hatted")
    results.append(("biased coin: sample fails in " + ", ".join(layers),
                    all(run.failed[layer] for layer in layers),
                    ", ".join(f"{layer} {run.failed[layer]}/{run.attempted[layer]}"
                              for layer in layers)))

    run = Run()
    workload = oracle.Workload(SEED, run)
    for index in range(ROUNDS):
        for pool in workload.pools:
            entry = pool.deal(index, 1)[0]
            oracle.check_prepend(run, entry, Fraction(entry[0].p + 1))
    failed, attempted = run.failed["fqoracle"], run.attempted["fqoracle"]
    results.append(("q = p + 1: every oracle comparison fails",
                    attempted > 0 and failed == attempted, f"{failed}/{attempted}"))

    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail} checks failed)")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
