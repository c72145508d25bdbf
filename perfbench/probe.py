"""Set up one workload in a fresh interpreter and say how long it took.

    python3 perfbench/probe.py --workload sample --seed 1

Imports the workload's modules (and through them jugglechain), generates
its inputs, and prints one JSON line with `import_ms`, `inputs_ms` and
`enumerate_ms` (the part of input generation spent enumerating states).
`run.py` starts this several times and takes the wall time of each
process, interpreter start-up included, as one set-up sample.
"""
import argparse
import importlib
import json
import time

import env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    env.use_source_tree()

    t0 = time.perf_counter()
    module = importlib.import_module(args.workload)
    t1 = time.perf_counter()
    from common import Run

    run = Run()
    run.tracing = True  # spans around state enumeration only
    module.Workload(args.seed, run)
    t2 = time.perf_counter()
    enumerate_ns = sum(
        totals.ns
        for name, totals in run.tracer.totals().items()
        if name.startswith("states.")
    )
    print(
        json.dumps(
            {
                "import_ms": (t1 - t0) * 1e3,
                "inputs_ms": (t2 - t1) * 1e3,
                "enumerate_ms": enumerate_ns / 1e6,
            }
        )
    )


if __name__ == "__main__":
    main()
