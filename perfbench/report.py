"""Print every metric of every workload in one go.

    python3 perfbench/report.py [--seed 1] [--seconds N]

Runs the self-test, then each workload of BENCHMARK.json untraced (the
end-to-end metrics) and traced (the per-layer metrics), each in its own
process so that memory is not shared between workloads.  `--seconds`
defaults to BENCHMARK.json's `run_seconds`.  Exits 1 if the self-test
fails or any check fails.
"""
import argparse
import json
import subprocess
import sys

from env import ROOT

HERE = ROOT / "perfbench"


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()

    print("== self-test", flush=True)
    ok = subprocess.run([sys.executable, str(HERE / "selftest.py")]).returncode == 0
    for workload in config["workloads"]:
        for trace in (0, 1):
            print(f"== {workload['name']} --trace {trace}: {workload['why']}", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            print("\n".join(lines[:-1]), flush=True)
            if result is None or not result["correct"]:
                print(done.stderr, file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
