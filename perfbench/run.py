"""The jugglechain benchmark: one workload, one process, one closed-loop
client on one thread.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 30 --trace 0

Workloads (see each module's docstring for why it was chosen):
`sample` (Monte-Carlo chains), `verify` (exact balance checks and series
identities) and `oracle` (Z/p matrix ground truth).  A run

1. starts the set-up probe (`probe.py`) in fresh interpreters a few times,
   before the timed rounds and again after them, and reports the median
   wall time as `setup_s`;
2. generates the inputs from `--seed`, plays a few warm-up rounds, then
   plays fixed-size rounds back to back for `--seconds`, checking every
   output against the exact law (a failed check counts in `failed`);
3. prints each metric with its unit, then one JSON line.

With `--trace 0` it reports the end-to-end metrics.  Each round is
bracketed by runs of the calibration kernel (`calibrate.py`), and round
times are reported in reference milliseconds, scaled by the two
calibrations around them, so that a spell in which a shared host runs
slower cancels; the wall-clock figures are printed on a `#` line.

With `--trace 1` every round is played twice, untraced and traced (alternating which goes
first), and it reports per-layer metrics from the spans, the tracing
overhead between the two, and writes the spans to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import env

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sample", "verify", "oracle")
SETUP_PROBES = (8, 7)  # before and after the timed rounds
WARMUP_ROUNDS = 2
PROBE_TIMEOUT_S = 60

# per-layer naming of the sampled chains: kind -> span of its step loop
STEP_SPANS = {
    "plain2": "chain.simulate.plain2",
    "plain8": "chain.simulate.plain8",
    "flag4": "flagchain.flag_backward_step",
    "hatted3": "hatted.hatted_backward_step",
}
LAYERS = ("rng", "chain", "flagchain", "hatted", "fqoracle", "series", "asymptotics")
CHECKED_LAYERS = ("chain", "flagchain", "hatted", "asymptotics", "series", "fqoracle")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int, count: int) -> tuple[list[float], list[dict]]:
    """Wall seconds of each fresh-interpreter set-up, and what each probe
    reported about its own imports and inputs."""
    walls, probes = [], []
    command = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
               "--seed", str(seed)]
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return walls, probes


def play(workload, index: int, run, tracing: bool) -> tuple[int, int]:
    """One round; returns (nanoseconds, units of work)."""
    run.tracing = tracing
    run.tracer.round = index
    t0 = time.perf_counter_ns()
    with run.span("round"):
        work = workload.round(index, run)
    return time.perf_counter_ns() - t0, work


def calibrated() -> int:
    """Wall nanoseconds of one run of the calibration kernel."""
    t0 = time.perf_counter_ns()
    if calibrate.kernel() != calibrate.CHECKSUM:
        sys.exit("perfbench: the calibration kernel gave a wrong checksum")
    return time.perf_counter_ns() - t0


def end_to_end(round_ns: list[int], cal_ns: list[int], work: int,
               walls: list[float]) -> dict:
    ref_ns = [ns * k for ns, k in zip(round_ns, calibrate.scale(cal_ns))]
    deciles = statistics.quantiles(ref_ns, n=10)
    return {
        "work_per_ref_s": (work / (sum(ref_ns) / 1e9), "1/ref_s"),
        "round_p50_ref_ms": (statistics.median(ref_ns) / 1e6, "ref_ms"),
        "round_p90_ref_ms": (deciles[8] / 1e6, "ref_ms"),
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run, probes: list[dict], traced_ns: list[int], untraced_ns: list[int]) -> dict:
    from spans import LayerTotals

    totals = run.tracer.totals()
    empty = LayerTotals()

    def per_unit(name: str, scale: float, part: str = "ns") -> float:
        t = totals.get(name, empty)
        return getattr(t, part) / scale / t.units if t.units else 0.0

    def per_call(name: str, scale: float) -> float:
        t = totals.get(name, empty)
        return t.ns / scale / t.calls if t.calls else 0.0

    def probe_median(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    coins = sum(t.coins for t in totals.values())
    coin_ns = sum(t.coin_ns for t in totals.values())
    rounds = len(traced_ns)
    m = {
        "rng.heads.calls": (coins, "count"),
        "rng.heads.us_per_call": (coin_ns / 1e3 / coins if coins else 0.0, "us"),
    }
    for kind, span in STEP_SPANS.items():
        m[f"rng.heads.calls_per_step.{kind}"] = (per_unit(span, 1, "coins"), "calls/step")
    for kind in ("plain2", "plain8"):
        span = STEP_SPANS[kind]
        m[f"chain.simulate.us_per_step.{kind}"] = (per_unit(span, 1e3), "us")
        m[f"chain.backward_step.self_us_per_step.{kind}"] = (
            per_unit(span, 1e3, "self_ns"), "us")
    m["chain.tv_distance.ms_per_call"] = (per_call("chain.tv_distance", 1e6), "ms")
    m["flagchain.flag_backward_step.us_per_step"] = (
        per_unit("flagchain.flag_backward_step", 1e3), "us")
    m["flagchain.flag_backward_step.self_us_per_step"] = (
        per_unit("flagchain.flag_backward_step", 1e3, "self_ns"), "us")
    m["hatted.hatted_backward_step.us_per_step"] = (
        per_unit("hatted.hatted_backward_step", 1e3), "us")
    m["asymptotics.empirical_density.us_per_step"] = (
        per_unit("asymptotics.empirical_density", 1e3), "us")
    m["asymptotics.max_absdiff"] = (run.gauges.get("asymptotics.max_absdiff", 0.0), "1")
    m["setup.import_ms"] = (probe_median("import_ms"), "ms")
    m["setup.inputs_ms"] = (probe_median("inputs_ms"), "ms")
    m["states.enumerate_ms"] = (probe_median("enumerate_ms"), "ms")
    m["chain.verify_stationarity.us_per_state"] = (
        per_unit("chain.verify_stationarity", 1e3), "us")
    for tag in ("123", "112"):
        m[f"flagchain.verify_flag_stationarity.ms_per_state.{tag}"] = (
            per_unit(f"flagchain.verify_flag_stationarity.{tag}", 1e6), "ms")
    m["flagchain.bracket.max_tail_over_weight"] = (
        run.gauges.get("flagchain.bracket.max_tail_over_weight", 0.0), "1")
    m["hatted.composed_backward_dist.us_per_state"] = (
        per_unit("hatted.composed_backward_dist", 1e3), "us")
    m["series.closed_ms_per_identity"] = (per_call("series.closed", 1e6), "ms")
    m["series.enumerated_ms_per_identity"] = (per_call("series.enumerated", 1e6), "ms")
    for kind in ("pivot", "flag", "group"):
        name = f"fqoracle.{kind}_fraction_sweep"
        m[f"{name}.us_per_matrix"] = (per_unit(name, 1e3), "us")
    for name in ("fqoracle.column_prepend_dist", "fqoracle.flag_column_prepend_dist"):
        m[f"{name}.us_per_matrix"] = (per_unit(name, 1e3), "us")
    m["fqoracle.full_rank_ratio"] = (run.gauges.get("fqoracle.full_rank_ratio", 0.0), "1")
    m["chain.backward_dist.us_per_call"] = (per_call("chain.backward_dist", 1e3), "us")
    m["flagchain.flag_backward_dist.us_per_call"] = (
        per_call("flagchain.flag_backward_dist", 1e3), "us")
    # self time per traced round, by layer; "bench" is the benchmark's own
    # checking and bookkeeping (the round span's self time)
    for layer in LAYERS:
        if layer == "rng":
            self_ns = coin_ns
        else:
            self_ns = sum(t.self_ns for name, t in totals.items()
                          if name.startswith(layer + "."))
        m[f"{layer}.self_ms_per_round"] = (self_ns / 1e6 / rounds, "ms")
    m["bench.self_ms_per_round"] = (totals["round"].self_ns / 1e6 / rounds, "ms")
    for layer in CHECKED_LAYERS:
        m[f"{layer}.check_failures"] = (run.failed[layer], "count")
    m["trace.overhead_ratio"] = (sum(traced_ns) / sum(untraced_ns), "1")
    return m


def main() -> None:
    args = parse_args()
    env.use_source_tree()
    # Importing here first also compiles the bytecode the probes then load.
    module = importlib.import_module(args.workload)
    from common import Run

    walls, probes = measure_setup(args.workload, args.seed, SETUP_PROBES[0])
    run = Run()
    workload = module.Workload(args.seed, run)
    for i in range(WARMUP_ROUNDS):
        play(workload, -1 - i, run, tracing=False)

    untraced_ns, traced_ns, work, index = [], [], 0, 0
    cal_ns = [] if args.trace else [calibrated()]
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        if args.trace:
            for tracing in ((False, True) if index % 2 == 0 else (True, False)):
                ns, _ = play(workload, index, run, tracing)
                (traced_ns if tracing else untraced_ns).append(ns)
        else:
            ns, units = play(workload, index, run, tracing=False)
            untraced_ns.append(ns)
            work += units
            cal_ns.append(calibrated())
        index += 1
    run.tracing = False
    workload.finish(run)
    more_walls, more_probes = measure_setup(args.workload, args.seed, SETUP_PROBES[1])
    walls += more_walls
    probes += more_probes

    if args.trace:
        metrics = per_layer(run, probes, traced_ns, untraced_ns)
        run.tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(untraced_ns, cal_ns, work, walls)

    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    info = env.describe(args.seed)
    info.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                rounds=index, setup_probes=len(walls))
    print("# " + json.dumps(info))
    if not args.trace:
        wall = {
            "work_per_s": work / (sum(untraced_ns) / 1e9),
            "round_p50_ms": statistics.median(untraced_ns) / 1e6,
            "calibration_p50_ms": statistics.median(cal_ns) / 1e6,
        }
        print("# wall clock: " + json.dumps(wall))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':52s} {failed / attempted:14.6g} ({failed}/{attempted} checks)")
    if args.workload == "sample" and args.trace:
        from sample import PLAIN, expected_coins_per_step

        for kind, (balls, q, _) in PLAIN.items():
            exact = float(expected_coins_per_step(balls, q))
            print(f"# rng.heads.calls_per_step.{kind}: exact {exact:.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
