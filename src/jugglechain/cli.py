"""Command-line interface.

Every subcommand emits a table (CSV with a header row and a trailing
metadata comment, or JSON) and reflects verification outcomes in its exit
status: 0 all good, 1 a check failed, 2 bad flags.  Given the same flags
and seed the output is byte-identical.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import __version__
from .asymptotics import density_curve, empirical_density
from .chain import (
    PLAIN,
    CoinConfig,
    backward_dist,
    simulate,
    stationary_weight,
    tv_distance,
    verify_stationarity,
)
from .errors import JuggleError, ParseError, ResourceLimit
from .flagchain import (
    FLAG,
    flag_backward_dist,
    flag_forward_edges,
    flag_stationarity_holds,
    flag_stationary_weight,
    label_groups,
)
from .fqoracle import (
    SUPPORTED_PRIMES,
    formula_group_fraction,
    formula_pivot_fraction,
    group_fraction_sweep,
    pivot_fraction_sweep,
)
from .rng import ChainRng
from .series import (
    DEFAULT_DEGREE,
    bundle_factorization_holds,
    check_enumeration_budget,
    check_state_budget,
    check_sweep_budget,
    flag_series,
    flag_series_enumerated,
    grassmannian_series_closed,
    grassmannian_series_enumerated,
    perm_inversion_series,
    perm_series_closed,
    state_partition_series,
    state_partition_series_enumerated,
)
from .siteswap import parse_siteswap, validate_siteswap
from .states import (
    FlagState,
    forward_edges,
    ground_state,
    parse_flag_state,
    parse_state,
    states_up_to_inversions,
    flag_states_up_to_inversions,
)


def _flag_text(value) -> str:
    # --labels parses to a tuple; hashing its comma spelling keeps the
    # config hash of a canonically typed value, such as 1,2,3, that of the text
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# where a run writes does not change what it computes; these flags hash as
# if unset, so the hash of a run without them is unchanged
_UNHASHED = ("output", "trajectory")


def _config_hash(args: argparse.Namespace) -> str:
    flags = {k: None if k in _UNHASHED else v for k, v in vars(args).items()}
    payload = json.dumps(
        {k: _flag_text(v) for k, v in sorted(flags.items()) if k != "func"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _emit(args, header: list[str], rows: list[list], seed=None) -> None:
    meta = {
        "version": __version__,
        "seed": "-" if seed is None else str(seed),
        "config": _config_hash(args),
    }
    if args.format == "json":
        payload = {
            "header": header,
            "rows": [[str(v) for v in row] for row in rows],
            "meta": meta,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(str(v) for v in row) + "\n")
        buf.write(
            f"# jugglechain {meta['version']} seed={meta['seed']} "
            f"config={meta['config']}\n"
        )
        text = buf.getvalue()
    if args.output:
        with _open_for_writing("--output", args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _FlagError(Exception):
    """A flag value that parses but does not fit the other flags; main
    reports it like argparse does, with exit status 2."""


def _open_for_writing(flag: str, path: str):
    """`path` opened for writing, or refused as argparse's "can't open"."""
    try:
        return open(path, "w")
    except OSError as exc:
        message = f"argument {flag}: can't open {path!r}: {exc.strerror}"
        raise _FlagError(message) from None


def _output_path(text: str) -> str:
    """argparse type of --output: refused with the reason `open` would
    give when it is a directory or its directory is missing, before any
    work.  It is not opened here, since an early open would truncate a
    file that a later flag's refusal must leave as it was; `_emit` opens
    it (`_open_for_writing`) and refuses what no look can tell, such as
    permissions."""
    try:
        if os.path.isdir(text):
            code = errno.EISDIR
        elif not stat.S_ISDIR(os.stat(os.path.dirname(text) or ".").st_mode):
            code = errno.ENOTDIR
        else:
            return text
    except OSError as exc:  # the directory, or a directory above it
        code = exc.errno
    raise argparse.ArgumentTypeError(f"can't open {text!r}: {os.strerror(code)}")


# a q: D, D/D or D.D in ASCII digits ([0-9] is ASCII alone; `Fraction`
# also takes other scripts' digits, `_` and exponents, and an exponent of
# ten million digits keeps it busy for seconds)
_ASCII_RATIONAL = re.compile(r"[0-9]+(?:[/.][0-9]+)?")


def _parse_q(text: str) -> Fraction:
    """argparse type of --q: an exact rational above 1, as D, D/D or D.D."""
    if not _ASCII_RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):  # past int's digit limit, or D/0
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None
    if q <= 1:
        raise argparse.ArgumentTypeError(f"q must exceed 1, got {text}")
    return q


def _ascii_number(text: str, kind: str) -> str:
    """`text`, refused as not `kind` unless it is ASCII without `_`, as
    `int` and `float` would also read other scripts' digits and `_`."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
    return text


def _integer(text: str, low: int | None = None) -> int:
    """argparse type of --seed and --p, and the counts' base type: an
    integer in ASCII digits, at least `low` when that is given."""
    try:
        value = int(_ascii_number(text, "an integer"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if low is not None and value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _natural(text: str) -> int:
    """argparse type of counts and caps: an integer >= 0."""
    return _integer(text, 0)


def _positive(text: str) -> int:
    """argparse type of sizes that must be nonempty: an integer >= 1."""
    return _integer(text, 1)


def _real(text: str) -> float:
    """The real flags' base type: a finite float (nan and inf refused)."""
    try:
        value = float(_ascii_number(text, "a number"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _all_heads_probability(text: str) -> float:
    """argparse type of --E: a real strictly between 0 and 1."""
    e = _real(text)
    if not 0 < e < 1:
        raise argparse.ArgumentTypeError(f"E must lie in (0, 1), got {text}")
    return e


def _nonnegative_real(text: str) -> float:
    """argparse type of --mu-max: a real >= 0."""
    value = _real(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _positive_real(text: str) -> float:
    """argparse type of --step: a real above 0."""
    value = _real(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


# the --burnin of each sampling subcommand when omitted, unless --steps is
# at most this; then half the steps are burnt in
_DENSITY_BURNIN = 20_000
_SIMULATE_BURNIN = 1_000


def _burnin_help(default: int) -> str:
    return (
        f"steps run before counting (default {default}, or steps // 2 when "
        f"--steps is at most {default}); must be below --steps"
    )


def _resolve_burnin(args, default: int, sampling: bool = True) -> None:
    """Fill in an omitted --burnin and check it against --steps.  Omitted,
    it is `default`, or steps // 2 when a sampling run has at most
    `default` steps.  A run that samples nothing keeps `default` unchecked:
    its --burnin only feeds the config hash."""
    omitted = args.burnin is None
    if omitted:
        halve = sampling and args.steps <= default
        args.burnin = args.steps // 2 if halve else default
    if sampling and args.burnin >= args.steps:
        # an omitted --burnin is below any --steps but 0
        if omitted:
            raise _FlagError(f"--steps must be at least 1, got {args.steps}")
        raise _FlagError(
            f"--burnin ({args.burnin}) must be below --steps ({args.steps})"
        )


# a label token: an optional minus sign and ASCII digits, with the
# whitespace int allows around them ([0-9] is ASCII alone; \d takes '１')
_ASCII_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def _parse_labels(text: str) -> tuple[int, ...]:
    """argparse type of --labels: comma-separated integers >= 1, in ASCII
    digits (`int` alone also takes other scripts' digits and `_`)."""
    tokens = text.split(",")
    if not all([_ASCII_INTEGER.fullmatch(tok) for tok in tokens]):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        )
    labels = tuple(map(int, tokens))
    if min(labels) < 1:
        raise argparse.ArgumentTypeError(f"labels must be positive, got {text}")
    return labels


# ---------------------------------------------------------------------------
# subcommands


def cmd_siteswap(args) -> int:
    sw = parse_siteswap(args.pattern)
    info = validate_siteswap(sw)  # raises InvalidPattern on failure
    rows = [[i, t, str(s)] for i, (t, s) in enumerate(zip(sw.throws, info.states))]
    rows.append(["<balls>", info.balls, "-"])
    _emit(args, ["beat", "throw", "state_before"], rows)
    return 0


def cmd_dist(args) -> int:
    coin = CoinConfig(args.q)
    if args.flag_state is not None:
        state = parse_flag_state(args.flag_state)
        dist = flag_backward_dist(state, coin)
    else:
        state = parse_state(args.state)
        dist = backward_dist(state, coin)
    rows = [[str(s), str(p)] for s, p in dist.entries]
    _emit(args, ["state", "probability"], rows)
    return 0


def cmd_stationary_check(args) -> int:
    coin, k = CoinConfig(args.q), args.max_inversions
    # refuse an oversized sweep before enumerating anything
    if args.labels:
        check_state_budget([m for _, m in label_groups(args.labels)], k, "flag state")
        states = flag_states_up_to_inversions(args.labels, k)
        check, weight = flag_stationarity_holds, flag_stationary_weight
    else:
        check_state_budget([args.balls], k, "state")
        states = states_up_to_inversions(args.balls, k)
        check, weight = verify_stationarity, stationary_weight
    rows = []
    all_ok = True
    for state in states:
        ok = check(state, coin)
        all_ok &= ok
        rows.append([str(state), str(weight(state, coin)), "pass" if ok else "FAIL"])
    _emit(args, ["state", "weight", "verdict"], rows)
    return 0 if all_ok else 1


def cmd_oracle(args) -> int:
    p = args.p
    rows = []
    all_ok = True
    labels = args.labels
    if args.flag and not labels:
        # the labeled sweep is the group sweep with every label distinct
        if args.balls == 0:
            raise _FlagError("--flag needs --balls of at least 1")
        labels = tuple(range(1, args.balls + 1))
    if labels:
        balls = len(labels)
        sweep = group_fraction_sweep(labels, args.width, p)
        formula = lambda s: formula_group_fraction(labels, p, s)
    else:
        balls = args.balls
        sweep = pivot_fraction_sweep(args.balls, args.width, p)
        formula = lambda s: formula_pivot_fraction(args.balls, p, s)
    total = p ** (balls * args.width)
    for state in sorted((s for s in sweep if s is not None), key=str):
        fraction = sweep[state]
        predicted = formula(state)
        ok = fraction == predicted
        all_ok &= ok
        rows.append(
            [
                str(state),
                fraction * total,
                str(fraction),
                str(predicted),
                "pass" if ok else "FAIL",
            ]
        )
    deficient = sweep.get(None, Fraction(0))
    rows.append(["<rank-deficient>", deficient * total, str(deficient), "-", "-"])
    _emit(args, ["state", "count", "fraction", "formula", "match"], rows)
    return 0 if all_ok else 1


def cmd_series(args) -> int:
    d = args.degree
    if args.dump:
        if args.dump == "partition":
            series = state_partition_series(args.balls, d)
        elif args.dump == "flag":
            series = flag_series(args.balls, d)
        elif args.dump == "permutation":
            series = perm_series_closed(args.balls, d)
        else:
            if args.j > args.h:
                raise _FlagError(f"--j ({args.j}) must not exceed --h ({args.h})")
            series = grassmannian_series_closed(args.j, args.h, d)
        rows = [[k, str(series[k])] for k in range(d + 1)]
        _emit(args, ["degree", "coefficient"], rows)
        return 0
    rows = []
    all_ok = True

    def record(name: str, ok: bool) -> None:
        nonlocal all_ok
        all_ok &= ok
        rows.append([name, d, "pass" if ok else "FAIL"])

    # refuse an oversized sweep before enumerating anything
    check_enumeration_budget(args.partition_max, d)
    check_sweep_budget(args.perm_max, args.grassmann_max)
    for b in range(1, args.partition_max + 1):
        record(
            f"state-partition b={b}",
            state_partition_series(b, d) == state_partition_series_enumerated(b, d),
        )
        record(f"flag b={b}", flag_series(b, d) == flag_series_enumerated(b, d))
        record(f"bundle-factorization b={b}", bundle_factorization_holds(b, d))
    for n in range(1, args.perm_max + 1):
        record(
            f"permutation n={n}",
            perm_inversion_series(n, d) == perm_series_closed(n, d),
        )
    for h in range(1, args.grassmann_max + 1):
        for j in range(h + 1):
            ok = grassmannian_series_closed(j, h, d) == grassmannian_series_enumerated(
                j, h, d
            )
            record(f"grassmannian j={j} h={h}", ok)
    _emit(args, ["identity", "degree", "verdict"], rows)
    return 0 if all_ok else 1


def cmd_density(args) -> int:
    _resolve_burnin(args, _DENSITY_BURNIN, sampling=args.empirical)
    if args.empirical:
        rows_data = empirical_density(
            balls=args.balls,
            e=args.e,
            mu_max=args.mu_max,
            steps=args.steps,
            burnin=args.burnin,
            seed=args.seed,
        )
        rows = [
            [f"{r.mu:.6f}", f"{r.empirical:.6f}", f"{r.predicted:.6f}", f"{r.absdiff:.6f}"]
            for r in rows_data
        ]
        _emit(args, ["mu", "empirical", "predicted", "absdiff"], rows, seed=args.seed)
    else:
        rows = [[f"{mu:.6f}", repr(dens)] for mu, dens in density_curve(args.e, args.mu_max, args.step)]
        _emit(args, ["mu", "density"], rows)
    return 0


def cmd_simulate(args) -> int:
    _resolve_burnin(args, _SIMULATE_BURNIN)
    coin = CoinConfig(args.q)
    if args.labels:
        start = FlagState(tuple(sorted(args.labels)))
        sampler, weight = FLAG, flag_stationary_weight
    else:
        start = ground_state(args.balls)
        sampler, weight = PLAIN, stationary_weight
    trajectory = args.trajectory and _open_for_writing("--trajectory", args.trajectory)
    with trajectory or nullcontext() as fh:
        sink = (lambda s: fh.write(str(s) + "\n")) if fh else None
        hist = simulate(
            start, coin, args.steps, args.burnin, ChainRng(args.seed),
            on_state=sink, sampler=sampler,
        )
    rows = [
        [str(s), c, str(Fraction(c, hist.samples)), str(weight(s, coin))]
        for s, c in hist.counts
    ]
    if not args.labels:
        tv = tv_distance(hist, coin, args.balls, args.max_inversions)
        rows.append(["<tv-distance>", "-", repr(tv), "-"])
    _emit(args, ["state", "count", "empirical", "stationary"], rows, seed=args.seed)
    return 0


def cmd_digraph(args) -> int:
    if args.flag_state is not None:
        state = parse_flag_state(args.flag_state)
        rows = [
            [str(state), " ".join(map(str, sorted(tr.drops))) or "-", str(tr.target)]
            for tr in flag_forward_edges(state, args.max_drop)
        ]
        _emit(args, ["source", "drops", "target"], rows)
    else:
        state = parse_state(args.state)
        rows = [
            [str(state), t, str(target)]
            for t, target in forward_edges(state, args.max_throw)
        ]
        _emit(args, ["source", "throw", "target"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jugglechain",
        description="Juggling-state digraphs, exact backward Markov chains, "
        "finite-field oracles, and ball-density asymptotics.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--output", type=_output_path, help="write the table here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("siteswap", help="parse and validate a throw sequence")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_siteswap)

    p = sub.add_parser("dist", help="exact backward transition distribution")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--state", help="plain state, e.g. --xx-x")
    which.add_argument("--flag-state", help="labeled state, e.g. --31-2")
    p.add_argument(
        "--q", type=_parse_q, required=True, help="exact rational > 1, e.g. 2 or 7/2"
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("stationary-check", help="exact balance sweep")
    p.add_argument("--balls", type=_natural, default=2)
    p.add_argument(
        "--labels",
        type=_parse_labels,
        help="comma-separated label multiset for the flag chain",
    )
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--max-inversions", type=_natural, default=6)
    p.set_defaults(func=cmd_stationary_check)

    p = sub.add_parser("oracle", help="exhaustive matrix fraction sweeps")
    p.add_argument("--balls", type=_natural, default=2)
    p.add_argument("--width", type=_positive, default=3)
    p.add_argument("--p", type=_integer, default=2, choices=SUPPORTED_PRIMES)
    p.add_argument("--flag", action="store_true", help="labeled pivot states")
    p.add_argument(
        "--labels", type=_parse_labels, help="group-coarsened sweep for this multiset"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("series", help="exact q-series identity checks")
    p.add_argument("--degree", type=_natural, default=DEFAULT_DEGREE)
    p.add_argument("--partition-max", type=_natural, default=4)
    p.add_argument("--perm-max", type=_natural, default=6)
    p.add_argument("--grassmann-max", type=_natural, default=8)
    p.add_argument(
        "--dump",
        choices=("partition", "flag", "permutation", "grassmannian"),
        help="emit one series' (degree, coefficient) rows instead of checks",
    )
    p.add_argument("--balls", type=_natural, default=3, help="b (or n) for --dump")
    p.add_argument("--j", type=_natural, default=1, help="subspace dim for --dump")
    p.add_argument("--h", type=_natural, default=3, help="ambient dim for --dump")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("density", help="ball-density curve / empirical comparison")
    p.add_argument(
        "--E", "--e", dest="e", type=_all_heads_probability, required=True,
        help="all-heads probability E",
    )
    p.add_argument("--mu-max", type=_nonnegative_real, default=6.0)
    p.add_argument("--step", type=_positive_real, default=0.01)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--balls", type=_positive, default=64)
    p.add_argument("--steps", type=_natural, default=200_000)
    p.add_argument("--burnin", type=_natural, help=_burnin_help(_DENSITY_BURNIN))
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="trajectory histogram and TV report")
    p.add_argument("--balls", type=_natural, default=2)
    p.add_argument(
        "--labels", type=_parse_labels, help="simulate the flag chain over this multiset"
    )
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--steps", type=_natural, default=100_000)
    p.add_argument("--burnin", type=_natural, help=_burnin_help(_SIMULATE_BURNIN))
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument(
        "--max-inversions", type=_natural, default=10,
        help="kept for the config hash; the TV row is exact over the visited "
        "states and does not depend on it",
    )
    p.add_argument("--trajectory", help="also write one state per line here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("digraph", help="forward edge dump with caps")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--state")
    which.add_argument("--flag-state")
    p.add_argument("--max-throw", type=_natural, default=9)
    p.add_argument("--max-drop", type=_natural, default=9)
    p.set_defaults(func=cmd_digraph)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ['--state', '--xx-x'] as ['--state=--xx-x'] so state words
    beginning with '-' survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--state", "--flag-state") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        return args.func(args)
    # a malformed state or pattern, or a request too large to enumerate, is
    # refused as a bad flag; exit 1 is kept for a failed check
    except (_FlagError, ParseError, ResourceLimit) as exc:
        parser.error(str(exc))
    except JuggleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
