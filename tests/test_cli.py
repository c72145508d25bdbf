import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jugglechain
import jugglechain.states as states_module
from jugglechain import cli, errors
from jugglechain.cli import main
from jugglechain.states import (
    flag_states_up_to_inversions,
    parse_flag_state,
    states_up_to_inversions,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSiteswap:
    def test_valid_pattern(self, capsys):
        code, out = run_cli(capsys, "siteswap", "501")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beat,throw,state_before"
        assert lines[1:4] == ["0,5,x-x", "1,0,-x--x", "2,1,x--x"]
        assert lines[4] == "<balls>,2,-"
        assert lines[-1].startswith("# jugglechain")

    def test_invalid_pattern_exits_one(self, capsys):
        code = main(["siteswap", "21"])
        assert code == 1


class TestDist:
    def test_plain_worked_example(self, capsys):
        code, out = run_cli(capsys, "dist", "--state", "--xx-x", "--q", "2/1")
        assert code == 0
        assert "x--xx,1/2" in out
        assert "x--x--x,1/4" in out
        assert "x---x-x,1/8" in out
        assert "---xx-x,1/8" in out

    def test_flag_worked_example(self, capsys):
        code, out = run_cli(capsys, "dist", "--flag-state", "--31-2", "--q", "2")
        assert code == 0
        assert "1--32,1/4" in out
        assert "---31-2,1/8" in out

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, "--format", "json", "dist", "--state", "x", "--q", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["header"] == ["state", "probability"]
        assert ["x", "2/3"] in payload["rows"]


class TestVerificationCommands:
    def test_stationary_check_passes(self, capsys):
        code, out = run_cli(
            capsys, "stationary-check", "--balls", "2", "--q", "7/2",
            "--max-inversions", "5",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_flag_stationary_check(self, capsys):
        code, out = run_cli(
            capsys, "stationary-check", "--labels", "1,1,2", "--q", "2",
            "--max-inversions", "3",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_flag_stationary_check_near_one(self, capsys):
        # near q = 1 the far-drop families shrink slowly; the exact check
        # sums them to infinity all the same
        code, out = run_cli(
            capsys, "stationary-check", "--labels", "1,2", "--q", "5/4",
            "--max-inversions", "4",
        )
        assert code == 0
        rows = out.splitlines()[1:-1]
        assert rows and all(row.endswith(",pass") for row in rows)

    def test_distinct_labels_sweep_lists_only_its_states(self, capsys):
        # ten distinct labels have 10! words, but up to one inversion the
        # sweep lists 10 of them and 11 flag states, well inside the budget
        code, out = run_cli(
            capsys, "stationary-check", "--labels", "1,2,3,4,5,6,7,8,9,10",
            "--q", "2", "--max-inversions", "1",
        )
        assert code == 0
        rows = out.splitlines()[1:-1]
        assert len(rows) == 11
        assert all(row.endswith(",pass") for row in rows)

    def test_zero_ball_sweep_ends_after_level_zero(self, capsys):
        # the one state without balls, the empty one, has no inversions, so
        # the sweep does not walk the empty levels up to 10^12
        code, out = run_cli(
            capsys, "stationary-check", "--balls", "0", "--q", "2",
            "--max-inversions", "1000000000000",
        )
        assert code == 0
        assert out.splitlines()[1:-1] == [",1,pass"]

    def test_oracle(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--balls", "2", "--width", "3", "--p", "2", "--flag"
        )
        assert code == 0
        assert "21,8,1/8,1/8,pass" in out

    def test_series(self, capsys):
        code, out = run_cli(
            capsys, "series", "--degree", "8", "--partition-max", "2",
            "--perm-max", "3", "--grassmann-max", "3",
        )
        assert code == 0
        assert "FAIL" not in out


class TestDensity:
    def test_curve_intercept(self, capsys):
        code, out = run_cli(
            capsys, "density", "--e", "0.1", "--mu-max", "0.05", "--step", "0.01"
        )
        assert code == 0
        assert out.splitlines()[1] == "0.000000,0.9"

    def test_zero_mu_max_is_one_row(self, capsys):
        code, out = run_cli(capsys, "density", "--e", "0.1", "--mu-max", "0")
        assert code == 0
        assert out.splitlines()[1:-1] == ["0.000000,0.9"]

    def test_far_tail_is_finite(self, capsys):
        code, out = run_cli(
            capsys, "density", "--E", "0.1", "--mu-max", "400", "--step", "1"
        )
        assert code == 0
        densities = [float(line.split(",")[1]) for line in out.splitlines()[1:-1]]
        assert len(densities) == 401
        assert densities[-1] == 0.0

    def test_empirical(self, capsys):
        code, out = run_cli(
            capsys, "density", "--e", "0.2", "--mu-max", "1.0", "--empirical",
            "--balls", "16", "--steps", "20000", "--burnin", "2000",
            "--seed", "4",
        )
        assert code == 0
        assert out.splitlines()[0] == "mu,empirical,predicted,absdiff"

    def test_short_run_burns_in_half_its_steps(self, capsys):
        # --steps at most the default burn-in, --burnin omitted: steps // 2,
        # the same table and config trailer as asking for it
        args = ["density", "--E", "0.1", "--empirical", "--balls", "64",
                "--steps", "20000", "--seed", "7"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == run_cli(capsys, *args, "--burnin", "10000")[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--empirical", "--balls", "8", "--steps", "20001"],
            ["--mu-max", "1", "--step", "0.5", "--steps", "10"],
        ],
        ids=["long-run", "curve"],
    )
    def test_omitted_burnin_is_the_default(self, capsys, argv):
        # a long run, and a curve that samples nothing, keep 20,000
        args = ["density", "--E", "0.1", *argv, "--seed", "3"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == run_cli(capsys, *args, "--burnin", "20000")[1]


class TestSimulateAndDigraph:
    @pytest.mark.parametrize(
        "steps, burnin", [("1000", "500"), ("1001", "1000")], ids=["short", "long"]
    )
    def test_omitted_burnin(self, capsys, steps, burnin):
        args = ["simulate", "--balls", "2", "--q", "2", "--steps", steps, "--seed", "1"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == run_cli(capsys, *args, "--burnin", burnin)[1]

    def test_simulate_deterministic(self, capsys):
        args = [
            "simulate", "--balls", "2", "--q", "2", "--steps", "20000",
            "--burnin", "500", "--seed", "12",
        ]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "<tv-distance>" in out1

    def test_tv_row_does_not_depend_on_max_inversions(self, capsys):
        # the TV is exact over the visited states; the flag still enters
        # the config hash, so only the trailer differs
        args = ["simulate", "--balls", "3", "--q", "5/4", "--steps", "3000", "--seed", "4"]
        tables = [
            run_cli(capsys, *args, "--max-inversions", m)[1].splitlines()
            for m in ("0", "10")
        ]
        assert tables[0][:-1] == tables[1][:-1]
        assert tables[0][-1] != tables[1][-1]

    def test_simulate_flag_chain(self, capsys, monkeypatch):
        sampler = cli.FLAG

        def capped_step(inner, coin, rng):
            # pi puts mass 1 - (1 - 2^-63)(1 - 2^-64) < 2^-62 on states
            # longer than 64 cells (the last label past position 63); a
            # sampler that lets states grow fails here instead of swelling
            # the table for minutes
            assert len(inner) <= 64
            return sampler.step(inner, coin, rng)

        monkeypatch.setattr(cli, "FLAG", sampler._replace(step=capped_step))
        code, out = run_cli(
            capsys, "simulate", "--labels", "1,2", "--q", "2", "--steps",
            "5000", "--burnin", "100", "--seed", "5",
        )
        assert code == 0
        assert out.splitlines()[0] == "state,count,empirical,stationary"

    def test_digraph_plain(self, capsys):
        code, out = run_cli(capsys, "digraph", "--state", "x-x", "--max-throw", "5")
        assert code == 0
        assert "x-x,5,-x--x" in out

    def test_digraph_flag(self, capsys):
        code, out = run_cli(
            capsys, "digraph", "--flag-state", "3-21", "--max-drop", "4"
        )
        assert code == 0
        assert "3-21,0,321" in out

    def test_digraph_flag_drops_stay_in_one_field(self, capsys):
        # several drops are joined by spaces, so every row has the three
        # columns of the header
        code, out = run_cli(
            capsys, "digraph", "--flag-state", "123", "--max-drop", "4"
        )
        assert code == 0
        rows = out.splitlines()[:-1]  # the header and one row per edge
        assert all(len(row.split(",")) == 3 for row in rows)
        assert "123,0 1 2,123" in out.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--state", "x", "--max-throw", "100000000000"],
            ["--state", "x-x", "--max-throw", "2000002"],
            # 256 walks for each of about 10,000 throws
            ["--flag-state", "123456789", "--max-drop", "10000"],
        ],
        ids=["plain-huge", "plain-one-over", "flag-walks"],
    )
    def test_digraph_refused_from_its_row_count(self, capsys, monkeypatch, argv):
        # the rows are counted in closed form before any throw is tried
        def never(*args):
            pytest.fail("tried a throw before refusing the digraph")

        monkeypatch.setattr(states_module, "throw_state", never)
        line = bad_flags(capsys, "digraph", *argv)
        assert line.endswith("error: edge enumeration exceeds budget")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--state", "x-x", "--max-throw", "9"],
            ["--state", "xx-x", "--max-throw", "7"],
            ["--flag-state", "3-21", "--max-drop", "6"],
            ["--flag-state", "1-2-3", "--max-drop", "8"],
            ["--flag-state", "2-1-1", "--max-drop", "6"],
            ["--flag-state", "1324", "--max-drop", "5"],
            ["--flag-state", "1-12-2", "--max-drop", "7"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_digraph_row_count_is_exact(self, capsys, monkeypatch, argv):
        # a budget of exactly the listed rows runs; one less is refused
        code, out = run_cli(capsys, "digraph", *argv)
        assert code == 0
        rows = len(out.splitlines()) - 2  # less the header and the trailer
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", rows)
        assert run_cli(capsys, "digraph", *argv) == (0, out)
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", rows - 1)
        line = bad_flags(capsys, "digraph", *argv)
        assert line.endswith("error: edge enumeration exceeds budget")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = main(["--output", str(target), "siteswap", "3"])
        assert code == 0
        assert target.read_text().startswith("beat,throw,state_before")

    def test_trajectory_dump(self, tmp_path, capsys):
        target = tmp_path / "walk.txt"
        code = main(
            ["simulate", "--balls", "1", "--q", "2", "--steps", "50",
             "--burnin", "0", "--seed", "1", "--trajectory", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 50
        assert all(set(line) <= {"x", "-"} for line in lines)

    def test_labeled_trajectory_dump(self, tmp_path, capsys):
        target = tmp_path / "walk.txt"
        code = main(
            ["simulate", "--labels", "1,2", "--q", "2", "--steps", "50",
             "--burnin", "5", "--seed", "1", "--trajectory", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 50
        assert all(sorted(parse_flag_state(line).labels) == [1, 2] for line in lines)

    def test_trajectory_path_leaves_the_config_hash(self, tmp_path, capsys):
        # where a run writes its trajectory does not change its table
        args = [
            "simulate", "--labels", "1,2", "--q", "2", "--steps", "200",
            "--burnin", "10", "--seed", "3",
        ]
        tables = [
            run_cli(capsys, *args, "--trajectory", str(tmp_path / name))
            for name in ("a.txt", "b.txt")
        ]
        assert tables[0] == tables[1]
        assert tables[0][1] == run_cli(capsys, *args)[1]
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_output_path_leaves_the_config_hash(self, tmp_path, capsys):
        tables = []
        for name in ("a.csv", "b.csv"):
            assert main(["--output", str(tmp_path / name), "siteswap", "3"]) == 0
            tables.append((tmp_path / name).read_text())
        assert tables[0] == tables[1] == run_cli(capsys, "siteswap", "3")[1]

    def test_python_dash_m(self, capsys):
        # the package runs from a source checkout without being installed
        args = ["simulate", "--balls", "2", "--q", "2", "--steps", "2000", "--seed", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(jugglechain.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "jugglechain", *args],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout == run_cli(capsys, *args)[1]

    def test_series_dump(self, capsys):
        code, out = run_cli(
            capsys, "series", "--dump", "partition", "--balls", "2",
            "--degree", "4",
        )
        assert code == 0
        assert out.splitlines()[:6] == [
            "degree,coefficient", "0,1", "1,1", "2,2", "3,2", "4,3"
        ]

    def test_oracle_counts(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--balls", "1", "--width", "2", "--p", "2"
        )
        assert code == 0
        assert "x,2,1/2,1/2,pass" in out
        assert "-x,1,1/4,1/4,pass" in out


# whole tables of four oracle sweeps, pinned byte for byte (p = 5 weights a
# column-0 subtree by p - 1 = 4, the largest weight)
ORACLE_GOLDEN = {
    "flag": (
        ["--balls", "3", "--width", "3", "--p", "2", "--flag"],
        "state,count,fraction,formula,match\n"
        "123,64,1/8,1/8,pass\n"
        "132,32,1/16,1/16,pass\n"
        "213,32,1/16,1/16,pass\n"
        "231,16,1/32,1/32,pass\n"
        "312,16,1/32,1/32,pass\n"
        "321,8,1/64,1/64,pass\n"
        "<rank-deficient>,344,43/64,-,-\n"
        "# jugglechain {version} seed=- config=0432709c40cd\n",
    ),
    "labels": (
        ["--labels", "1,1,2", "--width", "3", "--p", "2"],
        "state,count,fraction,formula,match\n"
        "112,96,3/16,3/16,pass\n"
        "121,48,3/32,3/32,pass\n"
        "211,24,3/64,3/64,pass\n"
        "<rank-deficient>,344,43/64,-,-\n"
        "# jugglechain {version} seed=- config=cb7157e0ff0c\n",
    ),
    "plain": (
        ["--balls", "2", "--width", "3", "--p", "3"],
        "state,count,fraction,formula,match\n"
        "-xx,48,16/243,16/243,pass\n"
        "x-x,144,16/81,16/81,pass\n"
        "xx,432,16/27,16/27,pass\n"
        "<rank-deficient>,105,35/243,-,-\n"
        "# jugglechain {version} seed=- config=5792dc96ca5c\n",
    ),
    "plain-p5": (
        ["--balls", "2", "--width", "3", "--p", "5"],
        "state,count,fraction,formula,match\n"
        "-xx,480,96/3125,96/3125,pass\n"
        "x-x,2400,96/625,96/625,pass\n"
        "xx,12000,96/125,96/125,pass\n"
        "<rank-deficient>,745,149/3125,-,-\n"
        "# jugglechain {version} seed=- config=e8389d3bf226\n",
    ),
}


class TestOracleGolden:
    @pytest.mark.parametrize("kind", sorted(ORACLE_GOLDEN))
    def test_table(self, capsys, kind):
        argv, expected = ORACLE_GOLDEN[kind]
        code, out = run_cli(capsys, "oracle", *argv)
        assert code == 0
        assert out == expected.format(version=jugglechain.__version__)


# whole tables of flag balance checks, series identities, a seeded labeled
# run with repeated labels and flag digraph edges, pinned byte for byte:
# exact weights, verdicts, coefficients, visit counts and drop sets
CHECK_GOLDEN = {
    # labels of 10 and more render as space-separated tokens, and the law
    # is sorted by that text, not by number: "- 9 ..." first, "9 11 ..." last
    "dist-labels-over-9": (
        ["dist", "--flag-state", "9 - 10 - 11", "--q", "2"],
        "state,probability\n"
        "- 9 - 10 - 11,1/8\n"
        "10 9 - - - 11,1/8\n"
        "10 9 - 11,1/8\n"
        "11 9 - 10,1/8\n"
        "9 - - 10 - 11,1/8\n"
        "9 10 - - - 11,1/8\n"
        "9 10 - 11,1/8\n"
        "9 11 - 10,1/8\n"
        "# jugglechain {version} seed=- config=7ce15f4c5efe\n",
    ),
    "flag-123": (
        ["stationary-check", "--labels", "1,2,3", "--q", "2", "--max-inversions", "4"],
        "state,weight,verdict\n"
        "123,1/8,pass\n"
        "132,1/16,pass\n"
        "213,1/16,pass\n"
        "12-3,1/16,pass\n"
        "231,1/32,pass\n"
        "312,1/32,pass\n"
        "13-2,1/32,pass\n"
        "21-3,1/32,pass\n"
        "12--3,1/32,pass\n"
        "1-23,1/32,pass\n"
        "321,1/64,pass\n"
        "23-1,1/64,pass\n"
        "31-2,1/64,pass\n"
        "13--2,1/64,pass\n"
        "21--3,1/64,pass\n"
        "1-32,1/64,pass\n"
        "2-13,1/64,pass\n"
        "12---3,1/64,pass\n"
        "1-2-3,1/64,pass\n"
        "-123,1/64,pass\n"
        "32-1,1/128,pass\n"
        "23--1,1/128,pass\n"
        "31--2,1/128,pass\n"
        "2-31,1/128,pass\n"
        "3-12,1/128,pass\n"
        "13---2,1/128,pass\n"
        "21---3,1/128,pass\n"
        "1-3-2,1/128,pass\n"
        "2-1-3,1/128,pass\n"
        "-132,1/128,pass\n"
        "-213,1/128,pass\n"
        "12----3,1/128,pass\n"
        "1-2--3,1/128,pass\n"
        "1--23,1/128,pass\n"
        "-12-3,1/128,pass\n"
        "# jugglechain {version} seed=- config=e07a8ce48f9e\n"
    ),
    "flag-112": (
        ["stationary-check", "--labels", "1,1,2", "--q", "5/2", "--max-inversions", "4"],
        "state,weight,verdict\n"
        "112,189/625,pass\n"
        "121,378/3125,pass\n"
        "11-2,378/3125,pass\n"
        "211,756/15625,pass\n"
        "12-1,756/15625,pass\n"
        "11--2,756/15625,pass\n"
        "1-12,756/15625,pass\n"
        "21-1,1512/78125,pass\n"
        "12--1,1512/78125,pass\n"
        "1-21,1512/78125,pass\n"
        "11---2,1512/78125,pass\n"
        "1-1-2,1512/78125,pass\n"
        "-112,1512/78125,pass\n"
        "21--1,3024/390625,pass\n"
        "2-11,3024/390625,pass\n"
        "12---1,3024/390625,pass\n"
        "1-2-1,3024/390625,pass\n"
        "-121,3024/390625,pass\n"
        "11----2,3024/390625,pass\n"
        "1-1--2,3024/390625,pass\n"
        "1--12,3024/390625,pass\n"
        "-11-2,3024/390625,pass\n"
        "# jugglechain {version} seed=- config=5878066848f1\n"
    ),
    "series": (
        ["series", "--degree", "24"],
        "identity,degree,verdict\n"
        "state-partition b=1,24,pass\n"
        "flag b=1,24,pass\n"
        "bundle-factorization b=1,24,pass\n"
        "state-partition b=2,24,pass\n"
        "flag b=2,24,pass\n"
        "bundle-factorization b=2,24,pass\n"
        "state-partition b=3,24,pass\n"
        "flag b=3,24,pass\n"
        "bundle-factorization b=3,24,pass\n"
        "state-partition b=4,24,pass\n"
        "flag b=4,24,pass\n"
        "bundle-factorization b=4,24,pass\n"
        "permutation n=1,24,pass\n"
        "permutation n=2,24,pass\n"
        "permutation n=3,24,pass\n"
        "permutation n=4,24,pass\n"
        "permutation n=5,24,pass\n"
        "permutation n=6,24,pass\n"
        "grassmannian j=0 h=1,24,pass\n"
        "grassmannian j=1 h=1,24,pass\n"
        "grassmannian j=0 h=2,24,pass\n"
        "grassmannian j=1 h=2,24,pass\n"
        "grassmannian j=2 h=2,24,pass\n"
        "grassmannian j=0 h=3,24,pass\n"
        "grassmannian j=1 h=3,24,pass\n"
        "grassmannian j=2 h=3,24,pass\n"
        "grassmannian j=3 h=3,24,pass\n"
        "grassmannian j=0 h=4,24,pass\n"
        "grassmannian j=1 h=4,24,pass\n"
        "grassmannian j=2 h=4,24,pass\n"
        "grassmannian j=3 h=4,24,pass\n"
        "grassmannian j=4 h=4,24,pass\n"
        "grassmannian j=0 h=5,24,pass\n"
        "grassmannian j=1 h=5,24,pass\n"
        "grassmannian j=2 h=5,24,pass\n"
        "grassmannian j=3 h=5,24,pass\n"
        "grassmannian j=4 h=5,24,pass\n"
        "grassmannian j=5 h=5,24,pass\n"
        "grassmannian j=0 h=6,24,pass\n"
        "grassmannian j=1 h=6,24,pass\n"
        "grassmannian j=2 h=6,24,pass\n"
        "grassmannian j=3 h=6,24,pass\n"
        "grassmannian j=4 h=6,24,pass\n"
        "grassmannian j=5 h=6,24,pass\n"
        "grassmannian j=6 h=6,24,pass\n"
        "grassmannian j=0 h=7,24,pass\n"
        "grassmannian j=1 h=7,24,pass\n"
        "grassmannian j=2 h=7,24,pass\n"
        "grassmannian j=3 h=7,24,pass\n"
        "grassmannian j=4 h=7,24,pass\n"
        "grassmannian j=5 h=7,24,pass\n"
        "grassmannian j=6 h=7,24,pass\n"
        "grassmannian j=7 h=7,24,pass\n"
        "grassmannian j=0 h=8,24,pass\n"
        "grassmannian j=1 h=8,24,pass\n"
        "grassmannian j=2 h=8,24,pass\n"
        "grassmannian j=3 h=8,24,pass\n"
        "grassmannian j=4 h=8,24,pass\n"
        "grassmannian j=5 h=8,24,pass\n"
        "grassmannian j=6 h=8,24,pass\n"
        "grassmannian j=7 h=8,24,pass\n"
        "grassmannian j=8 h=8,24,pass\n"
        "# jugglechain {version} seed=- config=4a4f55884f21\n",
    ),
    "series-dump": (
        ["series", "--dump", "grassmannian", "--j", "3", "--h", "6", "--degree", "12"],
        "degree,coefficient\n"
        "0,1\n"
        "1,1\n"
        "2,2\n"
        "3,3\n"
        "4,3\n"
        "5,3\n"
        "6,3\n"
        "7,2\n"
        "8,1\n"
        "9,1\n"
        "10,0\n"
        "11,0\n"
        "12,0\n"
        "# jugglechain {version} seed=- config=2b8e88a3f86a\n",
    ),
    "series-dump-partition": (
        ["series", "--dump", "partition", "--balls", "3", "--degree", "12"],
        "degree,coefficient\n"
        "0,1\n"
        "1,1\n"
        "2,2\n"
        "3,3\n"
        "4,4\n"
        "5,5\n"
        "6,7\n"
        "7,8\n"
        "8,10\n"
        "9,12\n"
        "10,14\n"
        "11,16\n"
        "12,19\n"
        "# jugglechain {version} seed=- config=fec3b81973c4\n",
    ),
    "series-dump-flag": (
        ["series", "--dump", "flag", "--balls", "3", "--degree", "12"],
        "degree,coefficient\n"
        "0,1\n"
        "1,3\n"
        "2,6\n"
        "3,10\n"
        "4,15\n"
        "5,21\n"
        "6,28\n"
        "7,36\n"
        "8,45\n"
        "9,55\n"
        "10,66\n"
        "11,78\n"
        "12,91\n"
        "# jugglechain {version} seed=- config=9c782dd6e8d4\n",
    ),
    "series-dump-permutation": (
        ["series", "--dump", "permutation", "--balls", "4", "--degree", "10"],
        "degree,coefficient\n"
        "0,1\n"
        "1,3\n"
        "2,5\n"
        "3,6\n"
        "4,5\n"
        "5,3\n"
        "6,1\n"
        "7,0\n"
        "8,0\n"
        "9,0\n"
        "10,0\n"
        "# jugglechain {version} seed=- config=238eca94ee15\n",
    ),
    "simulate-labels-112": (
        ["simulate", "--labels", "1,1,2", "--q", "7/2", "--steps", "300",
         "--burnin", "10", "--seed", "2"],
        "state,count,empirical,stationary\n"
        "--121,1,1/290,144000/1977326743\n"
        "-1-2--1,1,1/290,288000/13841287201\n"
        "-11--2,1,1/290,36000/40353607\n"
        "-112,1,1/290,9000/823543\n"
        "-121,4,2/145,18000/5764801\n"
        "-21-1,1,1/290,72000/282475249\n"
        "1---21,1,1/290,144000/1977326743\n"
        "1--1--2,1,1/290,72000/282475249\n"
        "1--12,1,1/290,18000/5764801\n"
        "1--21,1,1/290,36000/40353607\n"
        "1-1--2,1,1/290,18000/5764801\n"
        "1-1-2,5,1/58,9000/823543\n"
        "1-12,8,4/145,4500/117649\n"
        "1-2----1,1,1/290,144000/1977326743\n"
        "1-2--1,1,1/290,36000/40353607\n"
        "1-2-1,1,1/290,18000/5764801\n"
        "11----2,1,1/290,18000/5764801\n"
        "11---2,4,2/145,9000/823543\n"
        "11--2,9,9/290,4500/117649\n"
        "11-2,37,37/290,2250/16807\n"
        "112,147,147/290,1125/2401\n"
        "12--1,1,1/290,9000/823543\n"
        "12-1,4,2/145,4500/117649\n"
        "121,42,21/145,2250/16807\n"
        "21-1,6,3/145,9000/823543\n"
        "211,9,9/290,4500/117649\n"
        "# jugglechain {version} seed=2 config=c443d0ec2cfb\n",
    ),
    "digraph-flag-1-2-3": (
        ["digraph", "--flag-state", "1-2-3", "--max-drop", "8"],
        "source,drops,target\n"
        "1-2-3,0,12-3\n"
        "1-2-3,1 2,-123\n"
        "1-2-3,1 3 4,-1-23\n"
        "1-2-3,1 3 5,-1-2-3\n"
        "1-2-3,1 3 6,-1-2--3\n"
        "1-2-3,1 3 7,-1-2---3\n"
        "1-2-3,1 3 8,-1-2----3\n"
        "1-2-3,1 4,-1-32\n"
        "1-2-3,1 5,-1-3-2\n"
        "1-2-3,1 6,-1-3--2\n"
        "1-2-3,1 7,-1-3---2\n"
        "1-2-3,1 8,-1-3----2\n"
        "1-2-3,2,-213\n"
        "1-2-3,3 4,-2-13\n"
        "1-2-3,3 5,-2-1-3\n"
        "1-2-3,3 6,-2-1--3\n"
        "1-2-3,3 7,-2-1---3\n"
        "1-2-3,3 8,-2-1----3\n"
        "1-2-3,4,-2-31\n"
        "1-2-3,5,-2-3-1\n"
        "1-2-3,6,-2-3--1\n"
        "1-2-3,7,-2-3---1\n"
        "1-2-3,8,-2-3----1\n"
        "# jugglechain {version} seed=- config=422b3cd3b460\n",
    ),
    "digraph-flag-2-1-1": (
        ["digraph", "--flag-state", "2-1-1", "--max-drop", "6"],
        "source,drops,target\n"
        "2-1-1,0,21-1\n"
        "2-1-1,2,-121\n"
        "2-1-1,4,-1-12\n"
        "2-1-1,5,-1-1-2\n"
        "2-1-1,6,-1-1--2\n"
        "# jugglechain {version} seed=- config=84bf84e2ffb7\n",
    ),
}


class TestCheckGolden:
    @pytest.mark.parametrize("kind", sorted(CHECK_GOLDEN))
    def test_table(self, capsys, kind):
        argv, expected = CHECK_GOLDEN[kind]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected.format(version=jugglechain.__version__)


def bad_flags(capsys, *argv):
    """Run a command that must be refused as bad flags; returns its single
    error line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert captured.err.splitlines()[-1] == errors[0]
    return errors[0]


class TestBadFlags:
    @pytest.mark.parametrize("q", ["1", "0", "-2", "abc"])
    def test_q_must_be_a_rational_above_one(self, capsys, q):
        line = bad_flags(capsys, "dist", "--state", "x", "--q", q)
        assert "argument --q" in line

    @pytest.mark.parametrize("q", ["2", "02", "5/2", "2.5", "29/28", "7/2"])
    def test_q_takes_ascii_integers_ratios_and_decimals(self, q):
        assert cli._parse_q(q) == Fraction(q)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dist", "--state", "x", "--q", "１_0"], "--q: '１_0' is not a rational"),
            (["dist", "--state", "x", "--q", "1_0"], "--q: '1_0' is not a rational"),
            # refused by its form, not after Fraction reads ten million digits
            (["dist", "--state", "x", "--q", "1e10000000"], "--q: '1e10000000' is not a rational"),
            (["dist", "--state", "x", "--q", " 2"], "--q: ' 2' is not a rational"),
            (["dist", "--state", "x", "--q", "2/0"], "--q: '2/0' is not a rational"),
            (["simulate", "--q", "2", "--steps", "1_0"], "--steps: '1_0' is not an integer"),
            (["simulate", "--q", "2", "--steps", "１0"], "--steps: '１0' is not an integer"),
            (["simulate", "--q", "2", "--seed", "１"], "--seed: '１' is not an integer"),
            (["stationary-check", "--q", "2", "--balls", "two"], "--balls: 'two' is not an integer"),
            (["oracle", "--p", "２"], "--p: '２' is not an integer"),
            (["density", "--E", "０.1"], "--E/--e: '０.1' is not a number"),
            (["density", "--E", "0.1", "--mu-max", "1_0"], "--mu-max: '1_0' is not a number"),
            (["density", "--E", "one"], "--E/--e: 'one' is not a number"),
        ],
        ids=[
            "q-full-width", "q-underscore", "q-exponent", "q-space", "q-zero-denominator",
            "steps-underscore", "steps-full-width", "seed-full-width", "balls-word",
            "p-full-width", "E-full-width", "mu-max-underscore", "E-word",
        ],
    )
    def test_numbers_are_ascii(self, capsys, argv, message):
        line = bad_flags(capsys, *argv)
        assert line.endswith(f"error: argument {message}")

    @pytest.mark.parametrize(
        "labels", [[], ["--labels", "1,2"]], ids=["plain", "labels"]
    )
    def test_simulate_burnin_past_steps(self, capsys, labels):
        line = bad_flags(
            capsys, "simulate", *labels, "--q", "2", "--steps", "10",
            "--burnin", "20",
        )
        assert "--burnin" in line

    def test_density_burnin_past_steps(self, capsys):
        line = bad_flags(
            capsys, "density", "--e", "0.1", "--empirical", "--steps", "10",
            "--burnin", "20",
        )
        assert "--burnin" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--balls", "2", "--q", "2"],
            ["density", "--E", "0.1", "--empirical", "--balls", "8", "--seed", "7"],
        ],
        ids=["simulate", "density"],
    )
    def test_no_steps_without_burnin(self, capsys, argv):
        # the omitted --burnin is not the user's to fix: name --steps alone
        line = bad_flags(capsys, *argv, "--steps", "0")
        assert "--steps" in line and "--burnin" not in line

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize("flag", ["--output", "--trajectory"])
    def test_unopenable_path(self, tmp_path, capsys, monkeypatch, flag, where):
        # refused like argparse's "can't open", not an OSError traceback;
        # the trajectory is opened before the run starts
        def simulate(*args, **kwargs):
            pytest.fail("ran before opening the trajectory")

        path = tmp_path if where == "directory" else tmp_path / "missing" / "out"
        if flag == "--output":
            argv = ["--output", str(path), "dist", "--state", "x", "--q", "2"]
        else:
            monkeypatch.setattr(cli, "simulate", simulate)
            argv = [
                "simulate", "--labels", "1,2", "--q", "2", "--steps", "50",
                "--seed", "1", "--trajectory", str(path),
            ]
        line = bad_flags(capsys, *argv)
        assert f"error: argument {flag}: can't open {str(path)!r}: " in line

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unopenable_output_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch, where
    ):
        # the path is looked at while the flags are parsed, so a long run
        # never starts only to be refused at its final write
        def never(args):
            pytest.fail("ran the command before refusing --output")

        monkeypatch.setattr(cli, "cmd_simulate", never)
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out"
        line = bad_flags(
            capsys, "--output", str(path), "simulate", "--balls", "2", "--q", "2",
            "--steps", "2000000", "--seed", "1",
        )
        assert f"error: argument --output: can't open {str(path)!r}: " in line

    def test_existing_output_kept_when_a_later_flag_is_refused(self, tmp_path, capsys):
        # the path is checked, not opened, so a refusal truncates nothing
        target = tmp_path / "out.csv"
        target.write_bytes(b"kept\n")
        line = bad_flags(
            capsys, "--output", str(target), "simulate", "--balls", "2", "--q", "2",
            "--steps", "10", "--burnin", "10",
        )
        assert "--burnin (10) must be below --steps (10)" in line
        assert target.read_bytes() == b"kept\n"

    def test_series_negative_degree(self, capsys):
        line = bad_flags(capsys, "series", "--degree", "-1")
        assert "argument --degree" in line

    @pytest.mark.parametrize("command", ["dist", "digraph"])
    @pytest.mark.parametrize(
        "states", [[], ["--state", "x", "--flag-state", "1"]], ids=["neither", "both"]
    )
    def test_exactly_one_state(self, capsys, command, states):
        q = ["--q", "2"] if command == "dist" else []
        line = bad_flags(capsys, command, *states, *q)
        assert "--state" in line and "--flag-state" in line

    @pytest.mark.parametrize(
        "labels", [[], ["--labels", "1,2"]], ids=["plain", "labels"]
    )
    def test_negative_max_inversions(self, capsys, labels):
        line = bad_flags(
            capsys, "stationary-check", *labels, "--q", "2",
            "--max-inversions", "-1",
        )
        assert "argument --max-inversions" in line

    def test_negative_max_throw(self, capsys):
        line = bad_flags(capsys, "digraph", "--state", "x-x", "--max-throw", "-1")
        assert "argument --max-throw" in line

    @pytest.mark.parametrize(
        "command",
        [["stationary-check", "--q", "2"], ["oracle"], ["simulate", "--q", "2"]],
        ids=["stationary-check", "oracle", "simulate"],
    )
    @pytest.mark.parametrize(
        "labels", ["a,b", "0,1", "1,-2", "1,,2", "１,2", "1,²", "1_0,2", "+1,2"]
    )
    def test_labels_must_be_positive_integers(self, capsys, command, labels):
        line = bad_flags(capsys, *command, "--labels", labels)
        assert "argument --labels" in line

    @pytest.mark.parametrize("text", ["²1", "１2"])
    def test_flag_state_labels_are_ascii_digits(self, capsys, text):
        line = bad_flags(capsys, "dist", "--flag-state", text, "--q", "2")
        assert f"bad token {text[0]!r}" in line

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "--balls", "-1", "--q", "2"], "argument --balls"),
            (["stationary-check", "--balls", "-2", "--q", "2"], "argument --balls"),
            (["oracle", "--balls", "-1"], "argument --balls"),
            (["oracle", "--width", "0"], "argument --width"),
            (["density", "--empirical", "--balls", "0", "--E", "0.1"], "argument --balls"),
            (["density", "--E", "2"], "argument --E"),
            (["density", "--E", "0.1", "--step", "0"], "argument --step"),
            (["series", "--dump", "grassmannian", "--j", "5", "--h", "3"], "--j"),
            (["series", "--partition-max", "-1"], "argument --partition-max"),
            (["series", "--dump", "permutation", "--balls", "-1"], "argument --balls"),
            (["density", "--E", "0.1", "--mu-max", "-1"], "argument --mu-max"),
            (["density", "--E", "0.1", "--mu-max", "nan"], "argument --mu-max"),
            (["density", "--E", "0.1", "--mu-max", "inf"], "argument --mu-max"),
            (["density", "--E", "0.1", "--step", "inf"], "argument --step"),
            (["oracle", "--flag", "--balls", "0"], "--flag"),
        ],
        ids=[
            "simulate-balls", "stationary-check-balls", "oracle-balls",
            "oracle-width", "density-balls", "density-E", "density-step",
            "series-j-above-h", "series-partition-max", "series-dump-balls",
            "density-mu-max-negative", "density-mu-max-nan",
            "density-mu-max-inf", "density-step-inf", "oracle-flag-no-balls",
        ],
    )
    def test_out_of_range_numbers(self, capsys, argv, flag):
        line = bad_flags(capsys, *argv)
        assert flag in line

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["oracle", "--balls", "4", "--width", "6", "--p", "3"], "budget"),
            # 1! + ... + 10! = 4,037,913 permutations
            (["series", "--perm-max", "10"], "permutation enumeration exceeds budget"),
            # 2 + 4 + ... + 2^20 = 2,097,150 window states
            (["series", "--grassmann-max", "20"], "window state enumeration exceeds budget"),
            (
                ["density", "--E", "0.1", "--empirical", "--balls", "64",
                 "--mu-max", "1e308", "--steps", "10"],
                "density row enumeration exceeds budget",
            ),
            (
                ["density", "--E", "0.1", "--mu-max", "1e308", "--step", "1e-308"],
                "density row enumeration exceeds budget",
            ),
            (
                ["density", "--E", "0.1", "--empirical", "--balls", "1000000",
                 "--mu-max", "10000000", "--steps", "10"],
                "density row enumeration exceeds budget",
            ),
            (
                ["stationary-check", "--balls", "60", "--q", "2",
                 "--max-inversions", "60"],
                "state enumeration exceeds budget",
            ),
            (
                ["stationary-check", "--labels", "1,2,3,4,5,6,7,8,9,10",
                 "--q", "2", "--max-inversions", "15"],
                "flag state enumeration exceeds budget",
            ),
        ],
        ids=[
            "oracle-matrices", "series-perm-max", "series-grassmann-max",
            "density-empirical-infinite-rows", "density-infinite-rows",
            "density-empirical-rows", "stationary-check-states",
            "stationary-check-flag-states",
        ],
    )
    def test_oversized_request(self, capsys, argv, message):
        line = bad_flags(capsys, *argv)
        assert message in line

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["series", "--partition-max", "6", "--perm-max", "10"],
             "permutation enumeration exceeds budget"),
            (["series", "--degree", "40", "--perm-max", "10"],
             "permutation enumeration exceeds budget"),
            (["series", "--grassmann-max", "20"],
             "window state enumeration exceeds budget"),
        ],
        ids=["perm-max-after-partitions", "perm-max-at-degree-40", "grassmann-max"],
    )
    def test_series_caps_refused_before_any_identity(
        self, capsys, monkeypatch, argv, message
    ):
        # every cap is checked before the first identity is computed
        def computed(*args):
            raise AssertionError("an identity was computed before the caps were checked")

        for name in (
            "state_partition_series_enumerated",
            "flag_series_enumerated",
            "bundle_factorization_holds",
            "perm_inversion_series",
            "grassmannian_series_enumerated",
        ):
            monkeypatch.setattr(cli, name, computed)
        line = bad_flags(capsys, *argv)
        assert message in line

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dist", "--state", "x-y", "--q", "2"], "bad character 'y'"),
            (["dist", "--flag-state", "3x1", "--q", "2"], "bad token 'x'"),
            (["digraph", "--state", "x-y"], "bad character 'y'"),
            (["siteswap", "5_1"], "bad character '_'"),
        ],
        ids=["dist-state", "dist-flag-state", "digraph-state", "siteswap"],
    )
    def test_malformed_state_or_pattern(self, capsys, argv, message):
        line = bad_flags(capsys, *argv)
        assert message in line

    def test_oversized_enumeration(self, capsys, monkeypatch):
        # flag b=6 at degree 40 lists 9,366,819 states, over the budget of
        # 2,000,000; the sweep is refused before any enumeration starts
        def enumerated(*args, **kwargs):
            pytest.fail("enumerated a series before refusing the sweep")

        monkeypatch.setattr(cli, "flag_series_enumerated", enumerated)
        monkeypatch.setattr(cli, "state_partition_series_enumerated", enumerated)
        line = bad_flags(capsys, "series", "--partition-max", "9", "--degree", "40")
        assert "flag state enumeration exceeds budget" in line

    @pytest.mark.parametrize(
        "argv,message",
        [
            # 6,639,349 states
            (["--balls", "60", "--max-inversions", "60"], "state"),
            # 2,500,100,001 states, refused in two running sums of 100,001
            # terms, not a series inverse quadratic in the degree
            (["--balls", "2", "--max-inversions", "100000"], "state"),
            # C(25, 10) = 3,268,760 flag states over ten distinct labels
            (["--labels", "1,2,3,4,5,6,7,8,9,10", "--max-inversions", "15"],
             "flag state"),
            # 10,678,615 flag states over one repeated label
            (["--labels", "1,1,1,1,1,1,1,1,1,2", "--max-inversions", "60"],
             "flag state"),
        ],
        ids=["plain", "plain-deep", "distinct-flag-states", "flag-states"],
    )
    def test_oversized_stationary_sweep(self, capsys, monkeypatch, argv, message):
        # the sweep is refused from the closed-form counts, before any
        # state is listed
        def enumerated(*args, **kwargs):
            pytest.fail("enumerated before refusing the sweep")

        monkeypatch.setattr(cli, "states_up_to_inversions", enumerated)
        monkeypatch.setattr(cli, "flag_states_up_to_inversions", enumerated)
        line = bad_flags(capsys, "stationary-check", "--q", "2", *argv)
        assert line.endswith(f"error: {message} enumeration exceeds budget")

    @pytest.mark.parametrize(
        "labels,k",
        [((1, 1, 2), 4), ((1, 2, 3), 5), ((1, 1, 2, 2), 6), ((1, 1, 1, 2, 3), 5),
         ((2, 2, 2), 7)],
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_stationary_sweep_budget_is_exact(self, capsys, monkeypatch, labels, k):
        # the closed-form count equals the enumerated one: a budget of
        # exactly the flag states up to k inversions runs; one less is refused
        argv = [
            "stationary-check", "--labels", ",".join(map(str, labels)), "--q", "2",
            "--max-inversions", str(k),
        ]
        states = sum(1 for _ in flag_states_up_to_inversions(labels, k))
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states - 1)
        line = bad_flags(capsys, *argv)
        assert line.endswith("error: flag state enumeration exceeds budget")

    def test_plain_stationary_sweep_budget_is_exact(self, capsys, monkeypatch):
        argv = ["stationary-check", "--balls", "4", "--q", "2", "--max-inversions", "8"]
        states = sum(1 for _ in states_up_to_inversions(4, 8))
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states - 1)
        line = bad_flags(capsys, *argv)
        assert line.endswith("error: state enumeration exceeds budget")
