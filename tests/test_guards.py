"""Every argument guard of the library refuses what its docstring or its
message says it refuses, with that exception type and message."""
from fractions import Fraction

import pytest

from jugglechain.asymptotics import ball_density, density_curve, prob_ratio
from jugglechain.chain import CoinConfig
from jugglechain.errors import DomainError, IllegalThrow, ParseError
from jugglechain.fqoracle import FqMatrix, matrix_for_state, partial_permutation_matrix
from jugglechain.rng import ScriptedRng
from jugglechain.series import TruncSeries, grassmannian_series_closed
from jugglechain.siteswap import Siteswap, count_patterns
from jugglechain.states import (
    parse_flag_state,
    parse_state,
    recover_throw,
    throw_state,
    window_dual,
)


class TestChainAndSeries:
    @pytest.mark.parametrize("q", [1, Fraction(1, 2), 0, -3], ids=str)
    def test_coin_needs_q_above_one(self, q):
        with pytest.raises(ValueError, match="^q must exceed 1$"):
            CoinConfig(q)

    def test_series_of_different_degrees_do_not_multiply(self):
        with pytest.raises(ValueError, match="^mismatched truncation degrees$"):
            TruncSeries((1, 1)) * TruncSeries((1, 1, 1))

    @pytest.mark.parametrize("j,h", [(4, 3), (-1, 3)])
    def test_gaussian_binomial_needs_j_within_h(self, j, h):
        with pytest.raises(ValueError, match="^need 0 <= j <= h$"):
            grassmannian_series_closed(j, h)


class TestSiteswap:
    def test_empty_siteswap(self):
        with pytest.raises(ValueError, match="^siteswap must be nonempty$"):
            Siteswap(())

    def test_negative_throw(self):
        with pytest.raises(ValueError, match="^throws must be naturals$"):
            Siteswap((3, -1))

    @pytest.mark.parametrize("length,max_balls", [(0, 1), (2, -1)])
    def test_pattern_count_domain(self, length, max_balls):
        with pytest.raises(ValueError, match="^need length >= 1 and max_balls >= 0$"):
            count_patterns(length, max_balls)


class TestOracleMatrices:
    def test_unsupported_modulus(self):
        with pytest.raises(ValueError, match="^modulus must be one of"):
            FqMatrix(4, ((1, 0),))

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="^ragged rows$"):
            FqMatrix(2, ((1, 0), (1,)))

    def test_prepended_column_of_the_wrong_height(self):
        with pytest.raises(ValueError, match="^column height mismatch$"):
            FqMatrix(2, ((1, 0), (0, 1))).prepend_column((1,))

    def test_state_wider_than_the_matrix(self):
        with pytest.raises(ValueError, match="^state does not fit in the width$"):
            matrix_for_state(parse_state("x-x"), 2, 2)

    @pytest.mark.parametrize(
        "text,width,message",
        [
            ("1-1", 3, "labels must be distinct"),
            ("1-2", 2, "state does not fit in the width"),
        ],
    )
    def test_partial_permutation_refusals(self, text, width, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_permutation_matrix(parse_flag_state(text), width, 2)


class TestStatesAndCoins:
    def test_scripted_flips_run_out(self):
        rng = ScriptedRng([True])
        assert rng.heads(Fraction(1, 2))
        with pytest.raises(IndexError, match="^scripted flips exhausted$"):
            rng.heads(Fraction(1, 2))
        assert rng.used == 1

    def test_negative_throw(self):
        with pytest.raises(IllegalThrow, match="^negative throw -1$"):
            throw_state(parse_state("x-x"), -1)

    @pytest.mark.parametrize(
        "source,target",
        [
            ("x-x", "x-x"),  # no ball lands where none was
            ("x-x", "xxx"),  # a ball too many
            ("-xx", "x-x"),  # an empty front shifts down alone
        ],
    )
    def test_no_throw_between_unjoined_states(self, source, target):
        assert recover_throw(parse_state(source), parse_state(target)) is None

    def test_empty_flag_state_text(self):
        with pytest.raises(ParseError, match="^empty flag state$"):
            parse_flag_state("")

    def test_window_dual_outside_the_window(self):
        with pytest.raises(ValueError, match="^state does not fit in the window$"):
            window_dual(parse_state("x--x"), 3)


class TestDomains:
    @pytest.mark.parametrize("c", [0, 5], ids=str)
    def test_count_ratio_domain(self, c):
        # b = 5 balls, h = 4 cells: c = 1..4
        with pytest.raises(DomainError, match=f"^need 1 <= c <= min\\(h, b\\), got c={c}$"):
            prob_ratio(5, 4, c, Fraction(2))

    @pytest.mark.parametrize(
        "e,mu,message",
        [
            (0.0, 1.0, "E must lie in \\(0, 1\\), got 0.0"),
            (1.0, 1.0, "E must lie in \\(0, 1\\), got 1.0"),
            (0.1, -0.5, "mu must be nonnegative, got -0.5"),
        ],
    )
    def test_density_domain(self, e, mu, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ball_density(e, mu)

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_density_curve_needs_a_positive_step(self, step):
        with pytest.raises(DomainError, match="^step must be positive$"):
            density_curve(0.1, 1.0, step)
