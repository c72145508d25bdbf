import itertools

import pytest

from jugglechain.errors import InvalidPattern, ParseError, ResourceLimit
from jugglechain.siteswap import (
    Siteswap,
    count_patterns,
    is_valid,
    parse_siteswap,
    validate_siteswap,
)
from jugglechain.states import ground_state, parse_state


class TestParsing:
    def test_digits(self):
        assert parse_siteswap("501").throws == (5, 0, 1)

    def test_letters_mean_10_to_35(self):
        assert parse_siteswap("a1z").throws == (10, 1, 35)

    def test_round_trip(self):
        assert str(parse_siteswap("97531")) == "97531"

    def test_bad_input(self):
        with pytest.raises(ParseError):
            parse_siteswap("")
        with pytest.raises(ParseError):
            parse_siteswap("5!1")


class TestValidation:
    def test_501(self):
        info = validate_siteswap(parse_siteswap("501"))
        assert info.balls == 2
        assert [str(s) for s in info.states] == ["x-x", "-x--x", "x--x"]

    def test_cascade(self):
        info = validate_siteswap(parse_siteswap("3"))
        assert info.balls == 3
        assert info.states == (ground_state(3),)

    def test_21_collides(self):
        with pytest.raises(InvalidPattern):
            validate_siteswap(parse_siteswap("21"))

    def test_shower(self):
        info = validate_siteswap(parse_siteswap("51"))
        assert info.balls == 3
        assert parse_state("xx-x") in info.states

    def test_ten_ball_fountain(self):
        assert validate_siteswap(parse_siteswap("a")).balls == 10

    def test_brute_force_collision_oracle(self):
        # validity must agree with a direct landing-slot check
        for n in (1, 2, 3):
            for throws in itertools.product(range(5), repeat=n):
                landings = {(i + t) % n for i, t in enumerate(throws)}
                assert is_valid(Siteswap(throws)) == (len(landings) == n)


class TestCountPatterns:
    @pytest.mark.parametrize(
        "n,b,expected", [(1, 3, 4), (2, 1, 4), (3, 2, 27)]
    )
    def test_known_counts(self, n, b, expected):
        assert count_patterns(n, b) == expected

    def test_formula_small(self):
        for n in range(1, 4):
            for b in range(4):
                assert count_patterns(n, b) == (b + 1) ** n

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            count_patterns(6, 6)  # 37^6 sequences
