import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jugglechain.chain as chain
from jugglechain.chain import (
    CoinConfig,
    TransitionDist,
    _at_q,
    _inflow_by_move,
    _law,
    backward_dist,
    backward_step,
    simulate,
    stationary_weight,
    step_law,
    tv_distance,
    verify_stationarity,
)
from jugglechain.flagchain import flag_backward_dist
from jugglechain.rng import ChainRng, ScriptedRng
from jugglechain.states import (
    JugglingState,
    ground_state,
    inversions,
    parse_flag_state,
    parse_state,
    prepend_empty,
    recover_throw,
    states_up_to_inversions,
    states_with_inversions,
)

Q2 = CoinConfig(Fraction(2))

state_strategy = st.lists(
    st.integers(0, 15), min_size=1, max_size=4, unique=True
).map(lambda ps: JugglingState(tuple(sorted(ps))))

q_strategy = st.sampled_from(
    [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5, 4)]
)

INFLOW_QS = [Fraction(2), Fraction(5, 2), Fraction(5, 4), Fraction(29, 28)]


def reference_inflow_by_move(state, q, max_throw=None):
    """The closed form of the balance inflow into `state` in `Fraction`s,
    without the prefactor sn(b), per move k: the move's group of throws t
    is a geometric sum of ratio 1/q, and the j = b tail is summed to
    infinity or up to t = max_throw."""
    b = state.balls
    inv = inversions(state)
    if not state.occupied(0):
        return {b: q**-inv}
    lam = state.positions
    inflow = {}
    for j in range(1, b + 1):
        lo = lam[j - 1]
        if j == b and max_throw is None:
            inflow[0] = q ** (j - inv - lo - 1)
            continue
        hi = lam[j] if j < b else max_throw + 1
        if hi - lo >= 2:
            inflow[b - j] = q ** (j - inv - lo - 1) - q ** (j - inv - hi)
    return inflow


def occupied_front_states(max_balls, max_inversions):
    return [
        s
        for b in range(1, max_balls + 1)
        for s in states_up_to_inversions(b, max_inversions)
        if s.occupied(0)
    ]


class TestBackwardStep:
    # the worked example: from --xx-x, flip by flip
    @pytest.mark.parametrize(
        "flips,expected",
        [
            ([False], "x--xx"),
            ([True, False], "x--x--x"),
            ([True, True, False], "x---x-x"),
            ([True, True, True], "---xx-x"),
        ],
    )
    def test_worked_example(self, flips, expected):
        rng = ScriptedRng(flips)
        result = backward_step(parse_state("--xx-x"), Q2, rng)
        assert result == parse_state(expected)
        assert rng.used == len(flips)

    def test_always_tails_reaches_ground_and_stays(self):
        # the always-tails limit: after b steps we sit at the ground state
        state = parse_state("--xx-x")
        for _ in range(3):
            state = backward_step(state, Q2, ScriptedRng([False]))
        assert state == ground_state(3)
        again = backward_step(state, Q2, ScriptedRng([False]))
        assert again == ground_state(3)


class TestBackwardDist:
    def test_one_ball(self):
        q = Fraction(3)
        dist = backward_dist(parse_state("x"), CoinConfig(q))
        assert dist.probability(parse_state("x")) == 1 - 1 / q
        assert dist.probability(parse_state("-x")) == 1 / q

    def test_worked_example_probabilities(self):
        dist = backward_dist(parse_state("--xx-x"), Q2)
        expected = {
            "x--xx": Fraction(1, 2),
            "x--x--x": Fraction(1, 4),
            "x---x-x": Fraction(1, 8),
            "---xx-x": Fraction(1, 8),
        }
        assert {str(s): p for s, p in dist.entries} == expected

    @given(state_strategy, q_strategy)
    @settings(max_examples=60, deadline=None)
    def test_b_plus_one_outcomes_summing_to_one(self, state, q):
        dist = backward_dist(state, CoinConfig(q))
        assert len(dist.entries) == state.balls + 1
        assert sum(p for _, p in dist.entries) == 1

    @given(state_strategy)
    @settings(max_examples=60, deadline=None)
    def test_support_is_predecessor_set(self, state):
        # every outcome points to the state in the digraph, and the edge's
        # throw lands exactly on the moved ball
        dist = backward_dist(state, Q2)
        for outcome, _ in dist.entries:
            throw = recover_throw(outcome, state)
            assert throw is not None

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(7, 2), Fraction(5, 4)])
    def test_every_flip_script_reproduces_dist(self, q):
        # the b+1 scripts (k heads then tails, or b heads) are all of the
        # step's randomness; weighted by their probabilities they must give
        # the exact law
        coin = CoinConfig(q)
        heads = 1 / q
        for b in range(4):
            for state in states_up_to_inversions(b, 5):
                law: dict[JugglingState, Fraction] = {}
                for k in range(b + 1):
                    flips = [True] * k + ([False] if k < b else [])
                    rng = ScriptedRng(flips)
                    out = backward_step(state, coin, rng)
                    assert rng.used == len(flips)
                    weight = heads**k * (1 - heads) if k < b else heads**b
                    law[out] = law.get(out, Fraction(0)) + weight
                assert law == backward_dist(state, coin).as_dict(), str(state)
                # the enumerator agrees with the closed form
                assert step_law(backward_step, state, coin) == backward_dist(
                    state, coin
                ), str(state)

    def test_sampling_matches_dist(self):
        # pushforward consistency within 3-sigma multinomial bounds
        state = parse_state("--xx-x")
        dist = backward_dist(state, Q2).as_dict()
        rng = ChainRng(2024)
        n = 100_000
        counts = {}
        for _ in range(n):
            out = backward_step(state, Q2, rng)
            counts[out] = counts.get(out, 0) + 1
        assert set(counts) == set(dist)
        for outcome, p in dist.items():
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[outcome] - n * float(p)) <= 3 * sigma


class TestStepLaw:
    def test_two_coin_toy_step(self):
        # heads(1/3), then heads(1/2) only after heads: three flip sequences
        def toy(state, coin, rng):
            if not rng.heads(Fraction(1, 3)):
                return "T"
            return "HH" if rng.heads(Fraction(1, 2)) else "HT"

        law = step_law(toy, None, Q2).as_dict()
        assert law == {"T": Fraction(2, 3), "HT": Fraction(1, 6), "HH": Fraction(1, 6)}

    def test_probability_sums_every_leaf_of_an_outcome(self):
        # A from two of the three flip sequences: 2/3 + 1/3 * 1/2
        def toy(state, coin, rng):
            if not rng.heads(Fraction(1, 3)) or not rng.heads(Fraction(1, 2)):
                return "A"
            return "B"

        assert step_law(toy, None, Q2).as_dict() == {
            "A": Fraction(5, 6), "B": Fraction(1, 6)
        }

    def test_leaf_denominators_of_different_bases(self):
        # heads(1/3), then heads(1/4) only after heads: the leaves have
        # denominators 3, 12 and 12, and A merges 2/3 with 1/12
        def toy(state, coin, rng):
            if not rng.heads(Fraction(1, 3)):
                return "A"
            return "A" if rng.heads(Fraction(1, 4)) else "B"

        law = step_law(toy, None, Q2)
        assert law.entries == (("A", Fraction(3, 4)), ("B", Fraction(1, 4)))


class TestCoinConfig:
    @pytest.mark.parametrize("q", [2, Fraction(4, 2), "2", 2.0], ids=repr)
    def test_equal_whatever_form_q_takes(self, q):
        coin = CoinConfig(q)
        assert coin == Q2 and hash(coin) == hash(Q2)
        assert coin.q == 2 and type(coin.q) is Fraction and coin.ac == (2, 1)

    def test_unequal_coins(self):
        assert CoinConfig(Fraction(5, 2)).ac == (5, 2)
        assert CoinConfig(Fraction(5, 2)) != CoinConfig(Fraction(5, 3))
        assert CoinConfig(3) != Q2

    def test_never_equal_to_a_bare_number(self):
        for bare in (Fraction(2), 2, (2, 1)):
            assert Q2 != bare and bare != Q2
            assert not Q2 == bare

    @pytest.mark.parametrize(
        "rebuild",
        [
            lambda coin: pickle.loads(pickle.dumps(coin)),
            copy.deepcopy,
            dataclasses.replace,
        ],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_rebuilt_coins_equal_and_hash_alike(self, rebuild):
        coin = CoinConfig(Fraction(7, 3))
        coin.heads_probability  # a cached read travels with a copied coin
        again = rebuild(coin)
        assert again == coin and hash(again) == hash(coin)
        assert again.ac == (7, 3) and again.heads_probability == Fraction(3, 7)

    def test_replace_makes_a_new_pair(self):
        three = dataclasses.replace(Q2, q=3)
        assert three == CoinConfig(3) and hash(three) == hash(CoinConfig(3))
        assert three.ac == (3, 1)

    def test_equal_coins_share_memo_entries(self):
        from jugglechain.flagchain import _flag_law

        word = (3, 1, 2)
        _flag_law(word, CoinConfig(Fraction(11, 7)))
        hits = _flag_law.cache_info().hits
        again = _flag_law(word, CoinConfig("22/14"))
        assert _flag_law.cache_info().hits == hits + 1
        assert again is _flag_law(word, CoinConfig(Fraction(11, 7)))


class TestTransitionDist:
    def test_entries_sorted_by_rendered_state(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        dist = TransitionDist(((9, half), (10, quarter), (parse_state("-x"), quarter)))
        # "-x" < "10" < "9" as strings
        assert dist.entries == ((parse_state("-x"), quarter), (10, quarter), (9, half))

    def test_duplicate_states(self):
        with pytest.raises(ValueError, match="duplicate states"):
            TransitionDist(((ground_state(1), Fraction(1, 2)),) * 2)
        # states are told apart by their rendering
        with pytest.raises(ValueError, match="duplicate states"):
            TransitionDist(((1, Fraction(1, 2)), ("1", Fraction(1, 2))))

    def test_duplicates_are_refused_before_the_total(self):
        with pytest.raises(ValueError, match="duplicate states"):
            TransitionDist((("a", Fraction(1, 3)), ("a", Fraction(1, 3))))

    @pytest.mark.parametrize(
        "probs,total",
        [
            ((Fraction(1, 2), Fraction(1, 3)), "5/6"),
            ((Fraction(2, 3), Fraction(3, 4)), "17/12"),
            ((), "0"),
        ],
        ids=["below", "above", "empty"],
    )
    def test_total_not_one(self, probs, total):
        entries = tuple(zip("abc", probs))
        with pytest.raises(ValueError, match=f"^probabilities sum to {total}, not 1$"):
            TransitionDist(entries)

    @pytest.mark.parametrize(
        "probs",
        [(Fraction(1), Fraction(0)), (Fraction(3, 2), Fraction(-1, 2)), (1, 0)],
        ids=["zero", "negative", "int-zero"],
    )
    def test_non_positive_entry(self, probs):
        with pytest.raises(ValueError, match="must be positive"):
            TransitionDist(tuple(zip("ab", probs)))


    def test_equal_over_different_denominators(self):
        # the flag law of "21" at q = 2 is 4/8, 2/8 and 2/8; its rebuild
        # from the reduced entries is over 4
        law = flag_backward_dist(parse_flag_state("21"), Q2)
        rebuilt = TransitionDist(law.entries)
        assert (law._denominator, rebuilt._denominator) == (8, 4)
        assert law == rebuilt and hash(law) == hash(rebuilt)

    def test_unequal_laws(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        law = TransitionDist((("a", half), ("b", quarter), ("c", quarter)))
        assert law != TransitionDist((("a", quarter), ("b", half), ("c", quarter)))
        assert law != TransitionDist((("a", half), ("b", quarter), ("d", quarter)))
        assert law != TransitionDist((("a", half), ("b", half)))
        assert backward_dist(parse_state("x-x"), Q2) != backward_dist(
            parse_state("x-x"), CoinConfig(Fraction(3))
        )

    def test_probability_off_the_support(self):
        p = backward_dist(parse_state("x-x"), Q2).probability(parse_state("x"))
        assert p == Fraction(0) and type(p) is Fraction

    @pytest.mark.parametrize(
        "numerators,den,message",
        [
            ([("a", 1), ("a", 1)], 2, "duplicate states"),
            ([("a", 1), ("b", 2)], 4, "^probabilities sum to 3/4, not 1$"),
            ([("a", 2), ("b", 0)], 2, "must be positive"),
        ],
        ids=["duplicate", "total", "non-positive"],
    )
    def test_builder_constructor_checks(self, numerators, den, message):
        with pytest.raises(ValueError, match=message):
            _law(numerators, den)

    def test_builder_numerators_are_checked(self, monkeypatch):
        # one extra numerator on the move k = 0 makes the law of "x-x" at
        # q = 2 sum to 5/4, which the builder must refuse
        move_law = chain._move_law

        def inflated(b, coin):
            nums, den = move_law(b, coin)
            return (nums[0] + 1,) + nums[1:], den

        monkeypatch.setattr(chain, "_move_law", inflated)
        with pytest.raises(ValueError, match="sum to 5/4"):
            backward_dist(parse_state("x-x"), CoinConfig(Fraction(2)))


class TestStationaryWeight:
    def test_ground_two_balls(self):
        assert stationary_weight(ground_state(2), Q2) == Fraction(3, 8)

    def test_one_ball_shifted(self):
        assert stationary_weight(parse_state("-x"), Q2) == Fraction(1, 4)

    @given(state_strategy, q_strategy)
    @settings(max_examples=60, deadline=None)
    def test_prepend_scales_by_q_to_minus_b(self, state, q):
        coin = CoinConfig(q)
        assert stationary_weight(prepend_empty(state), coin) == stationary_weight(
            state, coin
        ) * q ** -state.balls

    def test_total_mass_approaches_one(self):
        q = Fraction(2)
        total = sum(
            stationary_weight(s, Q2) for s in states_up_to_inversions(2, 40)
        )
        assert 1 - total < Fraction(1, 10**10)
        assert total < 1


class TestStationarity:
    def test_empty_front_case(self):
        assert verify_stationarity(parse_state("-x"), Q2)

    def test_ground_two_balls(self):
        assert verify_stationarity(parse_state("xx"), Q2)

    @pytest.mark.parametrize("q", INFLOW_QS, ids=str)
    def test_zero_balls_and_empty_fronts(self, q):
        # one successor, the shift down, back by all b heads: {b: x^0}
        coin = CoinConfig(q)
        assert _inflow_by_move(JugglingState(())) == {0: ((1, 0),)}
        assert verify_stationarity(JugglingState(()), coin)
        for b in (1, 2, 3):
            empty_fronts = [
                s for s in states_up_to_inversions(b, 6) if not s.occupied(0)
            ]
            assert empty_fronts
            for state in empty_fronts:
                assert _inflow_by_move(state) == {b: ((1, 0),)}, str(state)
                assert verify_stationarity(state, coin), str(state)

    def test_occupied_fronts_split_by_move(self):
        # an occupied front comes back by the moves k < b alone, the far
        # throws always among them as k = 0, never by the shift k = b
        for state in occupied_front_states(3, 6):
            inflow = _inflow_by_move(state)
            assert 0 in inflow and state.balls not in inflow, str(state)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(7, 2)])
    def test_small_sweep(self, q):
        coin = CoinConfig(q)
        for b in (1, 2, 3):
            for state in states_up_to_inversions(b, 5):
                assert verify_stationarity(state, coin), str(state)

    @pytest.mark.parametrize("q", INFLOW_QS, ids=str)
    def test_integer_inflow_matches_fraction_reference(self, q):
        # per move, the monomials evaluated in integers times the state's
        # own weight q^-inv are the closed-form Fraction sum, with the tail
        # summed to infinity and cut at several throws
        coin = CoinConfig(q)
        for b in range(1, 6):
            for state in states_up_to_inversions(b, 8):
                last = state.positions[-1]
                for cap in (None, last, last + 1, last + 2, last + 7):
                    inflow = _inflow_by_move(state, cap)
                    reference = reference_inflow_by_move(state, q, cap)
                    assert inflow.keys() == reference.keys()
                    for k, monomials in inflow.items():
                        assert all(e >= 0 for _, e in monomials)
                        num, den = _at_q(monomials, 1, coin)
                        value = Fraction(num, den) * q ** -inversions(state)
                        assert value == reference[k], (str(state), cap, k)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 4)], ids=str)
    def test_fails_without_the_closed_tail(self, monkeypatch, q):
        real = chain._inflow_by_move

        def without_tail(state, max_throw=None):
            return {k: m for k, m in real(state, max_throw).items() if k != 0}

        monkeypatch.setattr(chain, "_inflow_by_move", without_tail)
        coin = CoinConfig(q)
        for state in occupied_front_states(3, 5):
            assert not verify_stationarity(state, coin), str(state)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 4)], ids=str)
    def test_fails_with_one_exponent_shifted(self, monkeypatch, q):
        real = chain._inflow_by_move

        def shifted(state, max_throw=None):
            inflow = dict(real(state, max_throw))
            (n, e), *rest = inflow[0]
            inflow[0] = ((n, e + 1), *rest)
            return inflow

        monkeypatch.setattr(chain, "_inflow_by_move", shifted)
        coin = CoinConfig(q)
        for state in occupied_front_states(3, 5):
            assert not verify_stationarity(state, coin), str(state)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 4)], ids=str)
    def test_fails_with_the_inflow_at_a_wrong_q(self, monkeypatch, q):
        # the inflow at q^2 over the weight at q: x -> x^2 in the inflow
        # over its own weight, times x^inv.  A ground state's inflow and
        # weight are both 1 at every q, so only it still balances.
        real = chain._inflow_by_move

        def at_q_squared(state, max_throw=None):
            inv = inversions(state)
            return {
                k: tuple((n, 2 * e + inv) for n, e in monomials)
                for k, monomials in real(state, max_throw).items()
            }

        monkeypatch.setattr(chain, "_inflow_by_move", at_q_squared)
        coin = CoinConfig(q)
        for state in occupied_front_states(3, 5):
            ground = inversions(state) == 0
            assert verify_stationarity(state, coin) == ground, str(state)

    def test_term_by_term_against_dist(self):
        # every successor's backward law must put the weight the closed-form
        # computation assumes on the original state
        from jugglechain.states import forward_edges

        state = parse_state("x-x")
        q = Fraction(3)
        coin = CoinConfig(q)
        for t, successor in forward_edges(state, 12):
            prob = backward_dist(successor, coin).probability(state)
            assert prob > 0
            assert inversions(successor) == inversions(state) + t - state.balls


class TestSimulation:
    def test_seed_determinism(self):
        a = simulate(ground_state(2), Q2, 30_000, 500, ChainRng(7))
        b = simulate(ground_state(2), Q2, 30_000, 500, ChainRng(7))
        assert a == b

    def test_tv_convergence(self):
        hist = simulate(ground_state(2), Q2, 200_000, 5_000, ChainRng(11))
        assert tv_distance(hist, Q2, 2, 10) < 0.05

    def test_histogram_counts(self):
        hist = simulate(ground_state(1), Q2, 1_000, 100, ChainRng(3))
        assert hist.samples == 900
        assert sum(c for _, c in hist.counts) == 900

    @pytest.mark.parametrize("burnin", [10, 11, -1])
    def test_burnin_must_leave_a_sample(self, burnin):
        # burnin == steps would leave an empty histogram
        with pytest.raises(ValueError):
            simulate(ground_state(2), Q2, 10, burnin, ChainRng(1))

    def test_tv_refuses_an_empty_histogram(self):
        with pytest.raises(ValueError, match="no samples"):
            tv_distance(chain.Histogram(counts=(), samples=0), Q2, 2)

    def test_tv_refuses_a_wrong_ball_count(self):
        hist = simulate(ground_state(2), Q2, 20_000, 1_000, ChainRng(1))
        for balls in (1, 3):
            with pytest.raises(ValueError, match="holds 2 balls"):
                tv_distance(hist, Q2, balls)
        assert tv_distance(hist, Q2, 2) == 0.012084247629893453


def tv_by_enumeration(hist, coin, balls, max_inversions) -> Fraction:
    """The reference TV distance, an exact rational: every state up to
    `max_inversions` plus every visited state is compared one by one, and
    the stationary mass outside that set is added whole (the empirical
    measure is zero there)."""
    empirical = hist.as_dict()
    comparison = set(states_up_to_inversions(balls, max_inversions))
    comparison.update(empirical)
    n = hist.samples
    covered = Fraction(0)
    diff = Fraction(0)
    for state in comparison:
        weight = stationary_weight(state, coin)
        covered += weight
        diff += abs(Fraction(empirical.get(state, 0), n) - weight)
    return (diff + 1 - covered) / 2


TV_QS = [Fraction(2), Fraction(5, 4), Fraction(3), Fraction(7, 2)]


def far_histogram(balls, lowest, seed) -> chain.Histogram:
    """A few states, each with at least `lowest` inversions, with
    random counts."""
    rng = random.Random(seed)
    states = {
        rng.choice(list(states_with_inversions(balls, lowest + rng.randrange(5))))
        for _ in range(1 + rng.randrange(6))
    }
    counts = tuple((s, 1 + rng.randrange(50)) for s in sorted(states, key=str))
    return chain.Histogram(counts=counts, samples=sum(c for _, c in counts))


class TestExactTV:
    @pytest.mark.parametrize("max_inversions", [0, 3, 10])
    @pytest.mark.parametrize("balls", [1, 2, 3, 8])
    def test_sampled_histograms(self, balls, max_inversions):
        for seed in range(40):
            coin = CoinConfig(TV_QS[seed % len(TV_QS)])
            hist = simulate(ground_state(balls), coin, 200 + seed, seed, ChainRng(seed))
            expected = tv_by_enumeration(hist, coin, balls, max_inversions)
            assert tv_distance(hist, coin, balls, max_inversions) == float(expected)

    @pytest.mark.parametrize("max_inversions", [0, 3, 10])
    @pytest.mark.parametrize("balls", [1, 2, 3, 8])
    def test_every_visited_state_beyond_the_comparison_set(self, balls, max_inversions):
        for seed in range(40):
            coin = CoinConfig(TV_QS[seed % len(TV_QS)])
            hist = far_histogram(balls, max_inversions + 1, seed)
            assert all(inversions(s) > max_inversions for s, _ in hist.counts)
            expected = tv_by_enumeration(hist, coin, balls, max_inversions)
            assert tv_distance(hist, coin, balls, max_inversions) == float(expected)

