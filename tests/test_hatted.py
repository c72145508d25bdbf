import itertools
from fractions import Fraction

import pytest

from jugglechain.chain import CoinConfig, step_law
from jugglechain.flagchain import flag_backward_dist, flag_forward_edges
from jugglechain.hatted import (
    HattedState,
    _hat_exchange,
    composed_backward_dist,
    hatted_backward_dist,
    hatted_backward_step,
    hatted_forward_edges,
    hatted_path_exists,
    path_equivalence_check,
)
from jugglechain.rng import ScriptedRng
from jugglechain.states import (
    FlagState,
    flag_states_up_to_inversions,
    parse_flag_state,
)

Q2 = CoinConfig(Fraction(2))
Q3 = CoinConfig(Fraction(3))


def hatted(text: str, hat: int) -> HattedState:
    return HattedState(parse_flag_state(text).cells, hat)


class TestHattedState:
    def test_render(self):
        assert hatted("3-21", 0).word() == "3^ - 2 1"
        assert hatted("3-21", 1).word() == "3 -^ 2 1"
        assert hatted("3-21", 4).word() == "3 - 2 1 -^"

    def test_hat_bounds(self):
        with pytest.raises(ValueError):
            HattedState(parse_flag_state("21").cells, 3)
        with pytest.raises(ValueError):
            HattedState((1, None), 0)  # untrimmed base word

    @pytest.mark.parametrize("hat", [1.0, True], ids=["float", "bool"])
    def test_hat_must_be_an_int(self, hat):
        # both equal 1 and lie in range, but a hat is an int, as a label is
        # (a float hat cannot index the cells)
        with pytest.raises(ValueError, match="hat must be an int"):
            HattedState((1, 2), hat)


class TestForwardEdges:
    def test_unhatted_hats_position_zero(self):
        edges = hatted_forward_edges(parse_flag_state("3-21"))
        assert edges == [hatted("3-21", 0)]

    def test_hat_moves_right_two_ways(self):
        edges = hatted_forward_edges(hatted("3-21", 0))
        words = {e.word() for e in edges}
        assert words == {"- 3^ 2 1", "3 -^ 2 1"}
        assert hatted("3-21", 2).word() not in words  # no two-cell jump

    def test_hat_past_last_label_unhats(self):
        assert hatted_forward_edges(hatted("3-21", 4)) == [parse_flag_state("3-21")]

    def test_no_jump_onto_smaller_label(self):
        # hat on the 2 of 3-21: the next label 1 is smaller, so only the
        # exchange move exists
        edges = hatted_forward_edges(hatted("3-21", 2))
        assert [e.word() for e in edges] == ["3 - 1 2^"]
        # nor onto an equal one: the exchange alone, listed once
        edges = hatted_forward_edges(hatted("11", 0))
        assert [e.word() for e in edges] == ["1 1^"]

    def test_every_edge_reverses_a_backward_branch(self):
        for labels in [(1, 2), (1, 1, 2)]:
            for base in flag_states_up_to_inversions(labels, 3):
                sources = [base] + [
                    HattedState(base.cells, h)
                    for h in range(len(base.cells) + 1)
                ]
                for src in sources:
                    for dst in hatted_forward_edges(src):
                        back = hatted_backward_dist(dst, Q2)
                        assert back.probability(src) > 0, (str(src), str(dst))


    @pytest.mark.parametrize("labels", [(1, 2), (1, 1, 2), (1, 2, 3)])
    def test_hatted_edges_move_the_hat_one_cell_right(self, labels):
        # the premise of hatted_path_exists' fixed path length
        for base in flag_states_up_to_inversions(labels, 5):
            for h in range(len(base.cells)):
                for dst in hatted_forward_edges(HattedState(base.cells, h)):
                    assert isinstance(dst, HattedState), str(base)
                    assert dst.hat == h + 1 and dst.cells[-1] is not None
                    assert sorted(filter(None, dst.cells)) == list(labels)


class TestBackwardStep:
    def test_unhatted_enters_deterministically(self):
        out = hatted_backward_step(parse_flag_state("3-21"), Q2, ScriptedRng([]))
        assert out == hatted("3-21", 4)

    def test_hat_at_zero_unhats(self):
        out = hatted_backward_step(hatted("-12", 0), Q2, ScriptedRng([]))
        assert out == parse_flag_state("-12")

    def test_entry_branch_probabilities(self):
        # one coin decides between hat-only and label-exchange
        dist = hatted_backward_dist(hatted("3-21", 4), Q3)
        assert dist.probability(hatted("3-21", 3)) == Fraction(2, 3)
        assert dist.probability(hatted("3-2-1", 3)) == Fraction(1, 3)

    def test_deterministic_exchange_past_larger_label(self):
        # hatted 1 with a 2 to its left: the 1 keeps moving, no coin
        dist = hatted_backward_dist(hatted("3-21", 3), Q3)
        assert dist.entries == ((hatted("3-12", 2), Fraction(1)),)

    def test_equal_labels_move_deterministically(self):
        dist = hatted_backward_dist(hatted("11", 1), Q3)
        assert dist.entries == ((hatted("11", 0), Fraction(1)),)

    @pytest.mark.parametrize("labels", [(1, 2, 3), (1, 1, 2), (1, 1, 2, 2)])
    def test_every_branch_is_the_exchange_rule(self, labels):
        # every hat of every hatted state: the step's law is the one read
        # off `_hat_exchange`, and each successor, under either flip, equals
        # its rebuild through the checked constructor
        coin = CoinConfig(Fraction(5, 2))
        p = coin.heads_probability
        kept = 0  # exchanges that leave the cells as they are
        for base in flag_states_up_to_inversions(labels, 4):
            cells = base.cells
            states = [base] + [HattedState(cells, i) for i in range(len(cells) + 1)]
            for state in states:
                if isinstance(state, FlagState):
                    law = {HattedState(cells, len(cells)): 1}
                elif state.hat == 0:
                    law = {FlagState(cells): 1}
                else:
                    exchanged, flips = _hat_exchange(cells, state.hat)
                    after = HattedState(exchanged, state.hat - 1)
                    if flips:
                        law = {after: p, HattedState(cells, state.hat - 1): 1 - p}
                    else:
                        law = {after: 1}
                        kept += exchanged == cells
                assert hatted_backward_dist(state, coin).as_dict() == law, str(state)
                for flip in (True, False):
                    out = hatted_backward_step(state, coin, ScriptedRng([flip]))
                    if isinstance(out, FlagState):
                        rebuilt = FlagState(out.cells)
                    else:
                        rebuilt = HattedState(out.cells, out.hat)
                    assert out == rebuilt and hash(out) == hash(rebuilt), str(state)
        assert kept > 0

    def test_step_probabilities_are_one_coin(self):
        allowed = {
            Fraction(1),
            Q3.heads_probability,
            1 - Q3.heads_probability,
        }
        for base in flag_states_up_to_inversions((1, 2, 3), 4):
            for h in range(len(base.cells) + 1):
                dist = hatted_backward_dist(HattedState(base.cells, h), Q3)
                assert len(dist.entries) <= 2
                for _, p in dist.entries:
                    assert p in allowed


class TestComposition:
    def test_single_label(self):
        q = Fraction(7, 2)
        coin = CoinConfig(q)
        dist = composed_backward_dist(parse_flag_state("1"), coin)
        assert dist.probability(parse_flag_state("1")) == 1 - 1 / q
        assert dist.probability(parse_flag_state("-1")) == 1 / q

    def test_worked_example(self):
        assert composed_backward_dist(
            parse_flag_state("--31-2"), Q2
        ) == flag_backward_dist(parse_flag_state("--31-2"), Q2)

    @pytest.mark.parametrize(
        "labels", [(1,), (1, 2), (1, 2, 3), (1, 1, 2), (1, 2, 3, 4), (1, 1, 2, 2)]
    )
    def test_matches_flag_chain(self, labels):
        # four labels up to 4 inversions, fewer up to 5; q = 5/2 has a
        # denominator, so each flip splits a weight a - c : c with c > 1
        top = 4 if len(labels) == 4 else 5
        for coin in (Q3, CoinConfig(Fraction(5, 2))):
            for state in flag_states_up_to_inversions(labels, top):
                assert composed_backward_dist(state, coin) == flag_backward_dist(
                    state, coin
                ), (str(state), coin.q)

    @pytest.mark.parametrize(
        "labels", [(1, 2, 3), (1, 1, 2), (1, 1, 2, 2), (1, 2, 3, 4)]
    )
    def test_every_branch_takes_len_plus_two_steps(self, labels):
        def steps_to_unhat(current, coin, rng):
            for taken in range(1, 2 * len(current.cells) + 5):
                current = hatted_backward_step(current, coin, rng)
                if isinstance(current, FlagState):
                    return taken
            pytest.fail("branch never unhatted")

        for state in flag_states_up_to_inversions(labels, 5):
            law = step_law(steps_to_unhat, state, Q3)
            assert [n for n, _ in law.entries] == [len(state.cells) + 2], str(state)


class TestPathEquivalence:
    def test_empty_front_edge(self):
        assert path_equivalence_check(
            parse_flag_state("-21"), parse_flag_state("21")
        ) == (True, True)

    def test_carry_to_the_end(self):
        assert path_equivalence_check(
            parse_flag_state("3-21"), parse_flag_state("-213")
        ) == (True, True)

    def test_non_edge(self):
        assert path_equivalence_check(
            parse_flag_state("3-21"), parse_flag_state("1-23")
        ) == (False, False)

    @pytest.mark.parametrize("labels", [[1], [1, 2], [1, 1, 2], [1, 2, 3]])
    def test_exhaustive_small(self, labels):
        # every pair of states over the multiset within a window of 5 cells
        seen = set()
        for cells in itertools.product([None] + labels, repeat=5):
            if sorted(c for c in cells if c is not None) != labels:
                continue
            trimmed = cells
            while trimmed[-1] is None:
                trimmed = trimmed[:-1]
            seen.add(trimmed)
        states = [FlagState(t) for t in sorted(seen, key=str)]
        counts = {(1,): 5, (1, 2): 20, (1, 1, 2): 30, (1, 2, 3): 60}
        assert len(states) == counts[tuple(labels)]
        for src in states:
            flag_targets = {
                tr.target for tr in flag_forward_edges(src, 8)
            }
            for dst in states:
                assert (dst in flag_targets) == hatted_path_exists(src, dst), (
                    str(src),
                    str(dst),
                )
