import functools
import itertools
from collections import Counter
from fractions import Fraction

import pytest

import jugglechain.flagchain as flagchain
from jugglechain.chain import (
    CoinConfig,
    _move_law,
    _plain_step,
    backward_dist,
    step_law,
)
from jugglechain.errors import CapTooSmall
from jugglechain.flagchain import (
    _flag_inflow,
    _word_inversions,
    _word_law,
    _word_walks,
    flag_backward_dist,
    flag_backward_step,
    flag_forward_edges,
    flag_stationarity_holds,
    flag_stationary_weight,
    group_prefactor,
    label_groups,
    verify_flag_stationarity,
)
from jugglechain.rng import ChainRng, ScriptedRng
from jugglechain.series import sn
from jugglechain.states import (
    FlagState,
    distinct_permutations,
    erase_labels,
    flag_from_parts,
    flag_states_up_to_inversions,
    forward_edges,
    inversions,
    parse_flag_state,
    states_up_to_inversions,
    word_inversions,
)
from test_chain_basic import INFLOW_QS, reference_inflow_by_move

Q2 = CoinConfig(Fraction(2))


def word_law(word, k, coin):
    """W_k as `Fraction`s: `_word_law`'s numerators over its denominator."""
    law, den = _word_law(word, k, coin)
    return {w: Fraction(n, den) for w, n in law.items()}


def move_law(b, coin):
    """P(k) for k = 0..b as `Fraction`s, from `_move_law`'s integers."""
    nums, den = _move_law(b, coin)
    return tuple(Fraction(n, den) for n in nums)


def sampled_word_laws(word, coin):
    """W_k(word, .) for k = 0..b, read off the sampler: the gap-free state
    of the word has b + 1 distinct plain successors, one per move k, and
    each outcome's probability over P(k) is its word's."""
    b = len(word)
    move = {_plain_step(tuple(range(b)), k): k for k in range(b + 1)}
    laws = [{} for _ in range(b + 1)]
    for outcome, p in step_law(flag_backward_step, FlagState(word), coin).entries:
        k = move[erase_labels(outcome).positions]
        laws[k][tuple([c for c in outcome.cells if c is not None])] = (
            p / move_law(b, coin)[k]
        )
    return laws


@functools.lru_cache(maxsize=None)
def word_laws(word, coin):
    """W_k(word, .) as `Fraction`s for every move k, each law built whole."""
    return tuple(word_law(word, k, coin) for k in range(len(word) + 1))


def reference_flag_inflow(state, coin, max_drop=None):
    """The balance inflow into `state` without the group prefactor, summed
    in `Fraction`s: per move k, the plain closed form times
    sum_w' q^-inv(w') W_k(w', w) over every word w' of the multiset, each
    W_k(w', .) built whole and read at w, so it trusts neither the walk
    weights nor that the walks list every source."""
    q = coin.q
    word = tuple([c for c in state.cells if c is not None])
    max_throw = None if max_drop is None else max_drop + 1
    plain = reference_inflow_by_move(erase_labels(state), q, max_throw)
    total = Fraction(0)
    for k, inflow in plain.items():
        total += inflow * sum(
            q ** -word_inversions(w) * word_laws(w, coin)[k].get(word, 0)
            for w in distinct_permutations(word)
        )
    return total


class TestLabelGroups:
    def test_grouping(self):
        assert label_groups((1, 1, 5, 7, 7, 7)) == ((1, 2), (5, 1), (7, 3))

    def test_distinct_prefactor(self):
        q = Fraction(3)
        assert group_prefactor((1, 2, 3), q) == (1 - 1 / q) ** 3

    def test_single_group_prefactor(self):
        q = Fraction(2)
        assert group_prefactor((4, 4, 4), q) == sn(3, q)

    def test_memoised_prefactor_is_the_product_over_groups(self):
        flagchain._group_prefactor.cache_clear()
        cases = [(1,), (1, 2, 3), (3, 1, 2), (1, 1, 2), (2, 1, 1), (1, 2, 1),
                 (4, 4, 4), (1, 1, 2, 2, 2, 5), (5, 2, 1, 2, 1, 2)]
        for q in (Fraction(2), Fraction(5, 2), Fraction(29, 28), 3):
            for labels in cases:
                expected = Fraction(1)
                for size in Counter(labels).values():
                    expected *= sn(size, Fraction(q))
                # the second call is read back from the cache
                assert group_prefactor(labels, q) == expected
                assert group_prefactor(labels, q) == expected
        # one entry per (label groups, q): orders of one multiset share it
        assert flagchain._group_prefactor.cache_info().currsize == 4 * 5


class TestForwardEdges:
    def test_empty_initial_unique(self):
        edges = flag_forward_edges(parse_flag_state("-21"), 9)
        assert len(edges) == 1
        assert edges[0].target == parse_flag_state("21")
        assert edges[0].drops == frozenset()

    def test_drop_and_carry(self):
        edges = flag_forward_edges(parse_flag_state("3-21"), 6)
        targets = {str(t.target): t.drops for t in edges}
        assert targets["321"] == frozenset({0})
        assert targets["-213"] == frozenset({3})

    def test_exchange_produces_multi_drop(self):
        # carrying 1 east over 2 allows an exchange, drops at two places
        edges = flag_forward_edges(parse_flag_state("12"), 4)
        by_target = {str(t.target): t.drops for t in edges}
        assert by_target["12"] == frozenset({0, 1})

    def test_all_equal_matches_plain_digraph(self):
        # a drop at position p is a throw of p + 1
        for plain in states_up_to_inversions(3, 4):
            flag = flag_from_parts(plain.positions, (1,) * plain.balls)
            flag_targets = {
                str(erase_labels(tr.target))
                for tr in flag_forward_edges(flag, 8)
            }
            plain_targets = {str(t) for _, t in forward_edges(plain, 9)}
            assert flag_targets == plain_targets
            assert all(
                len(tr.drops) <= 1 for tr in flag_forward_edges(flag, 8)
            )


    @pytest.mark.parametrize(
        "labels",
        [(1, 2, 3, 4), (1, 1, 2, 2), (2, 1, 3, 1, 2), (1, 2, 2, 3, 3), (3, 3, 3)],
        ids=lambda labels: "".join(map(str, labels)),
    )
    def test_walk_counts_are_the_walks(self, labels):
        # the count read off the increasing chains, equal labels included,
        # is the number of walks listed, for every m
        for word in distinct_permutations(labels):
            assert flagchain._walk_counts(word) == [
                len(_word_walks(word, m)) for m in range(len(word))
            ], word


class TestBackwardStep:
    # the worked example from - - 3 1 - 2 (True = heads)
    @pytest.mark.parametrize(
        "flips,expected",
        [
            ([False, False], "1--32"),
            ([False, True], "2--31"),
            ([True, False], "1--3--2"),
            ([True, True, False], "3---1-2"),
            ([True, True, True], "---31-2"),
        ],
    )
    def test_worked_example(self, flips, expected):
        rng = ScriptedRng(flips)
        out = flag_backward_step(parse_flag_state("--31-2"), Q2, rng)
        assert out == parse_flag_state(expected)
        assert rng.used == len(flips)

    @pytest.mark.parametrize(
        "start,flips,expected,used",
        [
            # the last label is picked up: both empties before it are
            # trimmed, and the held 2 passes them without a coin
            ("1--2", [False, True], "21", 2),
            ("1--2", [False, False], "12", 2),
            # a lone label: picked up and put back, or shifted up
            ("1", [False], "1", 1),
            ("1", [True], "-1", 1),
            # the held 1 stops neither at the larger 2 nor at the equal 1
            ("121", [False, False], "112", 1),
            ("1-1", [False, False], "11", 1),
        ],
    )
    def test_sweep_edge_cases(self, start, flips, expected, used):
        rng = ScriptedRng(flips)
        out = flag_backward_step(parse_flag_state(start), Q2, rng)
        assert out == parse_flag_state(expected)
        assert rng.used == used

    def test_at_most_b_flips(self):
        for state in flag_states_up_to_inversions((1, 2, 3), 4):
            rng = ScriptedRng([False] * 3)
            flag_backward_step(state, Q2, rng)
            assert rng.used <= 3


class TestBackwardDist:
    def test_one_label(self):
        q = Fraction(5, 2)
        dist = flag_backward_dist(parse_flag_state("1"), CoinConfig(q))
        assert dist.probability(parse_flag_state("1")) == 1 - 1 / q
        assert dist.probability(parse_flag_state("-1")) == 1 / q

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(7, 2)])
    def test_worked_example_distribution(self, q):
        x = 1 / q
        dist = flag_backward_dist(parse_flag_state("--31-2"), CoinConfig(q))
        expected = {
            "1--32": (1 - x) ** 2,
            "2--31": (1 - x) * x,
            "1--3--2": (1 - x) * x,
            "3---1-2": x * x * (1 - x),
            "---31-2": x**3,
        }
        assert {str(s): p for s, p in dist.entries} == expected

    def test_all_equal_reduces_to_plain_chain(self):
        for plain in states_up_to_inversions(3, 4):
            flag = flag_from_parts(plain.positions, (1,) * plain.balls)
            flag_dist = {
                str(erase_labels(s)): p
                for s, p in flag_backward_dist(flag, Q2).entries
            }
            plain_dist = {
                str(s): p for s, p in backward_dist(plain, Q2).entries
            }
            assert flag_dist == plain_dist

    def test_erasing_labels_projects_onto_plain_chain(self):
        for coin, labels in itertools.product(
            [Q2, CoinConfig(Fraction(5, 2))],
            [(1, 2), (1, 2, 3), (1, 1, 2), (1, 2, 3, 4)],
        ):
            for state in flag_states_up_to_inversions(labels, 4):
                pushed: dict[str, Fraction] = {}
                for s, p in flag_backward_dist(state, coin).entries:
                    key = str(erase_labels(s))
                    pushed[key] = pushed.get(key, Fraction(0)) + p
                plain_dist = {
                    str(s): p
                    for s, p in backward_dist(erase_labels(state), coin).entries
                }
                assert pushed == plain_dist

    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(5, 2), Fraction(5, 4)], ids=str
    )
    @pytest.mark.parametrize(
        "labels",
        [(1, 2, 3), (1, 1, 2), (1, 2, 3, 4), (2, 2, 2)],
        ids=lambda labels: "".join(map(str, labels)),
    )
    def test_product_law_is_the_sampler_law(self, labels, q):
        # move law times word law, against the sampler run on every flip
        # sequence it can draw
        coin = CoinConfig(q)
        for state in flag_states_up_to_inversions(labels, 4):
            assert flag_backward_dist(state, coin) == step_law(
                flag_backward_step, state, coin
            ), str(state)

    def test_support_matches_forward_edges(self):
        for labels in [(1, 2), (1, 1, 2)]:
            for state in flag_states_up_to_inversions(labels, 4):
                for outcome, _ in flag_backward_dist(state, Q2).entries:
                    cap = len(outcome.cells) + len(state.cells) + 4
                    targets = {
                        tr.target for tr in flag_forward_edges(outcome, cap)
                    }
                    assert state in targets, (str(outcome), str(state))


class TestWordKernel:
    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(5, 2), Fraction(5, 4)], ids=str
    )
    @pytest.mark.parametrize(
        "labels",
        [(1, 2, 3), (1, 1, 2), (1, 2, 3, 4), (1, 1, 2, 2), (2, 2, 2), (1, 2, 3, 4, 5)],
        ids=lambda labels: "".join(map(str, labels)),
    )
    def test_mallows_is_stationary_for_every_move(self, labels, q):
        # the word kernel W_k of each plain move k keeps Mallows' law
        # q^-inv(w): sum over w' of q^-inv(w') W_k(w', w) == q^-inv(w),
        # summed by brute force over every source word of the multiset
        coin = CoinConfig(q)
        words = list(distinct_permutations(labels))
        laws = {source: sampled_word_laws(source, coin) for source in words}
        for k in range(len(labels) + 1):
            inflow = dict.fromkeys(words, Fraction(0))
            for source in words:
                for target, p in laws[source][k].items():
                    inflow[target] += q ** -word_inversions(source) * p
            assert inflow == {w: q ** -word_inversions(w) for w in words}, k


    @pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 4)], ids=str)
    @pytest.mark.parametrize(
        "labels",
        [(1, 2, 3), (1, 1, 2), (1, 2, 3, 4)],
        ids=lambda labels: "".join(map(str, labels)),
    )
    def test_word_law_does_not_depend_on_the_positions(self, labels, q):
        # the sampler run whole: given the plain move k (read off the new
        # positions), the new word's law is W_k(word) for every state of
        # the word, wherever its labels sit
        coin = CoinConfig(q)
        b = len(labels)
        by_word = {}
        for state in flag_states_up_to_inversions(labels, 5):
            word = tuple([c for c in state.cells if c is not None])
            by_word.setdefault(word, []).append(state)
        pairs = 0
        for word, states in by_word.items():
            laws = []
            for state in states:
                positions = erase_labels(state).positions
                move = {_plain_step(positions, k): k for k in range(b + 1)}
                law = {}
                for outcome, p in step_law(flag_backward_step, state, coin).entries:
                    k = move[erase_labels(outcome).positions]
                    new_word = tuple([c for c in outcome.cells if c is not None])
                    law.setdefault(k, {})[new_word] = p / move_law(b, coin)[k]
                assert law == {
                    k: word_law(word, k, coin) for k in range(b + 1)
                }, str(state)
                laws.append(law)
            assert all(law == laws[0] for law in laws)
            pairs += len(states) * (len(states) - 1) // 2
        assert pairs > 100

    @pytest.mark.parametrize("q", [Fraction(5, 2), Fraction(3)], ids=str)
    @pytest.mark.parametrize(
        "labels",
        [(1, 2, 3), (1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (1, 2, 3, 4),
         (2, 1, 3, 1, 2)],
        ids=lambda labels: "".join(map(str, labels)),
    )
    def test_walks_are_the_sources_and_carry_their_law(self, labels, q):
        # the forward walks of w at m leave distinct words, repeated labels
        # included, and they are exactly the words w' with W_k(w', w) > 0,
        # k = b - 1 - m; each walk's (e, s) gives that entry, built whole
        coin = CoinConfig(q)
        a, c = coin.ac
        b = len(labels)
        words = list(distinct_permutations(labels))
        for word in words:
            for m in range(b):
                k = b - 1 - m
                walks = _word_walks(word, m)
                sources = [w for w, _, _ in walks]
                assert len(set(sources)) == len(sources), (word, m)
                entries = {w: _word_law(w, k, coin)[0].get(word, 0) for w in words}
                assert set(sources) == {w for w, n in entries.items() if n}
                for w, e, s in walks:
                    n = a ** (b - 1 - e - s) * (a - c) ** e * c**s
                    assert entries[w] == n, (word, m, w)

    def test_memoised_law_is_a_fresh_law(self):
        # `_flag_law` is the one law memo: per move k, P(k) W_k of the word
        coin = CoinConfig(Fraction(5, 2))
        b = 4
        for word in distinct_permutations((1, 1, 2, 3)):
            fresh = [
                {w: move_law(b, coin)[k] * p for w, p in law.items()}
                for k, law in enumerate(sampled_word_laws(word, coin))
            ]
            flagchain._flag_law.cache_clear()
            for _ in range(2):  # built, then read back from the cache
                laws, den = flagchain._flag_law(word, coin)
                assert [
                    {w: Fraction(n, den) for w, n in law} for law in laws
                ] == fresh

    def test_memoised_law_is_read_only(self):
        laws, den = flagchain._flag_law((3, 1, 2), Q2)
        with pytest.raises(TypeError):
            laws[0] = ()
        with pytest.raises(TypeError):
            laws[0][0] = ((3, 1, 2), 1)
        # 2 is carried to the front past 1 (a flip) and 3 (no flip), over
        # the one denominator a^(b-1) = 4; P(0) = 4/8
        assert (laws[0], den) == ((((2, 3, 1), 8), ((1, 3, 2), 8)), 32)
        # the word law is built afresh for each call: no caller shares it
        law, den = _word_law((3, 1, 2), 0, Q2)
        assert (law, den) == ({(2, 3, 1): 2, (1, 3, 2): 2}, 4)
        law[(3, 1, 2)] = 1
        assert _word_law((3, 1, 2), 0, Q2)[0] == {(2, 3, 1): 2, (1, 3, 2): 2}
        assert word_law((3, 1, 2), 0, Q2) == {
            (2, 3, 1): Fraction(1, 2),
            (1, 3, 2): Fraction(1, 2),
        }

    @pytest.mark.parametrize(
        "labels", [(1, 2, 3, 4), (1, 1, 2, 2), (1, 1, 2, 2, 3)], ids=str
    )
    def test_memoised_inversions(self, labels):
        _word_inversions.cache_clear()
        for _ in range(2):  # computed, then read back from the cache
            for word in distinct_permutations(labels):
                assert _word_inversions(word) == word_inversions(word)


class TestStationaryWeight:
    def test_distinct_ground(self):
        q = Fraction(3)
        state = parse_flag_state("123")
        assert flag_stationary_weight(state, CoinConfig(q)) == (1 - 1 / q) ** 3

    def test_paper_example_weight(self):
        assert flag_stationary_weight(parse_flag_state("-3-12"), Q2) == Fraction(
            1, 1024
        )

    def test_repeated_pair_uses_plain_prefactor(self):
        assert flag_stationary_weight(parse_flag_state("11"), Q2) == sn(
            2, Fraction(2)
        )


class TestStationarity:
    def test_single_label_bracket(self):
        for state in flag_states_up_to_inversions((1,), 6):
            bracket = verify_flag_stationarity(state, Q2, len(state.cells) + 24)
            assert bracket.ok

    def test_empty_front_is_exact(self):
        bracket = verify_flag_stationarity(parse_flag_state("-12"), Q2, 30)
        assert bracket.tail_bound == 0
        assert bracket.partial_sum == bracket.expected

    @pytest.mark.parametrize("labels", [(1, 2), (1, 1, 2)])
    def test_sweep_passes_tightly(self, labels):
        for state in flag_states_up_to_inversions(labels, 5):
            cap = len(state.cells) + len(labels) + 22
            bracket = verify_flag_stationarity(state, Q2, cap)
            assert bracket.ok
            assert bracket.tail_bound < bracket.expected * Fraction(1, 1024)

    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(7, 2), Fraction(5, 4)], ids=str
    )
    @pytest.mark.parametrize("labels", [(1, 2), (1, 2, 3), (1, 1, 2)])
    def test_partial_sum_matches_whole_law_reference(self, labels, q):
        # the reference builds each target's whole law and reads one entry,
        # for every target up to the cap, so it sums each far-drop family
        # term by term; caps: the minimum (last label + b), one more, and
        # the CLI's cells + b + 20
        coin = CoinConfig(q)
        for state in flag_states_up_to_inversions(labels, 5):
            for extra in (0, 1, 21):
                cap = len(state.cells) - 1 + len(labels) + extra
                bracket = verify_flag_stationarity(
                    state, coin, cap, tolerance=Fraction(2**40)
                )
                if state.cells[0] is None:
                    successors = {FlagState(state.cells[1:])}
                else:
                    successors = {
                        tr.target for tr in flag_forward_edges(state, cap)
                    }
                reference = Fraction(0)
                for target in sorted(successors, key=str):
                    prob = flag_backward_dist(target, coin).probability(state)
                    if prob:
                        reference += flag_stationary_weight(target, coin) * prob
                assert bracket.partial_sum == reference, (str(state), cap)

    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(5, 2), Fraction(5, 4), Fraction(7, 2)], ids=str
    )
    @pytest.mark.parametrize(
        "labels,max_inversions",
        [((1, 2), 5), ((1, 2, 3), 5), ((1, 1, 2), 5), ((1, 2, 3, 4), 4)],
    )
    def test_closed_geometric_tail_is_exact(self, labels, max_inversions, q):
        # past the minimum cap each extra drop position adds one layer of
        # inflow, and the layers shrink by exactly 1/q, so closing the tail
        # after P(c) with the layer P(c+1) - P(c) gives the weight exactly
        coin = CoinConfig(q)
        for state in flag_states_up_to_inversions(labels, max_inversions):
            cap = len(state.cells) - 1 + len(labels)
            near, far = (
                verify_flag_stationarity(
                    state, coin, c, tolerance=Fraction(2**40)
                ).partial_sum
                for c in (cap, cap + 1)
            )
            assert near + (far - near) / (1 - 1 / q) == flag_stationary_weight(
                state, coin
            ), str(state)
            assert flag_stationarity_holds(state, coin), str(state)

    @pytest.mark.parametrize(
        "labels,max_inversions",
        [
            ((1,), 6), ((1, 2), 6), ((1, 2, 3), 6), ((1, 1, 2), 6),
            ((2, 2, 2), 6), ((1, 2, 3, 4), 4), ((1, 1, 2, 2), 4),
        ],
    )
    def test_exact_check_sweep(self, labels, max_inversions):
        for q in (2, Fraction(5, 2), 3, Fraction(7, 2), Fraction(5, 4)):
            coin = CoinConfig(Fraction(q))
            for state in flag_states_up_to_inversions(labels, max_inversions):
                assert flag_stationarity_holds(state, coin), (str(state), q)

    def test_exact_check_fails_under_a_wrong_word_law(self, monkeypatch):
        # the walks' weights mutated: the exchange and smaller-label
        # factors swapped, smaller labels passed at weight 1, or one walk
        # dropped.  The counts are failing states out of the 66
        # label-initial states of 123, 112 and 1234 up to 3 inversions, at
        # q = 5/2 and 3; at q = 2, x = 1 - x, so a swap there changes nothing
        real = flagchain._word_walks
        mutations = [
            (lambda word, m: [(w, s, e) for w, e, s in real(word, m)], 64),
            (lambda word, m: [(w, e, 0) for w, e, _ in real(word, m)], 47),
            (lambda word, m: real(word, m)[:-1], 66),
        ]
        states = [
            state
            for labels in [(1, 2, 3), (1, 1, 2), (1, 2, 3, 4)]
            for state in flag_states_up_to_inversions(labels, 3)
            if state.cells[0] is not None
        ]
        assert len(states) == 66
        for q in (Fraction(5, 2), Fraction(3)):
            coin = CoinConfig(q)
            for walks, fails in mutations:
                monkeypatch.setattr(flagchain, "_word_walks", real)
                assert all(flag_stationarity_holds(s, coin) for s in states)
                monkeypatch.setattr(flagchain, "_word_walks", walks)
                failed = [s for s in states if not flag_stationarity_holds(s, coin)]
                assert len(failed) == fails, q

    @pytest.mark.parametrize("q", INFLOW_QS, ids=str)
    @pytest.mark.parametrize(
        "labels,max_inversions", [((1, 2, 3), 5), ((1, 1, 2), 5), ((1, 2, 3, 4), 4)]
    )
    def test_integer_inflow_matches_fraction_reference(
        self, labels, max_inversions, q
    ):
        # the integer sum over one denominator, times the plain weight it
        # leaves out, is the Fraction sum, uncapped and at three caps
        coin = CoinConfig(q)
        for state in flag_states_up_to_inversions(labels, max_inversions):
            plain = q ** -inversions(erase_labels(state))
            cap = len(state.cells) - 1 + len(labels)
            for max_drop in (None, cap, cap + 1, cap + 21):
                num, den = _flag_inflow(state, coin, max_drop)
                assert Fraction(num, den) * plain == reference_flag_inflow(
                    state, coin, max_drop
                ), (str(state), max_drop)

    @pytest.mark.parametrize(
        "text,q,cap,tolerance,expected,tail_bound,partial_sum",
        [
            (
                "3-12", Fraction(5, 2), 27, Fraction(1, 1024),
                Fraction(432, 78125),
                Fraction(2415919104, 37252902984619140625),
                Fraction(
                    643730163545227720752, 116415321826934814453125
                ),
            ),
            (
                "2-1-1", Fraction(7, 2), 7, Fraction(2**40),
                Fraction(36000, 40353607),
                Fraction(57600, 40353607),
                Fraction(4233060000, 4747561509943),
            ),
            (
                "4-3-21", Fraction(29, 28), 13, Fraction(2**40),
                Fraction(8293509467471872, 8629188747598184440949),
                Fraction(66348075739774976, 297558232675799463481),
                Fraction(
                    32402743962818749805099172757504,
                    105280501585190501232597819292755591721,
                ),
            ),
        ],
    )
    def test_bracket_fields_golden(
        self, text, q, cap, tolerance, expected, tail_bound, partial_sum
    ):
        bracket = verify_flag_stationarity(
            parse_flag_state(text), CoinConfig(q), cap, tolerance
        )
        assert bracket.expected == expected
        assert bracket.tail_bound == tail_bound
        assert bracket.partial_sum == partial_sum
        assert bracket.ok

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 2), Fraction(29, 28)], ids=str)
    @pytest.mark.parametrize(
        "labels,max_inversions",
        [((1, 2), 5), ((1, 2, 3), 5), ((1, 1, 2), 5), ((1, 2, 3, 4), 3)],
    )
    @pytest.mark.parametrize("scale", [1, 2, Fraction(1, 2)], ids=["exact", "double", "half"])
    def test_integer_ok_is_the_fraction_bracket(
        self, monkeypatch, labels, max_inversions, q, scale
    ):
        # the integer `ok` reads as the bracket of its own Fraction fields at
        # three caps, also on inflows scaled by 2 or 1/2.  At the widest cap
        # the tail bound is below 2^-10 of the weight even at q = 29/28, so
        # there a scaled inflow must fail at every state
        real = flagchain._flag_inflow
        scale = Fraction(scale)

        def scaled(state, coin, max_drop=None):
            num, den = real(state, coin, max_drop)
            return num * scale.numerator, den * scale.denominator

        monkeypatch.setattr(flagchain, "_flag_inflow", scaled)
        coin = CoinConfig(q)
        for state in flag_states_up_to_inversions(labels, max_inversions):
            for extra in (0, 21, 600):
                cap = len(state.cells) - 1 + len(labels) + extra
                bracket = verify_flag_stationarity(
                    state, coin, cap, tolerance=Fraction(2**40)
                )
                lo, hi = bracket.partial_sum, bracket.partial_sum + bracket.tail_bound
                assert bracket.ok == (lo <= bracket.expected <= hi), (str(state), cap)
            assert bracket.tail_bound < bracket.expected / 1024
            assert bracket.ok == (scale == 1), str(state)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(7, 2), Fraction(29, 28)], ids=str)
    @pytest.mark.parametrize("text", ["12", "21", "1-2", "3-12", "2-1-1", "4-3-21"])
    def test_tolerance_at_the_ratio_raises(self, text, q):
        # the test is tail >= tolerance * weight: equality raises, and any
        # tolerance above the ratio lets the check run
        state, coin = parse_flag_state(text), CoinConfig(q)
        cap = len(state.cells) + state.balls + 3
        free = verify_flag_stationarity(state, coin, cap, tolerance=Fraction(2**200))
        ratio = free.tail_bound / free.expected
        with pytest.raises(CapTooSmall):
            verify_flag_stationarity(state, coin, cap, tolerance=ratio)
        above = ratio * (1 + Fraction(1, 2**64))
        assert verify_flag_stationarity(state, coin, cap, tolerance=above).ok

    def test_cap_too_small_raises(self):
        state = parse_flag_state("12")
        with pytest.raises(CapTooSmall):
            verify_flag_stationarity(
                state, Q2, 8, tolerance=Fraction(1, 2**40)
            )

    def test_drop_cap_precondition(self):
        with pytest.raises(ValueError):
            verify_flag_stationarity(parse_flag_state("12"), Q2, 2)


class TestMonteCarlo:
    def test_empirical_matches_weights(self):
        rng = ChainRng(99)
        state = parse_flag_state("12")
        counts: dict = {}
        n = 150_000
        for _ in range(n):
            state = flag_backward_step(state, Q2, rng)
            # pi puts mass 1 - (1 - 2^-63)(1 - 2^-64) < 2^-62 on states
            # longer than 64 cells (the last label past position 63), and
            # this run peaks at 20; a sampler that lets states grow fails
            # here instead of swelling the comparison set below
            assert len(state.cells) <= 64
            counts[state] = counts.get(state, 0) + 1
        comparison = set(flag_states_up_to_inversions((1, 2), 8)) | set(counts)
        covered = Fraction(0)
        diff = Fraction(0)
        for s in comparison:
            w = flag_stationary_weight(s, Q2)
            covered += w
            diff += abs(Fraction(counts.get(s, 0), n) - w)
        tv = float((diff + (1 - covered)) / 2)
        assert tv < 0.05
