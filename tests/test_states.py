import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jugglechain.states as states_module
from jugglechain.errors import IllegalThrow, ParseError
from jugglechain.hatted import HattedState, _unchecked_hatted
from jugglechain.states import (
    FlagState,
    JugglingState,
    _unchecked_flag,
    _unchecked_state,
    distinct_permutations,
    erase_labels,
    flag_from_parts,
    flag_inversions,
    flag_states_up_to_inversions,
    flag_states_with_inversions,
    forward_edges,
    ground_state,
    inversions,
    parse_flag_state,
    parse_state,
    prepend_empty,
    recover_throw,
    state_count_by_inversions,
    states_up_to_inversions,
    states_with_inversions,
    throw_state,
    window_dual,
    window_duality_holds,
    window_states,
    word_inversions,
)


def brute_inversions(word: str) -> int:
    """Independent oracle: count -...x pairs in the rendered word."""
    return sum(
        1
        for i, j in itertools.combinations(range(len(word)), 2)
        if word[i] == "-" and word[j] == "x"
    )


positions_strategy = st.lists(
    st.integers(0, 20), min_size=1, max_size=5, unique=True
).map(lambda ps: JugglingState(tuple(sorted(ps))))


class TestInversions:
    def test_ground_is_zero(self):
        assert inversions(ground_state(4)) == 0

    def test_single_pair(self):
        assert inversions(parse_state("x-x")) == 1

    def test_spread_state(self):
        # brute-force pair count over the word -x--x gives 4
        assert brute_inversions("-x--x") == 4
        assert inversions(parse_state("-x--x")) == 4

    @pytest.mark.parametrize("balls", range(7))
    def test_matches_the_sum_definition(self, balls):
        # inversions is the sum of the positions less 0 + 1 + ... + (b - 1);
        # the definition sums p_j - j term by term
        for count in range(9):
            for state in states_with_inversions(balls, count):
                by_terms = sum(p - j for j, p in enumerate(state.positions))
                assert inversions(state) == by_terms == count, str(state)

    @given(positions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_matches_word_oracle(self, state):
        assert inversions(state) == brute_inversions(state.word())

    @given(positions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_prepend_adds_ball_count(self, state):
        assert inversions(prepend_empty(state)) == inversions(state) + state.balls

    @given(positions_strategy, positions_strategy, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_concatenation_identity(self, left, right, pad):
        # glue a c-ball window of h cells onto a shifted remainder
        h = left.positions[-1] + 1 + pad
        c = left.balls
        b = c + right.balls
        combined = JugglingState(
            left.positions + tuple(p + h for p in right.positions)
        )
        assert inversions(combined) == inversions(left) + inversions(right) + (
            b - c
        ) * (h - c)


def word_inversions_by_pairs(cells):
    """The reference for `word_inversions`: the definition read pair by
    pair, quadratic in len(cells)."""
    return sum(
        1
        for i, j in itertools.combinations(range(len(cells)), 2)
        if cells[j] is not None and (cells[i] is None or cells[i] > cells[j])
    )


class TestFlagInversions:
    def test_one_pass_equals_the_pairwise_definition(self):
        for n in range(8):
            for cells in itertools.product((None, 1, 2, 3), repeat=n):
                assert word_inversions(cells) == word_inversions_by_pairs(cells)

    def test_paper_example(self):
        assert flag_inversions(parse_flag_state("-3-12")) == 7

    def test_sorted_ground_is_zero(self):
        assert flag_inversions(parse_flag_state("1234")) == 0

    def test_label_pair(self):
        assert flag_inversions(parse_flag_state("21")) == 1

    def test_equal_labels_do_not_invert(self):
        assert flag_inversions(parse_flag_state("11")) == 0

    def test_splits_into_plain_plus_label_word(self):
        for state in flag_states_with_inversions((1, 2, 3), 4):
            plain = erase_labels(state)
            label_word = tuple(c for c in state.cells if c is not None)
            label_inv = sum(
                1
                for i, j in itertools.combinations(range(3), 2)
                if label_word[i] > label_word[j]
            )
            assert flag_inversions(state) == inversions(plain) + label_inv


class TestThrows:
    def test_paper_walk(self):
        s = parse_state("x-x")
        s5 = throw_state(s, 5)
        assert s5 == parse_state("-x--x")
        s0 = throw_state(s5, 0)
        assert s0 == parse_state("x--x")
        assert throw_state(s0, 1) == s

    def test_zero_from_ball_front_is_illegal(self):
        with pytest.raises(IllegalThrow):
            throw_state(parse_state("x"), 0)

    def test_nonzero_from_empty_front_is_illegal(self):
        with pytest.raises(IllegalThrow):
            throw_state(parse_state("-x"), 3)

    def test_occupied_landing_is_illegal(self):
        # a 1-throw from xx would land on the other ball
        with pytest.raises(IllegalThrow):
            throw_state(parse_state("xx"), 1)

    def test_unique_zero_edge(self):
        assert forward_edges(parse_state("-x"), 9) == [(0, parse_state("x"))]

    def test_one_ball_edges(self):
        assert forward_edges(parse_state("x"), 3) == [
            (1, parse_state("x")),
            (2, parse_state("-x")),
            (3, parse_state("--x")),
        ]

    def test_paper_edge_present(self):
        assert (5, parse_state("-x--x")) in forward_edges(parse_state("x-x"), 5)

    @given(positions_strategy, st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_recovers_throw(self, state, max_throw):
        for t, target in forward_edges(state, max_throw):
            assert recover_throw(state, target) == t
            assert throw_state(state, t) == target


class TestText:
    def test_plain_round_trip(self):
        for word in ("x", "-x", "--xx-x", "x--x"):
            assert parse_state(word).word() == word

    def test_flag_round_trip(self):
        for word in ("-3-12", "21", "1--32"):
            assert parse_flag_state(word).word() == word

    def test_wide_labels_use_tokens(self):
        state = flag_from_parts((0, 2), (12, 3))
        assert state.word() == "12 - 3"
        assert parse_flag_state("12 - 3") == state
        # 10 is the least label without a one-character token
        assert flag_from_parts((0, 1), (10, 9)).word() == "10 9"
        assert flag_from_parts((0, 1), (9, 1)).word() == "91"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_state("")
        with pytest.raises(ParseError):
            parse_state("x?x")
        with pytest.raises(ParseError):
            parse_flag_state("12-")  # trailing empty
        with pytest.raises(ParseError):
            parse_flag_state("0")

    @pytest.mark.parametrize("text", ["²1", "１2", "1²", "12 ²", "1٢", "1_0 2"])
    def test_labels_are_ascii_digits(self, text):
        # str.isdigit is true of '²', which int then refuses, and int reads
        # the full-width '１' and the Arabic-Indic '٢' as 1 and 2
        with pytest.raises(ParseError, match="bad token"):
            parse_flag_state(text)

    def test_flag_state_rejects_trailing_empty(self):
        with pytest.raises(ValueError):
            FlagState((1, None))

    def test_flag_from_parts_sorts_positions(self):
        assert flag_from_parts((3, 0), (2, 1)) == parse_flag_state("2--1")

    @pytest.mark.parametrize(
        "positions,labels,message",
        [
            ((), (), "must end with a label"),
            ((0, 2), (1,), "must end with a label"),
            ((0, 1), (0, 1), "labels must be positive integers"),
            ((0, 1), (2, -1), "labels must be positive integers"),
        ],
        ids=["no-positions", "too-few-labels", "zero-label", "negative-label"],
    )
    def test_flag_from_parts_is_checked(self, positions, labels, message):
        with pytest.raises(ValueError, match=message):
            flag_from_parts(positions, labels)

    @pytest.mark.parametrize(
        "positions,labels",
        [((0,), (1, 2)), ((0, 2), (1, 2, 3)), ((0,), (1, 0))],
        ids=["one-over", "one-over-of-two", "bad-label-over"],
    )
    def test_flag_from_parts_refuses_a_label_without_a_position(self, positions, labels):
        # a label past the last position has no cell, and is not dropped
        with pytest.raises(ValueError, match="more labels than positions"):
            flag_from_parts(positions, labels)

    @pytest.mark.parametrize(
        "cells",
        [(1.5, None, 2), (2.0,), (True,), (1, False), ("1",)],
        ids=["float", "integral-float", "true", "false", "text"],
    )
    def test_flag_state_refuses_a_label_that_is_not_an_int(self, cells):
        with pytest.raises(ValueError, match="labels must be positive integers"):
            FlagState(cells)
        with pytest.raises(ValueError, match="labels must be positive integers"):
            HattedState(cells, 0)

    @pytest.mark.parametrize(
        "positions",
        [(0.5, 1.5), (0, 2.0), (Fraction(0), Fraction(2)), (False, True), (0, True)],
        ids=["float", "integral-float", "fraction", "bools", "true"],
    )
    def test_juggling_state_refuses_a_position_that_is_not_an_int(self, positions):
        # unrefused, a float position gives a float stationary weight, a
        # Fraction one a word that cannot be rendered, and (False, True) a
        # state equal to xx
        with pytest.raises(ValueError, match="positions must be ints"):
            JugglingState(positions)

    @pytest.mark.parametrize(
        "positions,message",
        [
            ((0, 1.0), "positions must be ints"),
            ((False, True), "positions must be ints"),
            ((0, None), "positions must be ints"),
            ((0, 0), "positions must be strictly increasing"),
            ((-1, 1), "positions must be naturals"),
        ],
        ids=["float", "bools", "none", "repeated", "negative"],
    )
    def test_flag_from_parts_checks_its_positions(self, positions, message):
        # unchecked, a float or None position raises TypeError, and the
        # others build a state: bools as 12, a repeated position drops a
        # label, and a negative one fills a cell from the end
        with pytest.raises(ValueError, match=message):
            flag_from_parts(positions, (1, 2))


class TestEnumeration:
    def brute_states(self, balls, max_inv):
        out = set()
        top = max_inv + balls
        for combo in itertools.combinations(range(top), balls):
            s = JugglingState(combo)
            if inversions(s) <= max_inv:
                out.add(s)
        return out

    def test_states_with_inversions_complete(self):
        for b in (1, 2, 3):
            expected = self.brute_states(b, 6)
            got = {
                s for k in range(7) for s in states_with_inversions(b, k)
            }
            assert got == expected

    def test_states_with_inversions_in_gap_order(self):
        # the brute-force states of each level, sorted by gap vector
        # (position_j - j), in the same order, not only the same set
        for b in range(6):
            for k in range(11):
                expected = sorted(
                    (
                        JugglingState(combo)
                        for combo in itertools.combinations(range(k + b), b)
                        if sum(combo) - b * (b - 1) // 2 == k
                    ),
                    key=lambda s: [p - j for j, p in enumerate(s.positions)],
                )
                assert list(states_with_inversions(b, k)) == expected, (b, k)

    def test_states_with_inversions_leaves_no_cycles(self):
        # a recursive helper nested in the generator would leave one
        # function/cell cycle per call, freed only by the cyclic collector
        gc.collect()
        gc.disable()
        try:
            assert sum(1 for _ in states_with_inversions(3, 6)) == 7
            assert gc.collect() == 0
        finally:
            gc.enable()

    def brute_partitions(self, total, max_part):
        """Independent oracle: partitions of `total` with parts <= max_part."""
        if total == 0:
            return 1
        return sum(
            self.brute_partitions(total - part, part)
            for part in range(1, min(total, max_part) + 1)
        )

    def test_count_matches_partition_oracle(self):
        for b in (1, 2, 3, 4):
            for k in range(9):
                assert state_count_by_inversions(b, k) == self.brute_partitions(k, b)

    def test_flag_enumeration_counts(self):
        # distinct labels: counts are binomial(k + b - 1, b - 1)
        import math

        for b in (1, 2, 3):
            labels = tuple(range(1, b + 1))
            for k in range(7):
                count = sum(1 for _ in flag_states_with_inversions(labels, k))
                assert count == math.comb(k + b - 1, b - 1)

    @pytest.mark.parametrize(
        "labels,message",
        [
            ((0, 1), "labels must be positive integers"),
            ((2, -1), "labels must be positive integers"),
            ((), "must end with a label"),
        ],
        ids=["zero-label", "negative-label", "no-labels"],
    )
    def test_flag_enumeration_refuses_labels(self, labels, message):
        with pytest.raises(ValueError, match=message):
            list(flag_states_up_to_inversions(labels, 1))
        with pytest.raises(ValueError, match=message):
            list(flag_states_with_inversions(labels, 3))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(states_with_inversions(-1, 3)),
            lambda: list(states_up_to_inversions(-1, 3)),
            lambda: state_count_by_inversions(-1, 0),
        ],
        ids=["with-inversions", "up-to-inversions", "count"],
    )
    def test_negative_ball_count_refused(self, call):
        with pytest.raises(ValueError, match="ball count must be at least 0"):
            call()

    @pytest.mark.parametrize("labels", [(1, 2, 3), (1, 1, 2)])
    def test_flag_enumeration_order(self, labels):
        # by level, then plain inversions ascending, then plain state (in
        # gap order), then word in distinct_permutations order
        expected = [
            flag_from_parts(plain.positions, word)
            for k in range(7)
            for plain_inv in range(k + 1)
            for plain in states_with_inversions(len(labels), plain_inv)
            for word in distinct_permutations(labels)
            if word_inversions(word) == k - plain_inv
        ]
        assert list(flag_states_up_to_inversions(labels, 6)) == expected

    def test_plain_levels_listed_once_per_sweep(self, monkeypatch):
        # each plain level up to the count is listed once for the sweep; a
        # listing per flag level that reaches it would list level 0 six
        # times for labels 1,2,3 up to 5 inversions
        listed = []
        real = states_module._plain_positions
        monkeypatch.setattr(
            states_module,
            "_plain_positions",
            lambda balls, k: listed.append(k) or real(balls, k),
        )
        assert sum(1 for _ in flag_states_up_to_inversions((1, 2, 3), 5)) == 56
        assert listed == list(range(6))
        listed.clear()
        assert sum(1 for _ in flag_states_with_inversions((1, 2, 3), 5)) == 21
        assert listed == list(range(6))

    @pytest.mark.parametrize(
        "labels", [(1.5, 2), (2.0, 1), (True, 2)], ids=["float", "integral-float", "bool"]
    )
    def test_flag_enumeration_refuses_labels_that_are_not_ints(self, labels):
        with pytest.raises(ValueError, match="labels must be positive integers"):
            list(flag_states_up_to_inversions(labels, 2))

    def test_flag_enumeration_exact_inversions(self):
        for state in flag_states_with_inversions((1, 1, 2), 5):
            assert flag_inversions(state) == 5
            assert state.labels == (1, 1, 2)

    def test_distinct_permutations_keep_first_appearance_order(self, monkeypatch):
        # the reference deduplicates itertools.permutations in order of first
        # appearance; the recursion yields the same words in the same order
        # without walking all b! orders
        rng = random.Random(2)
        multisets = [
            [rng.randint(1, 4) for _ in range(rng.randint(0, 7))] for _ in range(300)
        ]
        expected = [list(dict.fromkeys(itertools.permutations(m))) for m in multisets]

        def walked(*args):
            pytest.fail("walked every order")

        monkeypatch.setattr(itertools, "permutations", walked)
        for items, words in zip(multisets, expected):
            assert list(distinct_permutations(items)) == words, items

    def test_label_words_listed_once_per_sweep(self, monkeypatch):
        # 1,1,2 has three words, listed in one table for the whole sweep; a
        # table per inversion level would be listed six times
        tables = []
        real = states_module._label_words
        monkeypatch.setattr(
            states_module,
            "_label_words",
            lambda labels, k: tables.append(real(labels, k)) or tables[-1],
        )
        assert sum(1 for _ in flag_states_up_to_inversions((1, 1, 2), 5)) == 34
        assert tables == [{0: [(1, 1, 2)], 1: [(1, 2, 1)], 2: [(2, 1, 1)]}]

    def test_label_words_stop_past_the_count(self, monkeypatch):
        # nine distinct labels at 0 inversions: one prefix of each length is
        # begun, where all 9! orders take 986,410
        prefixes = []
        real = states_module._extend_words
        monkeypatch.setattr(
            states_module,
            "_extend_words",
            lambda prefix, *rest: prefixes.append(prefix) or real(prefix, *rest),
        )
        labels = tuple(range(1, 10))
        assert states_module._label_words(labels, 0) == {0: [labels]}
        assert prefixes == [labels[:n] for n in range(10)]

    def test_label_words_are_the_distinct_words_up_to_the_count(self):
        # the words of distinct_permutations(sorted(labels)) with at most k
        # inversions, grouped by count, each group in the same order
        rng = random.Random(4)
        for _ in range(200):
            labels = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
            k = rng.randint(0, 12)
            expected = {}
            for word in distinct_permutations(sorted(labels)):
                if word_inversions(word) <= k:
                    expected.setdefault(word_inversions(word), []).append(word)
            assert states_module._label_words(labels, k) == expected, (labels, k)


    @pytest.mark.parametrize(
        "labels,max_count,count,digest",
        [
            ((1, 2, 3, 4), 5, 126, "1ed157f426e7f43c0a8a3f5f66a733184110a28e000185739ef10129adcb6217"),
            ((1, 1, 2, 3), 5, 80, "6e2100e7f8e0fb034305f5c78ebea443ee9829ae0408e3c6cfc5ec9efdbbbc57"),
            ((2, 1, 3, 1, 2), 4, 58, "65b8bcd884cda74aefe7f6ff696e9796704efda18149aed1251b73baf6d11953"),
            ((1, 2, 12), 4, 35, "02d1fdbb09168439e7e3814c255429fb8ea923e5de6b2b464eaf46224e34ee7f"),
        ],
        ids=["1234", "1123", "21312", "1-2-12"],
    )
    def test_flag_sweep_order_is_pinned(self, labels, max_count, count, digest):
        # the sweep's states, in the order the stationary-check table lists
        # them; the digests were taken from the sweep that built each level
        # from a word table and plain levels passed in from outside
        texts = [str(s) for s in flag_states_up_to_inversions(labels, max_count)]
        assert len(texts) == count
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


class TestWindowDuality:
    def test_trivial_window(self):
        # b = n: a single state on each side
        assert window_states(3, 3) == [ground_state(3)]
        assert window_dual(ground_state(3), 3) == JugglingState(())

    def test_small_windows(self):
        assert window_duality_holds(1, 2)
        assert window_duality_holds(2, 4)
        assert len(window_states(2, 4)) == 6

    def test_explicit_map(self):
        # reverse-and-switch in the (1, 3) window
        assert window_dual(parse_state("x"), 3) == parse_state("xx")
        assert window_dual(parse_state("-x"), 3) == parse_state("x-x")
        assert window_dual(parse_state("--x"), 3) == parse_state("-xx")

    def test_all_small_cases(self):
        for n in range(7):
            for b in range(n + 1):
                assert window_duality_holds(b, n), (b, n)

    def test_dual_is_involution(self):
        for state in window_states(2, 5):
            assert window_dual(window_dual(state, 5), 5) == state


# The constructors' checks as they were written before they moved onto
# C-level builtins; the constructors must reject exactly what these reject,
# with the same message.


def reference_positions_error(pos):
    if any(p < 0 for p in pos):
        return "positions must be naturals"
    if any(a >= b for a, b in zip(pos, pos[1:])):
        return "positions must be strictly increasing"
    return None


def reference_labels_error(cells):
    if any(c is not None and c <= 0 for c in cells):
        return "labels must be positive integers"
    return None


def reference_word(pos):
    if not pos:
        return ""
    return "".join("x" if p in set(pos) else "-" for p in range(pos[-1] + 1))


def error_of(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


raw_positions = st.lists(st.integers(-3, 12), max_size=6)
# sorted lists reach the repeat and negative-front cases more often
position_tuples = st.one_of(raw_positions, raw_positions.map(sorted)).map(tuple)
cell_tuples = st.lists(
    st.one_of(st.none(), st.integers(-3, 6)), max_size=6
).map(tuple)


class TestValidationMatchesReference:
    @given(position_tuples)
    @example((-1, 2))
    @example((1, -2))
    @example((0, 2, 2, 5))
    @example((3, 2))
    @example(())
    @settings(max_examples=400, deadline=None)
    def test_juggling_state(self, pos):
        expected = reference_positions_error(pos)
        assert error_of(lambda: JugglingState(pos)) == expected
        if expected is None:
            assert JugglingState(pos).word() == reference_word(pos)

    @given(cell_tuples)
    @example((None, 0, 1))
    @example((2, None, -3, 1))
    @example((1, None, 2))
    @settings(max_examples=400, deadline=None)
    def test_flag_state(self, cells):
        if not cells or cells[-1] is None:
            expected = "flag state must end with a label"
        else:
            expected = reference_labels_error(cells)
        assert error_of(lambda: FlagState(cells)) == expected

    @given(cell_tuples, st.integers(-1, 7))
    @example((0,), 0)
    @example((-1, 2), 0)
    @example((1, None, 2), 3)
    @settings(max_examples=400, deadline=None)
    def test_hatted_state(self, cells, hat):
        if not cells or cells[-1] is None:
            expected = "cells must be trimmed and end with a label"
        elif reference_labels_error(cells):
            expected = reference_labels_error(cells)
        elif not 0 <= hat <= len(cells):
            expected = "hat must sit on a cell or just past the last label"
        else:
            expected = None
        assert error_of(lambda: HattedState(cells, hat)) == expected


# One instance of each state class: plain, flag, and hatted with the hat on
# a cell and just past the last label.
LAYOUT_STATES = [
    JugglingState((0, 2, 3)),
    FlagState((2, None, 1)),
    HattedState((2, None, 1), 1),
    HattedState((2, None, 1), 3),
]
LAYOUT_IDS = ["plain", "flag", "hatted", "hatted-past-end"]


class TestClassLayout:
    """The state classes are frozen, slotted dataclasses whose unchecked
    builders write each field through its slot."""

    @pytest.mark.parametrize("state", LAYOUT_STATES, ids=LAYOUT_IDS)
    def test_no_instance_dict(self, state):
        assert not hasattr(state, "__dict__")

    @pytest.mark.parametrize("state", LAYOUT_STATES, ids=LAYOUT_IDS)
    def test_fields_are_frozen(self, state):
        for field in dataclasses.fields(state):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, field.name, getattr(state, field.name))

    @pytest.mark.parametrize("state", LAYOUT_STATES, ids=LAYOUT_IDS)
    def test_round_trips(self, state):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(state, protocol)) for protocol in protocols]
        copies += [copy.deepcopy(state), dataclasses.replace(state)]
        for twin in copies:
            assert type(twin) is type(state)
            assert twin == state and hash(twin) == hash(state)
            assert dataclasses.astuple(twin) == dataclasses.astuple(state)

    def test_unchecked_plain_equals_checked(self):
        count = 0
        for state in states_up_to_inversions(4, 6):
            built = _unchecked_state(state.positions)
            assert built == JugglingState(state.positions), state
            assert hash(built) == hash(state) and built.positions == state.positions
            count += 1
        assert count == sum(state_count_by_inversions(4, k) for k in range(7))

    def test_unchecked_flag_and_hatted_equal_checked(self):
        flags = list(flag_states_up_to_inversions((1, 1, 2, 3), 5))
        assert len(flags) == 80
        for state in flags:
            cells = state.cells
            built = _unchecked_flag(cells)
            checked = FlagState(cells)
            assert built == checked and hash(built) == hash(checked), state
            assert built.cells == cells
            for hat in range(len(cells) + 1):
                hatted = _unchecked_hatted(cells, hat)
                checked_hatted = HattedState(cells, hat)
                assert hatted == checked_hatted, (state, hat)
                assert hash(hatted) == hash(checked_hatted)
                assert (hatted.cells, hatted.hat) == (cells, hat)
