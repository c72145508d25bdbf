"""Samplers on inner states: `simulate` steps and counts each chain's inner
state and builds output states from it.  Entering and leaving must be
inverse, and a run must see, count and emit exactly the states that the
public step functions visit on the same random stream."""
import hashlib
from fractions import Fraction

import pytest

from jugglechain.chain import PLAIN, CoinConfig, backward_step, simulate
from jugglechain.flagchain import FLAG, flag_backward_step
from jugglechain.hatted import HATTED, hatted_backward_step
from jugglechain.rng import ChainRng
from jugglechain.states import (
    FlagState,
    JugglingState,
    flag_states_up_to_inversions,
    ground_state,
    states_up_to_inversions,
)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_labeled_histogram_is_pinned():
    # taken from the run that stepped and counted FlagStates one by one
    hist = simulate(
        FlagState((1, 1, 2, 3)), CoinConfig(Fraction(5, 2)), 5000, 100,
        ChainRng(7), sampler=FLAG,
    )
    assert len(hist.counts) == 308 and hist.samples == 4900
    assert all(isinstance(s, FlagState) for s, _ in hist.counts)
    assert digest(f"{s} {c}" for s, c in hist.counts) == (
        "4bc9dad2684402de4f2789bd188ad89d511fcebc4cc516cb77757b0f6fea5196"
    )


def test_hatted_stream_is_pinned():
    # every visited state in order, on repeated labels: a step that spent a
    # coin at equal labels would change the stream
    visited = []
    hist = simulate(
        FlagState((1, 1, 2, 3)), CoinConfig(Fraction(5, 2)), 5000, 100,
        ChainRng(7), visited.append, HATTED,
    )
    assert len(visited) == 5000 and len(hist.counts) == 1090
    assert digest(map(str, visited)) == (
        "93866b9c8fd8d79c49ab9ff822c766c5c331a5bad0e4ae4934ce69bc891cf634"
    )


@pytest.mark.parametrize(
    "labels, q, seed, distinct, expected",
    [
        # the benchmark's flag loop
        (
            (1, 2, 3, 4), Fraction(2), 3, 695,
            "aa1c082f89dcb092957728d3be8324b564504ecacd5c0f835457e48b8eebea72",
        ),
        # a label of two digits: states render in the long form
        (
            (1, 2, 12), Fraction(5, 2), 7, 163,
            "a88a91cd7c0a8348de4721e09079ccc2183310ca99862c815a40683fc55f0d4a",
        ),
    ],
    ids=["1234", "1-2-12"],
)
def test_flag_stream_is_pinned(labels, q, seed, distinct, expected):
    # every visited state in order, taken from the step that split the
    # cells into positions and word, moved each and filled them back
    coin, rng, state, visited = CoinConfig(q), ChainRng(seed), FlagState(labels), []
    for _ in range(5000):
        state = flag_backward_step(state, coin, rng)
        visited.append(str(state))
    assert len(set(visited)) == distinct
    assert digest(visited) == expected


@pytest.mark.parametrize(
    "sampler, step, start, q",
    [
        (PLAIN, backward_step, ground_state(4), Fraction(5, 4)),
        (FLAG, flag_backward_step, FlagState((1, 1, 2, 3)), Fraction(5, 2)),
        (HATTED, hatted_backward_step, FlagState((1, 2, 3)), Fraction(3, 2)),
    ],
    ids=["plain", "flag", "hatted"],
)
def test_run_matches_hand_run_steps(sampler, step, start, q):
    coin = CoinConfig(q)
    seen = []
    hist = simulate(start, coin, 2000, 300, ChainRng(11), seen.append, sampler)
    rng, state, expected = ChainRng(11), start, []
    for _ in range(2000):
        state = step(state, coin, rng)
        expected.append(state)
    assert seen == expected
    counts = {}
    for state in expected[300:]:
        counts[state] = counts.get(state, 0) + 1
    assert hist.as_dict() == counts
    assert [s for s, _ in hist.counts] == sorted(counts, key=str)


def test_plain_round_trip():
    for state in states_up_to_inversions(4, 6):
        out = PLAIN.leave(PLAIN.enter(state))
        assert isinstance(out, JugglingState)
        assert out == state and hash(out) == hash(state), str(state)


def test_flag_round_trip():
    for state in flag_states_up_to_inversions((1, 1, 2, 3), 5):
        cells = FLAG.enter(state)
        assert cells is state.cells
        out = FLAG.leave(cells)
        assert isinstance(out, FlagState)
        assert out == state and hash(out) == hash(state), str(state)


def test_hatted_maps_are_the_identity():
    for state in flag_states_up_to_inversions((1, 2, 3), 3):
        assert HATTED.enter(state) is state and HATTED.leave(state) is state
