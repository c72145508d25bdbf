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
        positions, word = FLAG.enter(state)
        assert sorted(word) == [1, 1, 2, 3] and len(positions) == 4
        out = FLAG.leave((positions, word))
        assert isinstance(out, FlagState)
        assert out == state and hash(out) == hash(state), str(state)


def test_hatted_maps_are_the_identity():
    for state in flag_states_up_to_inversions((1, 2, 3), 3):
        assert HATTED.enter(state) is state and HATTED.leave(state) is state
