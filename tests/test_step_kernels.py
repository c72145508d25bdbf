"""The step kernels build their successors without the constructors'
checks.  Every successor they can build must be one the public constructor
accepts, equal to its rebuilt copy with the same hash."""
from fractions import Fraction

import pytest

from jugglechain.chain import PLAIN, CoinConfig, backward_step, simulate, step_law
from jugglechain.flagchain import FLAG, flag_backward_step
from jugglechain.hatted import HATTED, HattedState, hatted_backward_dist
from jugglechain.rng import ChainRng
from jugglechain.states import (
    FlagState,
    JugglingState,
    flag_states_up_to_inversions,
    ground_state,
    states_up_to_inversions,
)

Q2 = CoinConfig(Fraction(2))


def assert_as_checked(state) -> None:
    if isinstance(state, JugglingState):
        rebuilt = JugglingState(state.positions)
    elif isinstance(state, FlagState):
        rebuilt = FlagState(state.cells)
    else:
        # the constructor refuses untrimmed cells and a hat out of range
        rebuilt = HattedState(state.cells, state.hat)
    assert rebuilt == state and hash(rebuilt) == hash(state), str(state)


@pytest.mark.parametrize("balls", range(5))
def test_plain_successors(balls):
    for state in states_up_to_inversions(balls, 6):
        for outcome in step_law(backward_step, state, Q2).support():
            assert_as_checked(outcome)


@pytest.mark.parametrize(
    "labels",
    [(1, 2, 3), (1, 1, 2), (1, 2, 3, 4)],
    ids=lambda labels: "".join(map(str, labels)),
)
def test_flag_successors(labels):
    for state in flag_states_up_to_inversions(labels, 4):
        for outcome in step_law(flag_backward_step, state, Q2).support():
            assert_as_checked(outcome)


@pytest.mark.parametrize(
    "labels",
    [(1, 2, 3), (1, 1, 2), (1, 1, 2, 2)],
    ids=lambda labels: "".join(map(str, labels)),
)
def test_hatted_successors_on_every_composed_branch(labels):
    # every state on every branch of composed_backward_dist: follow each
    # one-step outcome until it is unhatted again
    trims = 0
    for state in flag_states_up_to_inversions(labels, 5):
        frontier, seen = [state], set()
        while frontier:
            current = frontier.pop()
            for outcome in hatted_backward_dist(current, Q2).support():
                assert_as_checked(outcome)
                if isinstance(outcome, HattedState) and outcome not in seen:
                    seen.add(outcome)
                    frontier.append(outcome)
                    # an empty exchanged past the last label is trimmed
                    trims += len(outcome.cells) < len(current.cells)
    assert trims > 0


@pytest.mark.parametrize(
    "sampler, start, q",
    [
        (PLAIN, ground_state(3), Fraction(5, 4)),
        (FLAG, FlagState((1, 2, 3, 4)), Fraction(2)),
        (HATTED, FlagState((1, 1, 2, 3)), Fraction(3, 2)),
    ],
    ids=["plain", "flag", "hatted"],
)
def test_seeded_trajectories(sampler, start, q):
    visited = []
    simulate(start, CoinConfig(q), 2000, 0, ChainRng(13), visited.append, sampler)
    assert len(visited) == 2000
    for state in visited:
        assert_as_checked(state)
