"""The exact one-step laws are built on inner states, as integer numerators
over one denominator, which the law holds as they are.  Each must equal
the law `step_law` enumerates from its sampler and its own rebuild from
its entries by the public constructor, and hold states the public
constructors accept."""
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from jugglechain.chain import (
    CoinConfig,
    TransitionDist,
    backward_dist,
    backward_step,
    step_law,
)
from jugglechain.flagchain import flag_backward_dist, flag_backward_step
from jugglechain.fqoracle import (
    column_prepend_dist,
    enumerate_matrices,
    flag_column_prepend_dist,
    flag_pivot_state,
    pivot_state,
)
from jugglechain.hatted import composed_backward_dist, hatted_backward_step
from jugglechain.states import (
    FlagState,
    JugglingState,
    flag_states_up_to_inversions,
    states_up_to_inversions,
)

QS = [Fraction(2), Fraction(5, 2), Fraction(7, 4), Fraction(3)]
PLAIN_STATES = [s for b in range(5) for s in states_up_to_inversions(b, 8)]
FLAG_LABELS = [(1, 2, 3), (1, 1, 2), (1, 1, 2, 2), (1, 2, 3, 4)]
FLAG_STATES = {
    labels: list(flag_states_up_to_inversions(labels, 5)) for labels in FLAG_LABELS
}


def label_ids(labels):
    return "".join(map(str, labels))


def assert_checked(law: TransitionDist, reference: TransitionDist) -> None:
    assert law == reference
    assert TransitionDist(law.entries) == law
    for state, p in law.entries:
        if isinstance(state, JugglingState):
            rebuilt = JugglingState(state.positions)
        else:
            rebuilt = FlagState(state.cells)
        assert rebuilt == state and hash(rebuilt) == hash(state), str(state)
        assert type(p) is Fraction


def until_unhatted(state, coin, rng):
    """The composed steps, run one flip sequence at a time: exactly
    len(cells) + 2 hatted steps from an unhatted state."""
    for _ in range(len(state.cells) + 2):
        state = hatted_backward_step(state, coin, rng)
    assert isinstance(state, FlagState)
    return state


@pytest.mark.parametrize("q", QS, ids=str)
def test_plain_law(q):
    coin = CoinConfig(q)
    assert len(PLAIN_STATES) == 1 + 9 + 25 + 41 + 53  # b = 0..4
    for state in PLAIN_STATES:
        assert_checked(backward_dist(state, coin), step_law(backward_step, state, coin))


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("labels", FLAG_LABELS, ids=label_ids)
def test_flag_law(labels, q):
    coin = CoinConfig(q)
    for state in FLAG_STATES[labels]:
        assert_checked(
            flag_backward_dist(state, coin), step_law(flag_backward_step, state, coin)
        )


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("labels", FLAG_LABELS, ids=label_ids)
def test_composed_law(labels, q):
    coin = CoinConfig(q)
    for state in FLAG_STATES[labels]:
        assert_checked(
            composed_backward_dist(state, coin), step_law(until_unhatted, state, coin)
        )


@pytest.mark.parametrize("b,w,p", [(1, 3, 3), (2, 3, 2), (2, 2, 3), (3, 3, 2)])
def test_prepend_laws(b, w, p):
    # every full-rank matrix of the shape; prepending each of the p^b
    # columns one by one, every state built checked, is the reference
    for matrix in enumerate_matrices(b, w, p):
        if pivot_state(matrix) is None:
            continue
        for law, key in [
            (column_prepend_dist, pivot_state),
            (flag_column_prepend_dist, flag_pivot_state),
        ]:
            counts = Counter(
                key(matrix.prepend_column(col))
                for col in itertools.product(range(p), repeat=b)
            )
            reference = TransitionDist(
                tuple((s, Fraction(c, p**b)) for s, c in counts.items())
            )
            assert_checked(law(matrix), reference)
