"""Golden values for the coin stream.

Every pinned-seed Monte-Carlo result in the suite and every CLI `simulate`
table depends on the exact sequence of `ChainRng` draws, so these values
pin it: a change to how a flip is drawn must reproduce them bit for bit.
"""
import hashlib
import math
import random
from fractions import Fraction

import pytest

from jugglechain.chain import CoinConfig, simulate
from jugglechain.flagchain import flag_backward_step
from jugglechain.hatted import hatted_backward_step
from jugglechain.rng import ChainRng
from jugglechain.states import FlagState, ground_state

FLIPS_2024 = {
    Fraction(1, 2): (
        "0101001000100110110100011000010000101111100010110011001000001101"
        "1111101011101000001100010101101100101111111110111111110110111111"
        "1010000010001110011001101101100100100111011110000100000111100111"
        "0101101110100111110001100001000011010000101001001001110001001001"
    ),
    Fraction(4, 5): (
        "1101111011110011010111101111111111111111101111111101010110111111"
        "1101110111111101111111111111101101111111101011111101111001111101"
        "1010111011110100010101011111111001011111111111011011111111111111"
        "0111010101111010111011111111111111101111111101111111100110011101"
    ),
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("p", list(FLIPS_2024), ids=str)
def test_first_256_flips(p):
    rng = ChainRng(2024)
    assert "".join("1" if rng.heads(p) else "0" for _ in range(256)) == FLIPS_2024[p]


def test_simulate_counts():
    hist = simulate(ground_state(3), CoinConfig(Fraction(5, 4)), 5000, 100, ChainRng(7))
    assert len(hist.counts) == 782
    assert sum(c for _, c in hist.counts) == 4900
    counts = hist.as_dict()
    assert counts[ground_state(3)] == 138
    assert digest(f"{s} {c}" for s, c in hist.counts) == (
        "63b5028f8ef960fc23d65773ba358f7351ba37ac39a5dda56e233d17337364f2"
    )


@pytest.mark.parametrize(
    "step, head, last, expected",
    [
        (
            flag_backward_step,
            ["123", "1-23", "1--23", "31--2", "13---2", "213", "-213", "--213"],
            "231",
            "eb9eb4d8f8317c2389fcdca0d30762ce72093d55b744f02c7bfd6bed0099db9b",
        ),
        (
            hatted_backward_step,
            ["1 2 3 -^", "1 2 3^", "1 2^ 3", "1^ 2 3", "123", "1 2 3 -^"],
            "2 3 - - - - 1 -^",
            "b0810bef9921cdf7d720e0a4ba4e3be743af9f964ca8ebea9a20fe3a81c70820",
        ),
    ],
    ids=["flag", "hatted"],
)
def test_200_labeled_steps(step, head, last, expected):
    coin = CoinConfig(2)
    rng = ChainRng(11)
    state = FlagState((1, 2, 3))
    trajectory = []
    for _ in range(200):
        state = step(state, coin, rng)
        trajectory.append(str(state))
    assert trajectory[: len(head)] == head
    assert trajectory[-1] == last
    assert digest(trajectory) == expected


@pytest.mark.parametrize("p", [Fraction(5, 4), Fraction(-1, 2), 2], ids=str)
def test_heads_rejects_out_of_range(p):
    with pytest.raises(ValueError, match="probability out of range"):
        ChainRng(0).heads(p)


@pytest.mark.parametrize(
    "p, flips",
    [(0, "0" * 16), (1, "1" * 16), (0.5, "1100110011000111")],
    ids=str,
)
def test_heads_accepts_int_and_float(p, flips):
    rng = ChainRng(3)
    assert "".join("1" if rng.heads(p) else "0" for _ in range(16)) == flips


def test_coin_equality_and_hash_see_q_alone():
    a, b = CoinConfig(2), CoinConfig(Fraction(4, 2))
    assert a.heads_probability == Fraction(1, 2)
    assert a == b and hash(a) == hash(b)
    assert b.heads_probability == Fraction(1, 2)
    assert a == b and hash(a) == hash(b)  # still equal once both are cached


# denominators of one bit (d = 1 still draws one), a few bits, one below,
# at and above a 64-bit word; each numerator keeps its Fraction in lowest terms
STREAM_DENOMINATORS = [1, 2, 3, 5, 8, 2**61 - 1, 2**64, 2**70 + 1]
OUT_OF_RANGE = [Fraction(5, 4), Fraction(-1, 2), 2, -1, 1.5]


def stream_probabilities():
    """Probability objects over every stream denominator, 0 and 1 included,
    as Fractions, ints and floats."""
    out = [0, 1, 0.0, 1.0, 0.5, 0.375, Fraction(0), Fraction(1)]
    for d in STREAM_DENOMINATORS:
        for n in sorted({1, d // 3, d // 2, d - 1}):
            if 0 < n < d and math.gcd(n, d) == 1:
                out.append(Fraction(n, d))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_heads_is_the_randrange_stream(seed):
    # ChainRng's k-bit rejection loop against randrange(d) < n, draw by
    # draw; the probability objects change between draws (runs of one to
    # three) so the remembered one is replaced often, and every third
    # draw passes an equal but distinct Fraction
    rng, reference = ChainRng(seed), random.Random(seed)
    schedule = random.Random(f"schedule/{seed}")
    probabilities = stream_probabilities()
    assert {Fraction(p).denominator for p in probabilities} >= set(STREAM_DENOMINATORS)
    draws = 0
    for _ in range(300):
        p = schedule.choice(probabilities)
        exact = Fraction(p)
        for _ in range(schedule.randint(1, 3)):
            if draws % 3 == 2 and isinstance(p, Fraction):
                p = Fraction(p.numerator, p.denominator)  # not the same object
            expected = reference.randrange(exact.denominator) < exact.numerator
            assert rng.heads(p) == expected, (draws, p)
            draws += 1
        if schedule.random() < 0.1:
            # refused before anything is drawn or remembered, so refused again
            bad = schedule.choice(OUT_OF_RANGE)
            for _ in range(2):
                with pytest.raises(ValueError, match="probability out of range"):
                    rng.heads(bad)
            expected = reference.randrange(exact.denominator) < exact.numerator
            assert rng.heads(p) == expected, (draws, p)
            draws += 1
    assert rng.heads(Fraction(1, 2)) == (reference.randrange(2) < 1)
    assert rng._rng.getstate() == reference.getstate()
