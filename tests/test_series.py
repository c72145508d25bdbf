import hashlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jugglechain.errors as errors
import jugglechain.series as series
import jugglechain.states as states_module
from jugglechain.errors import ResourceLimit
from jugglechain.series import (
    TruncSeries,
    _factorial_ratio,
    bundle_factorization_holds,
    check_enumeration_budget,
    check_state_budget,
    flag_series,
    flag_series_enumerated,
    grassmannian_series_closed,
    grassmannian_series_enumerated,
    perm_inversion_series,
    perm_series_closed,
    sn,
    state_partition_series,
    state_partition_series_enumerated,
)
from jugglechain.states import (
    _label_words,
    flag_states_up_to_inversions,
    flag_states_with_inversions,
    state_count_by_inversions,
)


class TestTruncSeries:
    def test_refuses_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            TruncSeries((Fraction(1, 2),))

    def test_evaluate(self):
        s = TruncSeries((1, 2, 3))
        assert s.evaluate(Fraction(1, 2)) == Fraction(11, 4)


def schoolbook_mul(a, b):
    """Truncated product by Fraction loops: the reference for `*`."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return tuple(out)


def schoolbook_inverse(a):
    """Inverse by Fraction loops: the reference for division."""
    inv = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        acc = sum((a[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
        inv.append(-acc / a[0])
    return tuple(inv)


def one_minus_x_to(i, degree):
    """The series 1 - x^i truncated at x^degree."""
    return tuple(1 if k == 0 else -1 if k == i else 0 for k in range(degree + 1))


def factorial_ratio_reference(tops, bottoms, degree):
    """prod (x;x)_n / prod (x;x)_m by Fraction loops: every factor 1 - x^i
    of the tops multiplied in, and the `schoolbook_inverse` of every factor
    of the bottoms."""
    out = (Fraction(1),) + (Fraction(0),) * degree
    for n in tops:
        for i in range(1, n + 1):
            out = schoolbook_mul(out, one_minus_x_to(i, degree))
    for m in bottoms:
        for i in range(1, m + 1):
            out = schoolbook_mul(out, schoolbook_inverse(one_minus_x_to(i, degree)))
    return out


coefficient = st.integers(-40, 40)
series_pair = st.integers(0, 12).flatmap(
    lambda d: st.tuples(*[st.tuples(*[coefficient] * (d + 1))] * 2)
)
factorials = st.lists(st.integers(0, 14), max_size=3)


class TestIntegerArithmetic:
    @given(series_pair)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_loops(self, pair):
        a, b = pair
        product = TruncSeries(a) * TruncSeries(b)
        assert product.coeffs == schoolbook_mul(a, b)
        assert all(type(c) is int for c in product.coeffs)

    @given(factorials, factorials, st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_factorial_ratio_matches_fraction_loops(self, tops, bottoms, degree):
        ratio = _factorial_ratio(tops, bottoms, degree)
        assert ratio.coeffs == factorial_ratio_reference(tops, bottoms, degree)
        assert all(type(c) is int for c in ratio.coeffs)


class TestSn:
    def test_empty_product(self):
        assert sn(0, Fraction(5)) == 1

    def test_single(self):
        assert sn(1, Fraction(2)) == Fraction(1, 2)

    def test_two(self):
        assert sn(2, Fraction(2)) == Fraction(3, 8)

    def test_series_matches_exact_value(self):
        # the polynomial truncation evaluated at x = 1/q equals sn once the
        # degree passes 1 + 2 + ... + n
        q = Fraction(3)
        assert _factorial_ratio([4], (), 12).evaluate(1 / q) == sn(4, q)


class TestStatePartition:
    def test_one_ball(self):
        series = state_partition_series(1, 8)
        assert all(series[k] == 1 for k in range(9))
        assert all(state_count_by_inversions(1, k) == 1 for k in range(9))

    def test_two_ball_coefficients(self):
        series = state_partition_series(2, 4)
        assert [series[k] for k in range(5)] == [1, 1, 2, 2, 3]

    def test_three_ball_count(self):
        assert state_count_by_inversions(3, 3) == 3

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_enumeration_matches_closed_form(self, b):
        assert state_partition_series(b, 24) == state_partition_series_enumerated(
            b, 24
        )

    @pytest.mark.parametrize("degree", [0, 6])
    def test_enumeration_refuses_negative_ball_count(self, degree):
        with pytest.raises(ValueError, match="ball count must be at least 0"):
            state_partition_series_enumerated(-1, degree)


class TestFlagSeries:
    def test_one_label(self):
        series = flag_series(1, 10)
        assert all(series[k] == 1 for k in range(11))

    def test_degree_one_coefficient(self):
        assert flag_series(2, 4)[1] == 2
        states = {str(s) for s in flag_states_with_inversions((1, 2), 1)}
        assert states == {"21", "1-2"}

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_identity(self, b):
        assert flag_series(b, 24) == flag_series_enumerated(b, 24)

    def test_every_enumerated_series_is_its_closed_form(self):
        # no balls make one state, the empty one, plain or labeled
        for b in range(7):
            assert state_partition_series_enumerated(b, 8) == state_partition_series(b, 8)
            assert flag_series_enumerated(b, 8) == flag_series(b, 8)

    def test_identity_below_the_longest_word(self):
        # four labels have words of up to 6 inversions, so a label-word table
        # listed only up to the degree must still reach the degree itself
        for degree in range(8):
            assert flag_series(4, degree) == flag_series_enumerated(4, degree)


    def test_enumerated_coefficients_are_pinned(self):
        # (1 - x)^-4 up to x^16 is C(k + 3, 3); the digest pins the same
        # integers as the enumeration counts them, level by level
        coeffs = flag_series_enumerated(4, 16).coeffs
        assert coeffs[16] == 969
        digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
        assert digest == "30c0b4bc0e2752e0f48cbb708eb45c41d815b5a3baf20ec85a32cee33b1e078c"

class TestEnumerationBudget:
    @pytest.mark.parametrize(
        "labels,k",
        [((1, 2, 3), 5), ((1, 1, 2), 4), ((1, 1, 2, 2), 6), ((1, 1, 1, 2, 3), 7),
         ((2, 2, 2), 3), ((1, 2, 3, 4), 2)],
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_state_budget_counts_the_flag_states(self, monkeypatch, labels, k):
        # the closed form counts the flag states of the multiset exactly, and
        # its words up to k inversions never outnumber them
        sizes = [labels.count(v) for v in sorted(set(labels))]
        states = sum(1 for _ in flag_states_up_to_inversions(labels, k))
        assert sum(map(len, _label_words(labels, k).values())) <= states
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states)
        check_state_budget(sizes, k, "flag state")
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", states - 1)
        with pytest.raises(ResourceLimit, match="^flag state enumeration"):
            check_state_budget(sizes, k, "flag state")

    def test_count_table_stops_at_the_budget(self, monkeypatch):
        # a ball puts a state on every level, so a degree past the budget
        # is refused from a table of budget + 1 terms; no balls make one
        # state at any degree
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", 1000)
        with pytest.raises(ResourceLimit, match="^state enumeration"):
            check_state_budget([1], 10**12, "state")
        check_state_budget([], 10**12, "state")

    @pytest.mark.parametrize("sizes,what", [([0], "state"), ([], "flag state")])
    def test_no_ball_builds_no_count_table(self, sizes, what):
        # one state at any degree: no table of budget + 1 terms (16 MB) is
        # built to count it
        tracemalloc.start()
        try:
            check_state_budget(sizes, 10**12, what)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_refused_at_the_first_factor_over_the_budget(self):
        # labels 1..6 up to 40 inversions make 9,366,819 flag states, so
        # the guard reads no seventh size
        def sizes():
            yield from [1] * 6
            pytest.fail("read a size past the refusal")

        with pytest.raises(ResourceLimit, match="^flag state enumeration"):
            check_state_budget(sizes(), 40, "flag state")

    def test_flag_series_refused_before_listing_words(self, monkeypatch):
        def never(*args):
            pytest.fail("listed label words before refusing the sweep")

        monkeypatch.setattr(states_module, "_label_words", never)
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", 10)
        with pytest.raises(ResourceLimit, match="^flag state enumeration"):
            flag_series_enumerated(8, 12)

    @pytest.mark.parametrize(
        "enumerated,closed",
        [
            (state_partition_series_enumerated, state_partition_series),
            (flag_series_enumerated, flag_series),
        ],
        ids=["state", "flag"],
    )
    def test_budget_is_exact(self, monkeypatch, enumerated, closed):
        total = sum(closed(3, 10).coeffs)
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", total)
        assert enumerated(3, 10) == closed(3, 10)
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", total - 1)
        with pytest.raises(ResourceLimit):
            enumerated(3, 10)

    def test_oversized_sweep_refused_before_enumerating(self, monkeypatch):
        def never(*args):
            pytest.fail("enumerated while checking the budget")

        monkeypatch.setattr(states_module, "_label_words", never)
        monkeypatch.setattr(series, "state_count_by_inversions", never)
        check_enumeration_budget(5, 40)  # 17,338 states, 1,221,759 flag states
        with pytest.raises(ResourceLimit, match="^flag state enumeration"):
            check_enumeration_budget(6, 40)  # 9,366,819 flag states
        monkeypatch.setattr(errors, "ENUMERATION_BUDGET", 90_000)
        with pytest.raises(ResourceLimit, match="^state enumeration"):
            check_enumeration_budget(9, 40)  # 94,760 states


class TestPoincare:
    def test_s2(self):
        assert [perm_inversion_series(2, 3)[k] for k in range(4)] == [1, 1, 0, 0]

    def test_s3(self):
        assert [perm_inversion_series(3, 4)[k] for k in range(5)] == [1, 2, 2, 1, 0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_perm_closed_form(self, n):
        assert perm_inversion_series(n, 24) == perm_series_closed(n, 24)

    def test_truncated_below_the_top_degree(self):
        # degree 3 cuts S_4 and the 2-subspaces of a 5-space (top degree 6
        # each) mid-way: the enumeration keeps the items at degree exactly 3
        assert perm_inversion_series(4, 3)[3] == 6
        assert perm_inversion_series(4, 3) == perm_series_closed(4, 3)
        assert grassmannian_series_enumerated(2, 5, 3) == grassmannian_series_closed(
            2, 5, 3
        )

    def test_small_grassmannian(self):
        series = grassmannian_series_closed(1, 2, 6)
        assert [series[k] for k in range(3)] == [1, 1, 0]

    @pytest.mark.parametrize("h", range(1, 9))
    def test_grassmannian_closed_form(self, h):
        for j in range(h + 1):
            assert grassmannian_series_closed(
                j, h, 24
            ) == grassmannian_series_enumerated(j, h, 24)


class TestBundle:
    @pytest.mark.parametrize("b", [1, 2, 4, 6])
    def test_factorization(self, b):
        assert bundle_factorization_holds(b, 24)


class TestPartitionSum:
    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3)], ids=str)
    @pytest.mark.parametrize("degree", [4, 8, 12])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_partial_sum_is_the_truncated_series(self, b, degree, q):
        # the states with at most `degree` inversions, weighted q^-inv, sum
        # to the truncated partition series at 1/q, short of 1/sn by the
        # weight of the states above `degree`
        partial = sum(
            state_count_by_inversions(b, k) * q**-k for k in range(degree + 1)
        )
        assert partial == state_partition_series(b, degree).evaluate(1 / q)
        assert partial < 1 / sn(b, q)
