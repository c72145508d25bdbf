import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from jugglechain.chain import CoinConfig, TransitionDist, backward_dist
from jugglechain.errors import ResourceLimit
from jugglechain.flagchain import flag_backward_dist, group_prefactor
from jugglechain.fqoracle import (
    FqMatrix,
    _leading_columns,
    _prepend_counts,
    _sweep_counts,
    column_prepend_dist,
    coarse_flag_pivot_state,
    enumerate_matrices,
    flag_column_prepend_dist,
    flag_fraction_sweep,
    flag_pivot_state,
    formula_flag_fraction,
    formula_group_fraction,
    formula_pivot_fraction,
    gl_order,
    group_fraction_sweep,
    matrix_for_state,
    partial_permutation_matrix,
    pivot_fraction_sweep,
    pivot_state,
)
from jugglechain.states import (
    FlagState,
    JugglingState,
    erase_labels,
    flag_inversions,
    ground_state,
    inversions,
    parse_flag_state,
    parse_state,
    trim_cells,
)


def span_rank(rows, p):
    """Rank over Z/p from the size of the span, found by summing every
    combination of the rows: p^rank vectors, no elimination."""
    span = {
        tuple(sum(c * e for c, e in zip(coeffs, col)) % p for col in zip(*rows))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }
    return next(r for r in range(len(rows) + 1) if p**r == len(span))


def rank_jump_states(matrix):
    """(pivot state, flag pivot state) read off the northwest ranks
    r[i][j] of every top-i by left-j submatrix: a pivot wherever r[b][.]
    grows, label i wherever r[i][.] - r[i-1][.] grows."""
    b, n, p = matrix.height, matrix.width, matrix.p
    r = [
        [span_rank([row[:j] for row in matrix.rows[:i]], p) for j in range(n + 1)]
        for i in range(b + 1)
    ]
    if r[b][n] < b:
        return None, None
    plain = JugglingState(tuple(j for j in range(n) if r[b][j + 1] > r[b][j]))
    cells = [None] * n
    for i in range(1, b + 1):
        for j in range(n):
            if r[i][j + 1] - r[i - 1][j + 1] > r[i][j] - r[i - 1][j]:
                cells[j] = i
    return plain, FlagState(trim_cells(cells))


class TestPivotState:
    def test_identity(self):
        m = FqMatrix(2, ((1, 0), (0, 1)))
        assert pivot_state(m) == ground_state(2)

    def test_leading_zero_column(self):
        assert pivot_state(FqMatrix(2, ((0, 1, 1),))) == parse_state("-x")

    def test_rank_deficient(self):
        assert pivot_state(FqMatrix(2, ((1, 1), (1, 1)))) is None

    def test_matrix_for_state_round_trip(self):
        state = parse_state("--xx-x")
        assert pivot_state(matrix_for_state(state, 6, 2)) == state


class TestFlagPivotState:
    def test_partial_permutation_fixed_point(self):
        state = parse_flag_state("2-13")
        m = partial_permutation_matrix(state, 5, 2)
        assert flag_pivot_state(m) == state

    def test_small_matrix(self):
        # ((1,1),(1,0)) row-reduces to the identity under downward
        # operations, so both labels sit in order
        m = FqMatrix(2, ((1, 1), (1, 0)))
        assert flag_pivot_state(m) == parse_flag_state("12")

    def test_antidiagonal(self):
        m = FqMatrix(2, ((0, 1), (1, 0)))
        assert flag_pivot_state(m) == parse_flag_state("21")

    def test_rank_deficient(self):
        assert flag_pivot_state(FqMatrix(3, ((1, 2), (2, 4)))) is None

    def test_erasure_recovers_pivot_state(self):
        for m in enumerate_matrices(2, 3, 2):
            flag = flag_pivot_state(m)
            plain = pivot_state(m)
            if flag is None:
                assert plain is None
            else:
                assert erase_labels(flag) == plain

    def test_invariant_under_allowed_operations(self):
        rng = random.Random(20240)
        for _ in range(200):
            p = rng.choice((2, 3))
            rows = [
                [rng.randrange(p) for _ in range(4)] for _ in range(2)
            ]
            m = FqMatrix(p, tuple(tuple(r) for r in rows))
            before = flag_pivot_state(m)
            mutated = [list(r) for r in m.rows]
            if rng.random() < 0.5:
                # downward row operation: add a multiple of a row to a
                # lower one (or scale a row)
                i = rng.randrange(2)
                scale = rng.randrange(1, p)
                if i == 0 and rng.random() < 0.7:
                    lam = rng.randrange(p)
                    mutated[1] = [
                        (a + lam * b) % p for a, b in zip(mutated[1], mutated[0])
                    ]
                else:
                    mutated[i] = [(scale * a) % p for a in mutated[i]]
            else:
                # rightward column operation
                src = rng.randrange(3)
                dst = rng.randrange(src + 1, 4)
                lam = rng.randrange(p)
                for row in mutated:
                    row[dst] = (row[dst] + lam * row[src]) % p
            after = flag_pivot_state(FqMatrix(p, tuple(tuple(r) for r in mutated)))
            assert before == after


class TestRankJumpReference:
    @pytest.mark.parametrize("b,n,p", [(2, 3, 2), (3, 3, 2), (2, 3, 3)])
    def test_every_matrix(self, b, n, p):
        labels = (2,) + (1,) * (b - 1)  # row i takes the i-th smallest
        ordered = sorted(labels)
        for m in enumerate_matrices(b, n, p):
            plain, flag = rank_jump_states(m)
            assert pivot_state(m) == plain
            assert flag_pivot_state(m) == flag
            coarse = coarse_flag_pivot_state(m, labels)
            if flag is None:
                assert coarse is None
            else:
                assert coarse == FlagState(
                    tuple(None if c is None else ordered[c - 1] for c in flag.cells)
                )


class TestGlOrder:
    def test_trivial(self):
        assert gl_order(1, 2) == 1

    @pytest.mark.parametrize("p,expected", [(2, 6), (3, 48)])
    def test_brute_force_two_by_two(self, p, expected):
        count = sum(
            1
            for m in enumerate_matrices(2, 2, p)
            if pivot_state(m) == ground_state(2)
        )
        assert count == expected == gl_order(2, p)


class TestFractions:
    def test_one_ball_fractions(self):
        sweep = pivot_fraction_sweep(1, 2, 2)
        assert sweep.get(parse_state("-x"), Fraction(0)) == Fraction(1, 4)
        assert sweep.get(parse_state("x"), Fraction(0)) == Fraction(1, 2)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("b", [1, 2])
    def test_formula_and_width_independence(self, b, p):
        sweeps = {n: pivot_fraction_sweep(b, n, p) for n in (3, 4)}
        for n, sweep in sweeps.items():
            for state, fraction in sweep.items():
                if state is None:
                    continue
                assert fraction == formula_pivot_fraction(b, p, state)
        # same fraction at both widths for targets fitting the narrower one
        for state, fraction in sweeps[3].items():
            if state is not None:
                assert sweeps[4][state] == fraction

    def test_total_mass(self):
        sweep = pivot_fraction_sweep(2, 3, 2)
        assert sum(sweep.values()) == 1

    def test_rank_deficiency_shrinks_with_width(self):
        narrow = pivot_fraction_sweep(2, 3, 2)[None]
        wide = pivot_fraction_sweep(2, 4, 2)[None]
        assert wide < narrow

    def test_flag_fraction_example(self):
        sweep = flag_fraction_sweep(2, 3, 2)
        assert sweep.get(parse_flag_state("21"), Fraction(0)) == Fraction(1, 8)

    def test_one_row_flag_equals_plain(self):
        flag = flag_fraction_sweep(1, 3, 2)
        plain = pivot_fraction_sweep(1, 3, 2)
        assert {
            None if s is None else erase_labels(s): f for s, f in flag.items()
        } == plain

    def test_flag_formula(self):
        sweep = flag_fraction_sweep(2, 3, 3)
        for state, fraction in sweep.items():
            if state is not None:
                assert fraction == formula_flag_fraction(2, 3, state)
        assert sum(sweep.values()) == 1

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            pivot_fraction_sweep(3, 8, 5)  # 5^24 matrices


class TestFormulaIntegers:
    """Each formula, one `Fraction` of integers, against the expression it
    replaced, on every state of the sweeps the acceptance criteria and the
    benchmark run."""

    @pytest.mark.parametrize(
        "b,w,p",
        [(b, n, p) for p in (2, 3) for b in (1, 2) for n in (3, 4)] + [(3, 3, 2)],
    )
    def test_pivot(self, b, w, p):
        for state in filter(None, pivot_fraction_sweep(b, w, p)):
            assert formula_pivot_fraction(b, p, state) == (
                Fraction(gl_order(b, p), p ** (b * b)) / p ** inversions(state)
            )

    @pytest.mark.parametrize("b,w,p", [(3, 3, 2), (1, 4, 3), (2, 3, 3), (2, 3, 2)])
    def test_flag(self, b, w, p):
        for state in filter(None, flag_fraction_sweep(b, w, p)):
            assert formula_flag_fraction(b, p, state) == (
                Fraction(p - 1, p) ** b / p ** flag_inversions(state)
            )

    @pytest.mark.parametrize(
        "labels,w,p",
        [((1, 1, 2), 3, 2), ((1, 1), 3, 3), ((1, 2), 3, 2), ((2, 1, 1), 3, 3)],
    )
    def test_group(self, labels, w, p):
        for state in filter(None, group_fraction_sweep(labels, w, p)):
            assert formula_group_fraction(labels, p, state) == (
                group_prefactor(labels, Fraction(p)) / p ** flag_inversions(state)
            )


class TestGroupCoarsening:
    def test_single_group_reduces_to_plain(self):
        sweep = group_fraction_sweep((1, 1), 3, 2)
        plain = pivot_fraction_sweep(2, 3, 2)
        for state, fraction in sweep.items():
            if state is None:
                continue
            assert fraction == plain[erase_labels(state)]

    def test_all_singletons_reduce_to_flag(self):
        assert group_fraction_sweep((1, 2), 3, 2) == flag_fraction_sweep(2, 3, 2)

    def test_repeated_pair_example(self):
        sweep = group_fraction_sweep((1, 1), 3, 2)
        assert sweep[parse_flag_state("11")] == Fraction(3, 8)

    def test_formula(self):
        for labels in [(1, 1), (1, 2)]:
            sweep = group_fraction_sweep(labels, 3, 2)
            for state, fraction in sweep.items():
                if state is not None:
                    assert fraction == formula_group_fraction(labels, 2, state)

    def test_three_rows_with_repeats(self):
        sweep = group_fraction_sweep((1, 1, 2), 3, 2)
        for state, fraction in sweep.items():
            if state is not None:
                assert fraction == formula_group_fraction((1, 1, 2), 2, state)

    def test_coarse_state_labels(self):
        m = partial_permutation_matrix(parse_flag_state("213"), 4, 2)
        coarse = coarse_flag_pivot_state(m, (1, 1, 2))
        assert coarse == parse_flag_state("112")

    @pytest.mark.parametrize(
        "rows", [((1, 0), (0, 1)), ((0, 0), (1, 0))], ids=["full-rank", "rank-deficient"]
    )
    def test_coarse_state_refuses_wrong_label_count(self, rows):
        # the label count is checked before the rank: a rank-deficient
        # matrix is refused too, not mapped to None
        with pytest.raises(ValueError, match="label multiset size"):
            coarse_flag_pivot_state(FqMatrix(2, rows), [1, 2, 3])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: group_fraction_sweep((0, 1), 1, 2),
            lambda: group_fraction_sweep((-1, 2), 2, 2),
            lambda: coarse_flag_pivot_state(FqMatrix(2, ((0, 0), (0, 0))), (0, 1)),
            lambda: coarse_flag_pivot_state(FqMatrix(2, ((1, 0), (0, 1))), (0, 1)),
        ],
        ids=[
            "sweep-rank-deficient", "sweep", "state-rank-deficient", "state-full-rank"
        ],
    )
    def test_refuses_non_positive_labels_whatever_the_rank(self, call):
        # a sweep of only rank-deficient matrices, and a rank-deficient
        # matrix, build no state, and are refused all the same
        with pytest.raises(ValueError, match="labels must be positive integers"):
            call()

    @pytest.mark.parametrize(
        "labels", [(1.5, 2), (2.0, 1), (True, 2)], ids=["float", "integral-float", "bool"]
    )
    def test_refuses_labels_that_are_not_ints(self, labels):
        # a non-integer label would otherwise label the swept states
        with pytest.raises(ValueError, match="labels must be positive integers"):
            group_fraction_sweep(labels, 2, 2)


class TestColumnPrepend:
    def test_one_ball(self):
        m = FqMatrix(2, ((1,),))
        dist = column_prepend_dist(m)
        assert dist.probability(parse_state("x")) == Fraction(1, 2)
        assert dist.probability(parse_state("-x")) == Fraction(1, 2)
        # the labeled law of one row puts the same weights on "1" and "-1",
        # and a plain law never equals a labeled one, though the inner keys
        # overlap at (1,): "-x" in one and "1" in the other
        flag = flag_column_prepend_dist(m)
        assert flag.probability(parse_flag_state("1")) == Fraction(1, 2)
        assert flag.probability(parse_flag_state("-1")) == Fraction(1, 2)
        assert dist != flag and flag != dist
        assert dist.probability(parse_flag_state("1")) == Fraction(0)
        assert flag.probability(parse_state("-x")) == Fraction(0)

    def test_worked_example_via_matrix(self):
        m = matrix_for_state(parse_state("--xx-x"), 6, 2)
        dist = column_prepend_dist(m)
        expected = backward_dist(parse_state("--xx-x"), CoinConfig(Fraction(2)))
        assert dist == expected

    def test_requires_full_rank(self):
        with pytest.raises(ValueError):
            column_prepend_dist(FqMatrix(2, ((0, 0), (0, 1))))

    # (height, width) of the shapes checked whole; p = 5 weights a column-0
    # subtree by p - 1 = 4, the largest weight
    EVERYWHERE = {2: [(2, 3)], 3: [(2, 3)], 5: [(2, 2), (1, 4)]}

    @pytest.mark.parametrize("p", sorted(EVERYWHERE))
    def test_matches_chains_everywhere(self, p):
        coin = CoinConfig(Fraction(p))
        for b, w in self.EVERYWHERE[p]:
            checked = 0
            for m in enumerate_matrices(b, w, p):
                plain = pivot_state(m)
                if plain is None:
                    continue
                checked += 1
                assert column_prepend_dist(m) == backward_dist(plain, coin)
                assert flag_column_prepend_dist(m) == flag_backward_dist(
                    flag_pivot_state(m), coin
                )
            assert checked > 0


# every (b, w, p) with at most 5,000 matrices, empty shapes included
REFERENCE_SIZES = [
    (b, w, p)
    for p in (2, 3, 5)
    for b in range(5)
    for w in range(7)
    if p ** (b * w) <= 5000
]


def label_multisets(b):
    """Distinct and repeated labels, unsorted ones among them."""
    return sorted(
        {tuple(range(1, b + 1)), (1,) * b, (2,) + (1,) * (b - 1), (1,) + (2,) * (b - 1)}
    )


def reference_counts(key, b, w, p):
    """Matrix counts by key(matrix), one matrix at a time."""
    return Counter(key(m) for m in enumerate_matrices(b, w, p))


def as_counts(sweep, b, w, p):
    return {state: fraction * p ** (b * w) for state, fraction in sweep.items()}


class TestEmptyShapes:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_no_columns_is_rank_deficient(self, b, p):
        (matrix,) = enumerate_matrices(b, 0, p)
        assert matrix.rows == ((),) * b
        assert pivot_state(matrix) is None
        assert pivot_fraction_sweep(b, 0, p) == {None: 1}

    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_no_rows_is_full_rank(self, w):
        (matrix,) = enumerate_matrices(0, w, 2)
        assert matrix.rows == ()
        assert pivot_fraction_sweep(0, w, 2) == {ground_state(0): 1}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: flag_fraction_sweep(0, 3, 2),
            lambda: group_fraction_sweep((), 3, 2),
            lambda: flag_column_prepend_dist(FqMatrix(2, ())),
            lambda: flag_pivot_state(FqMatrix(2, ())),
        ],
        ids=["flag-sweep", "group-sweep", "flag-prepend", "flag-pivot"],
    )
    def test_no_rows_has_no_labeled_state(self, call):
        with pytest.raises(ValueError, match="at least one row"):
            call()


class TestPerMatrixReference:
    """Each sweep against classifying every matrix on its own."""

    @pytest.mark.parametrize("b,w,p", REFERENCE_SIZES)
    def test_sweeps(self, b, w, p):
        assert as_counts(pivot_fraction_sweep(b, w, p), b, w, p) == (
            reference_counts(pivot_state, b, w, p)
        )
        if b == 0:
            return  # no flag state has zero labels
        assert as_counts(flag_fraction_sweep(b, w, p), b, w, p) == (
            reference_counts(flag_pivot_state, b, w, p)
        )
        for labels in label_multisets(b):
            key = lambda m: coarse_flag_pivot_state(m, labels)
            assert as_counts(group_fraction_sweep(labels, w, p), b, w, p) == (
                reference_counts(key, b, w, p)
            )

    @pytest.mark.parametrize(
        "b,w,p", [(1, 4, 2), (2, 3, 2), (3, 4, 2), (2, 4, 3), (3, 5, 3), (2, 5, 5), (3, 6, 5)]
    )
    def test_prepend_laws(self, b, w, p):
        rng = random.Random(b * 100 + w * 10 + p)
        checked = 0
        while checked < 8:
            rows = tuple(tuple(rng.randrange(p) for _ in range(w)) for _ in range(b))
            matrix = FqMatrix(p, rows)
            if pivot_state(matrix) is None:
                continue
            checked += 1
            for law, key in [
                (column_prepend_dist, pivot_state),
                (flag_column_prepend_dist, flag_pivot_state),
            ]:
                counts = Counter(
                    key(matrix.prepend_column(col))
                    for col in itertools.product(range(p), repeat=b)
                )
                expected = TransitionDist(
                    tuple((s, Fraction(c, p**b)) for s, c in counts.items())
                )
                assert law(matrix) == expected


def leading_column_counts(matrices):
    """`_leading_columns` of each matrix, counted by lead tuple (None: rank
    deficient)."""
    counts = Counter()
    for matrix in matrices:
        leads = _leading_columns(matrix)
        counts[None if leads is None else tuple(leads)] += 1
    return counts


def prepended(matrix):
    """Every matrix made by prepending a column to `matrix`."""
    for col in itertools.product(range(matrix.p), repeat=matrix.height):
        yield matrix.prepend_column(col)


def random_matrix(b, w, p, rng):
    return FqMatrix(p, tuple(tuple(rng.randrange(p) for _ in range(w)) for _ in range(b)))


class TestLeadCounts:
    """`_sweep_counts` and `_prepend_counts` against `_leading_columns` of
    every matrix they count."""

    @pytest.mark.parametrize(
        "b,w,p",
        [
            (b, w, p)
            for p in (2, 3, 5)
            for b in range(4)
            for w in range(6)
            if p ** (b * w) <= 1000
        ],
    )
    def test_sweeps(self, b, w, p):
        # every row takes all of F^N (rule 1), one node per lead prefix
        # standing for the p^free lines through 0 that start at its lead,
        # the last row counted in closed form
        assert _sweep_counts(p, b, w) == leading_column_counts(enumerate_matrices(b, w, p))

    @pytest.mark.parametrize("p,b,w", [(2, 5, 8), (3, 4, 6), (5, 3, 6)])
    def test_sweeps_past_the_matrix_budget(self, p, b, w):
        # 2^40, 3^24 and 5^18 matrices, counted one node per lead prefix:
        # no listing reaches them, so the counts meet the full-rank count
        # and each formula instead
        counts = _sweep_counts(p, b, w)
        total = p ** (b * w)
        assert sum(counts.values()) == total
        full_rank = 1
        for i in range(b):
            full_rank *= p**w - p**i
        assert total - counts[None] == full_rank
        by_positions = Counter()
        for leads, count in counts.items():
            if leads is None:
                continue
            cells = [None] * w
            for label, lead in enumerate(leads, 1):
                cells[lead] = label
            state = FlagState(trim_cells(cells))
            assert Fraction(count, total) == formula_flag_fraction(b, p, state)
            by_positions[tuple(sorted(leads))] += count
        for positions, count in by_positions.items():
            state = JugglingState(positions)
            assert Fraction(count, total) == formula_pivot_fraction(b, p, state)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("b", [0, 1, 2, 3])
    def test_line_rows(self, b, p):
        # every row a line x + c*e_0 (rule 2 above the last row, rule 3 on
        # it) over random matrices, rank-deficient ones among them: the one
        # value that cancels the projected line's first nonzero must be
        # found with its sign, which matters for p > 2.  With no rows, the
        # one 0 x w matrix has full rank
        rng = random.Random(9000 + 100 * p + b)
        for w in range(6):
            for _ in range(40):
                matrix = random_matrix(b, w, p, rng)
                assert _prepend_counts(matrix) == leading_column_counts(prepended(matrix))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("b", [2, 3])
    def test_column_zero_scaling(self, b, p):
        # while no row above leads at column 0, a row's column-0 values
        # 1..p-1 count alike, so only 1 is drawn, weighted p - 1.  Rows that
        # open with zeros leave column 0 to decide their leads, row after row
        rng = random.Random(100 * p + b)
        for w in range(1, 5):
            for _ in range(12):
                rows = tuple(
                    (0,) * z + tuple(rng.randrange(p) for _ in range(w - z))
                    for z in (rng.randrange(w + 1) for _ in range(b))
                )
                matrix = FqMatrix(p, rows)
                assert _prepend_counts(matrix) == leading_column_counts(prepended(matrix))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_zero_and_repeated_rows(self, b, p):
        # a zero row, or a row repeated below, drops the rank, which a
        # prepended column restores or not: these reach rule 3's cancelling
        # c and the rank-deficient (None) counts
        rng = random.Random(9500 + 100 * p + b)
        for w in range(5):
            for _ in range(8):
                matrix = random_matrix(b, w, p, rng)
                rows = list(matrix.rows)
                i, j = rng.sample(range(b), 2)
                rows[max(i, j)] = (0,) * w if rng.random() < 0.5 else rows[min(i, j)]
                matrix = FqMatrix(p, tuple(rows))
                assert _prepend_counts(matrix) == leading_column_counts(prepended(matrix))
