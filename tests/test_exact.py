import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exact_oracle
from exact_oracle import bilinear_dot
from morphlift.calculus import complex_gradient
from morphlift.exact import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    make_scalar,
    render_scalar,
)
from morphlift.kaehler import complex_point_to_real
from morphlift.lift import complete_lift_real

I = GaussianRational(0, 1)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)
gaussians = st.builds(GaussianRational, rationals, rationals)
scalars = st.one_of(st.integers(-20, 20), rationals, gaussians)


def test_field_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert GaussianRational(1, -1).conjugate() == GaussianRational(1, 1)
    assert GaussianRational(1, 1) * GaussianRational(1, -1) == 2


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / GaussianRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / GaussianRational(0, 0)


def test_scalar_normalization():
    assert make_scalar(Fraction(4, 2)) == 2
    assert isinstance(make_scalar(Fraction(4, 2)), int)
    assert isinstance(make_scalar(Fraction(1, 2), 0), Fraction)
    demoted = GaussianRational(3, 1) - GaussianRational(0, 1)
    assert demoted == 3 and isinstance(demoted, int)


def test_render_scalar():
    assert render_scalar(Fraction(-3, 4)) == "-3/4"
    assert render_scalar(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3*i"
    assert render_scalar(GaussianRational(0, -1)) == "-i"
    assert render_scalar(GaussianRational(1, -1)) == "1-i"


@given(gaussians, gaussians)
def test_conjugation_is_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    product = a * b
    conj_product = (product.conjugate() if isinstance(product, GaussianRational)
                    else product)
    left = a.conjugate() * b.conjugate()
    assert conj_product == left


@given(gaussians, gaussians, gaussians)
def test_field_axioms_sampled(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    if b != 0:
        assert (a / b) * b == a


def _is_canonical(value) -> bool:
    # canonical form: positive denominator, coprime to the numerator
    import math
    if isinstance(value, int):
        return True
    if isinstance(value, Fraction):
        return value.denominator > 0 and \
            math.gcd(abs(value.numerator), value.denominator) == 1
    if isinstance(value, GaussianRational):
        return _is_canonical(value.re) and _is_canonical(value.im)
    return False


@given(rationals, rationals)
def test_sums_and_products_stay_canonical(a, b):
    for value in (a + b, a * b, a - b):
        assert _is_canonical(value)


@given(gaussians, gaussians)
def test_gaussian_results_stay_canonical(a, b):
    for value in (a + b, a * b, a - b):
        assert _is_canonical(value)


def test_bilinear_dot_examples():
    assert bilinear_dot((1, I), (1, I)) == 0          # isotropic vector
    assert bilinear_dot((1, 0), (0, 1)) == 0
    assert bilinear_dot((1, 2, 3), (4, 5, 6)) == 32


def test_bilinear_dot_length_mismatch():
    with pytest.raises(DimensionMismatch):
        bilinear_dot((1, 2), (1, 2, 3))


@given(st.lists(scalars, min_size=1, max_size=5), st.data())
def test_bilinear_dot_symmetric_and_linear(u, data):
    v = data.draw(st.lists(scalars, min_size=len(u), max_size=len(u)))
    w = data.draw(st.lists(scalars, min_size=len(u), max_size=len(u)))
    lam = data.draw(scalars)
    assert bilinear_dot(u, v) == bilinear_dot(v, u)
    shifted = [a + lam * b for a, b in zip(u, w)]
    assert bilinear_dot(shifted, v) == bilinear_dot(u, v) + lam * bilinear_dot(w, v)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert ExactMatrix([[int(i == j) for j in range(8)] for i in range(8)]).rank() == 8


def _minor_rank(matrix: ExactMatrix) -> int:
    """Independent rank oracle: largest k with a nonzero k x k minor."""

    def determinant(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = rows[0][j] * determinant(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    best = 0
    entries = [list(row) for row in matrix.entries]
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        found = False
        for row_idx in itertools.combinations(range(matrix.rows), k):
            for col_idx in itertools.combinations(range(matrix.cols), k):
                sub = [[entries[i][j] for j in col_idx] for i in row_idx]
                if determinant(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(st.integers(-4, 4), gaussians),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(deadline=None)
@given(small_matrices)
def test_rank_against_minor_oracle(rows):
    matrix = ExactMatrix(rows)
    assert matrix.rank() == _minor_rank(matrix)


@settings(deadline=None)
@given(small_matrices)
def test_rank_of_transpose(rows):
    matrix = ExactMatrix(rows)
    assert matrix.rank() == ExactMatrix(zip(*rows)).rank()


@settings(deadline=None)
@given(small_matrices, st.data())
def test_rank_bounds_and_dependent_append(rows, data):
    matrix = ExactMatrix(rows)
    rank = matrix.rank()
    assert rank <= min(matrix.rows, matrix.cols)
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=matrix.rows,
                                 max_size=matrix.rows))
    combo = [sum(w * row[j] for w, row in zip(weights, matrix.entries))
             for j in range(matrix.cols)]
    assert ExactMatrix([*matrix.entries, combo]).rank() == rank


@settings(deadline=None)
@given(small_matrices, st.integers(1, 7))
def test_rank_invariant_under_row_scaling(rows, scale):
    matrix = ExactMatrix(rows)
    scaled = ExactMatrix([[scale * x for x in row] for row in matrix.entries])
    assert scaled.rank() == matrix.rank()


# ---------------------------------------------------------------------------
# The printed gradient table as a static dataset
# ---------------------------------------------------------------------------

def _printed_gradients():
    i = I
    return [
        (1, i, 0, 0, 0, 0, 1, i, 0, 0, 1, i, 0, 0, 0, 0),
        (i, -1, 0, 0, 0, 0, i, -1, 0, 0, 1, i, 0, 0, 0, 0),
        (0, 0, 1, i, 0, 0, 1, i, 0, 0, 0, 0, 0, 0, 1, i),
        (0, 0, i, -1, 0, 0, i, -1, 0, 0, 0, 0, 0, 0, -1, -i),
        (0, 0, 0, 0, 1, i, 0, 0, 0, 0, -1, -i, 1, i, 0, 0),
        (0, 0, 0, 0, -1, -i, 0, 0, 0, 0, -i, 1, i, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, i, 0, 0, 1, i, 0, 0, 1, i),
        (0, 0, 0, 0, 0, 0, -1, i, 0, 0, i, -1, 0, 0, i, -1),
    ]


def test_printed_gradient_table_rank_is_8():
    matrix = ExactMatrix(_printed_gradients())
    assert matrix.rank() == 8


def test_first_two_printed_gradients_bilinear_orthogonal():
    grads = _printed_gradients()
    assert bilinear_dot(grads[0], grads[1]) == 0


def test_ninth_gradient_outside_printed_span():
    ninth = (0, 0, 0, 0, 2, -2, GaussianRational(0, -2), GaussianRational(0, 2),
             2, GaussianRational(0, 2), 2, GaussianRational(0, 2), 0, 0, 0, 0)
    matrix = ExactMatrix(_printed_gradients())
    assert matrix.rank() == 8
    assert ExactMatrix([*matrix.entries, ninth]).rank() == 9


# ---------------------------------------------------------------------------
# The Z[i] Bareiss rank against the Fraction Bareiss it replaced
# ---------------------------------------------------------------------------

wide_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10**6)
gaussian_integers = st.builds(GaussianRational, st.integers(-3, 3),
                              st.integers(-3, 3))
# One kind of entry per matrix: all-integer and all-rational matrices have
# real pivots throughout, Gaussian ones mostly complex pivots.
rank_entry_kinds = st.sampled_from((
    st.integers(-5, 5), wide_rationals, gaussian_integers,
    st.one_of(st.just(0), st.integers(-5, 5), wide_rationals, gaussian_integers,
              st.builds(GaussianRational, wide_rationals, wide_rationals))))


def _product(left, right):
    return [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)]
            for row in left]


@st.composite
def rank_matrices(draw):
    """Up to 18x34: dense or an n x r times r x m product of low rank r, then
    zero rows and columns, duplicate rows and a shuffle."""
    cols = draw(st.integers(1, 34))
    rows = draw(st.integers(0, 12))
    rank_entries = draw(rank_entry_kinds)
    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        left = [[draw(rank_entries) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(rank_entries) for _ in range(cols)] for _ in range(inner)]
        matrix = _product(left, right) if inner else [[0] * cols] * rows
    else:
        matrix = [[draw(rank_entries) for _ in range(cols)] for _ in range(rows)]
    matrix = [list(row) for row in matrix]
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=4)):
        for row in matrix:
            row[j] = 0
    if matrix:
        for i in draw(st.lists(st.integers(0, len(matrix) - 1), max_size=2)):
            matrix[i] = [0] * cols
        for i in draw(st.lists(st.integers(0, len(matrix) - 1), max_size=4)):
            matrix.append(list(matrix[i]))
    return draw(st.permutations(matrix))


@st.composite
def swapped_complex_pivots(draw):
    """Gaussian matrices whose first pivot sits below a row that is 0 in the
    first column, and has a nonzero imaginary part."""
    rows, cols = draw(st.integers(2, 18)), draw(st.integers(1, 34))
    gaussian = st.builds(GaussianRational, st.integers(-4, 4), st.integers(1, 4))
    entries = st.one_of(st.just(0), st.integers(-4, 4), gaussian_integers, gaussian)
    matrix = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    below = draw(st.integers(1, rows - 1))
    for row in matrix[:below]:
        row[0] = 0
    matrix[below][0] = draw(gaussian)
    return matrix


def _assert_rank_matches_oracle(rows):
    matrix = ExactMatrix(rows)
    assert matrix.rank() == exact_oracle.rank(matrix)


@settings(deadline=None)
@given(rank_matrices())
def test_rank_matches_fraction_bareiss(rows):
    _assert_rank_matches_oracle(rows)


@settings(deadline=None)
@given(swapped_complex_pivots())
def test_rank_with_complex_pivot_after_row_swap_matches_fraction_bareiss(rows):
    _assert_rank_matches_oracle(rows)


def test_complex_pivot_after_row_swap():
    # rows 1 and 2 swap; both pivots are 1+i, so the second step divides by
    # a complex pivot, through its conjugate and its norm
    rows = [[0, 1, 2, 3], [GaussianRational(1, 1), 2, I, 0],
            [1, GaussianRational(0, -1), 5, Fraction(1, 3)],
            [GaussianRational(2, 2), 4, 2 * I, 0]]
    assert ExactMatrix(rows).rank() == exact_oracle.rank(ExactMatrix(rows)) == 3


def test_rank_of_r32_kaehler_gradient_sets(phi_r16_real):
    r32 = complete_lift_real(phi_r16_real)
    alphabet = (0, 1, -1, I, -I, GaussianRational(1, -1))
    rng = random.Random(32)
    gradient = complex_gradient(r32)
    for _ in range(3):
        points = [tuple(rng.choice(alphabet) for _ in range(16)) for _ in range(17)]
        _assert_rank_matches_oracle(
            [tuple(g.evaluate(complex_point_to_real(p)) for g in gradient)
             for p in points])
