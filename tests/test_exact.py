import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import exact_oracle
from morphlift import exact
from exact_oracle import bilinear_dot
from morphlift.calculus import complex_gradient
from morphlift.exact import (
    DimensionMismatch,
    Echelon,
    ExactMatrix,
    GaussianRational,
    _parts,
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


def _determinant(rows):
    """By cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _minor_rank(matrix: ExactMatrix) -> int:
    """Independent rank oracle: largest k with a nonzero k x k minor."""
    best = 0
    entries = [list(row) for row in matrix.entries]
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        found = False
        for row_idx in itertools.combinations(range(matrix.rows), k):
            for col_idx in itertools.combinations(range(matrix.cols), k):
                sub = [[entries[i][j] for j in col_idx] for i in row_idx]
                if _determinant(sub) != 0:
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
    assert (matrix.rank() == exact_oracle.gaussian_integer_rank(matrix)
            == exact_oracle.rank(matrix) == exact_oracle.column_sweep_rank(matrix))


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
    _assert_rank_matches_oracle(rows)
    assert ExactMatrix(rows).rank() == 3


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


# ---------------------------------------------------------------------------
# Conjugates folded into the multipliers, against the two-pass Z[i] kernel
# ---------------------------------------------------------------------------

def _bareiss_pivots(rows) -> list:
    """The pivots of fraction-free elimination with the row swaps of
    ``exact_oracle.column_sweep_rank``, as Gaussian rationals.  Scaling a row by a
    positive integer scales the later pivots by positive integers, so
    whether a pivot is real does not depend on the scaling."""
    work = [list(row) for row in rows]
    pivots = []
    prev = Fraction(1)
    for col in range(len(work[0]) if work else 0):
        index = next((i for i, row in enumerate(work) if row[col] != 0), None)
        if index is None:
            continue
        work[0], work[index] = work[index], work[0]
        top, pivot = work[0], work[0][col]
        work = [[(pivot * x - row[col] * u) / prev for x, u in zip(row, top)]
                for row in work[1:]]
        pivots.append(pivot)
        prev = Fraction(pivot) if type(pivot) is int else pivot
    return pivots


def _non_real_run(rows) -> int:
    """The most pivots in a row that have a nonzero imaginary part."""
    longest = run = 0
    for pivot in _bareiss_pivots(rows):
        run = run + 1 if isinstance(pivot, GaussianRational) else 0
        longest = max(longest, run)
    return longest


@st.composite
def non_real_pivot_runs(draw):
    """Matrices of Gaussian integers and Gaussian rationals, most with runs
    of non-real pivots; some rows repeat or are 0 so the rank falls short."""
    rows, cols = draw(st.integers(3, 10)), draw(st.integers(3, 14))
    non_real = st.builds(GaussianRational, st.integers(-4, 4),
                         st.integers(1, 4) | st.integers(-4, -1))
    entries = st.one_of(non_real, gaussian_integers, st.integers(-3, 3),
                        st.builds(GaussianRational, wide_rationals, st.just(1)))
    matrix = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        matrix.append(list(matrix[i]))
    if draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * cols
    return draw(st.permutations(matrix))


@settings(deadline=None)
@given(non_real_pivot_runs())
def test_rank_through_runs_of_non_real_pivots_matches_both_oracles(rows):
    assume(_non_real_run(rows) >= 2)
    _assert_rank_matches_oracle(rows)


@st.composite
def echelon_products(draw):
    """L * B for Gaussian B in echelon form, row t of B 0 in its first t
    columns: rows of L that leave out the first rows of B give rows of the
    product that are 0 where the first pivots sit, and more rows than B
    has make them dependent."""
    inner, cols = draw(st.integers(2, 5)), draw(st.integers(2, 12))
    entries = st.one_of(gaussian_integers, st.builds(
        GaussianRational, st.integers(-4, 4), st.integers(1, 4)))
    basis = [[0] * min(t, cols) + [draw(entries) for _ in range(cols - t)]
             for t in range(inner)]
    left = []
    for _ in range(draw(st.integers(inner, inner + 6))):
        skip = draw(st.integers(0, inner - 1))
        left.append([0] * skip + [draw(entries) for _ in range(inner - skip)])
    return _product(draw(st.permutations(left)), basis)


@settings(deadline=None)
@given(echelon_products())
def test_rank_of_rows_that_are_0_under_the_pivot_matches_both_oracles(rows):
    _assert_rank_matches_oracle(rows)


def test_three_non_real_pivots_in_a_row():
    rows = [[GaussianRational(1, 1), 2, I, 0, 1],
            [GaussianRational(0, 2), GaussianRational(1, -1), 3, I, 0],
            [1, I, GaussianRational(2, 1), 4, GaussianRational(0, -1)],
            [GaussianRational(1, 2), 0, I, GaussianRational(3, -1), 2],
            # the sum of rows 1 and 3: the rank stays 4
            [GaussianRational(2, 1), GaussianRational(2, 1),
             GaussianRational(2, 2), 4, GaussianRational(1, -1)]]
    assert _non_real_run(rows) >= 3
    _assert_rank_matches_oracle(rows)
    assert ExactMatrix(rows).rank() == 4


# ---------------------------------------------------------------------------
# The echelon a row at a time, against the oracles on every prefix
# ---------------------------------------------------------------------------

def _assert_every_prefix_matches_the_oracles(rows) -> Echelon:
    echelon = Echelon()
    rank = 0
    for count, row in enumerate(rows, 1):
        rank += echelon.add(*_parts(row))
        prefix = ExactMatrix(rows[:count])
        assert len(echelon.pivots) == rank
        assert (rank == exact_oracle.rank(prefix)
                == exact_oracle.gaussian_integer_rank(prefix)
                == exact_oracle.column_sweep_rank(prefix))
    return echelon


def _pivot_columns(echelon, width) -> list:
    """The column of each pivot: each step deletes the pivot's position."""
    columns = list(range(width))
    return [columns.pop(j) for j, *_ in echelon.pivots]


@st.composite
def leftward_pivots(draw):
    """Gaussian-integer rows with fewer leading zeros the later they come,
    and sums of two of them: a remainder's first nonzero cell mostly lies
    left of the earlier pivots, and the sums make the rank fall short."""
    cols = draw(st.integers(2, 7))
    zeros = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=7))
    rows = [[0] * z + [draw(gaussian_integers) for _ in range(cols - z)]
            for z in sorted(zeros, reverse=True)]
    pairs = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1))
    for i, j in draw(st.lists(pairs, max_size=2)):
        rows.append([x + y for x, y in zip(rows[i], rows[j])])
    return rows


@settings(deadline=None)
@given(rank_matrices())
def test_echelon_prefixes_match_the_oracles(rows):
    _assert_every_prefix_matches_the_oracles(rows)


@settings(deadline=None)
@given(non_real_pivot_runs())
def test_echelon_prefixes_through_runs_of_non_real_pivots_match_the_oracles(rows):
    echelon = _assert_every_prefix_matches_the_oracles(rows)
    # scaling a row by a positive integer keeps each pivot real or not
    run = longest = 0
    for _, _, q, *_ in echelon.pivots:
        run = run + 1 if q else 0
        longest = max(longest, run)
    assume(longest >= 2)


@settings(deadline=None)
@given(echelon_products())
def test_echelon_prefixes_of_rows_0_under_earlier_pivots_match_the_oracles(rows):
    _assert_every_prefix_matches_the_oracles(rows)


@settings(deadline=None)
@given(leftward_pivots())
def test_echelon_prefixes_with_pivots_left_of_earlier_ones_match_the_oracles(rows):
    echelon = _assert_every_prefix_matches_the_oracles(rows)
    columns = _pivot_columns(echelon, len(rows[0]))
    assume(any(b < a for a, b in zip(columns, columns[1:])))


@settings(deadline=None)
@given(st.one_of(leftward_pivots(), echelon_products().filter(
    lambda rows: len(rows[0]) <= 7)))
def test_each_pivot_is_the_minor_of_the_rows_kept_and_their_pivot_columns(rows):
    # Sylvester's identity: after k - 1 steps every cell is the k x k minor
    # of the first k kept rows, in the pivot columns and its own column
    echelon = Echelon()
    kept = [row for row in rows if echelon.add(*_parts(row))]
    columns = _pivot_columns(echelon, len(rows[0]))
    for k, (_, p, q, *_) in enumerate(echelon.pivots, 1):
        minor = [[row[c] for c in columns[:k]] for row in kept[:k]]
        assert make_scalar(p, q) == _determinant(minor)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(gaussian_integers, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_last_pivot_of_a_square_matrix_is_its_determinant(rows):
    # with every leading principal minor nonzero each row is kept with its
    # pivot on the diagonal, so the last pivot is the determinant; a kernel
    # that stops dividing by the previous pivot still gets every rank right
    assume(all(_determinant([row[:k] for row in rows[:k]]) != 0
               for k in range(1, len(rows) + 1)))
    echelon = Echelon()
    assert [echelon.add(*_parts(row)) for row in rows] == [True] * len(rows)
    j, p, q, *_, rest_re, rest_im = echelon.pivots[-1]
    assert (j, rest_re, rest_im) == (0, [], [])
    assert make_scalar(p, q) == _determinant(rows)


# ---------------------------------------------------------------------------
# The rank mod p: a lower bound that decides only full rank
# ---------------------------------------------------------------------------

P, IOTA = exact._PRIME, exact._IOTA


def _modular_rank(rows) -> int:
    return exact._rank_mod_p([exact._gaussian_integer_row(*_parts(row))
                              for row in rows])


def test_the_prime_is_1_mod_4_and_iota_squares_to_minus_1():
    assert P < 2 ** 30 and P % 4 == 1
    assert all(P % d for d in range(2, math.isqrt(P) + 1))
    assert IOTA * IOTA % P == P - 1


@pytest.mark.parametrize("rows", [
    [[P]],
    [[1, 0], [0, P]],
    [[GaussianRational(-IOTA, 1)]],                             # i - iota
    [[1, 2], [3, 6 + GaussianRational(P, P)]],                  # det p*(1 + i)
    [[Fraction(1, P), 1], [1, 2 * P]],                          # det 1
    [[Fraction(1, P), Fraction(1, 3 * P)], [3, GaussianRational(1, P)]],  # det i
    [[GaussianRational(Fraction(1, P), Fraction(1, P)), 1, I],
     [GaussianRational(Fraction(1, 2 * P), Fraction(1, 2 * P)), 1, 1]],
], ids=["p", "diag(1,p)", "i-iota", "det p(1+i)", "denominator p",
        "denominators p, 3p", "gaussian denominator p"])
def test_full_rank_matrices_deficient_mod_p_keep_their_exact_rank(rows):
    matrix = ExactMatrix(rows)
    full = min(matrix.rows, matrix.cols)
    assert _modular_rank(rows) < full
    assert exact_oracle.rank(matrix) == full
    assert matrix.rank() == full


def test_rank_1_over_q_i_is_found_exactly():
    rows = [[1, I], [I, -1]]
    assert _modular_rank(rows) == 1
    assert ExactMatrix(rows).rank() == exact_oracle.rank(ExactMatrix(rows)) == 1


@settings(deadline=None)
@given(rank_matrices())
def test_the_rank_mod_p_never_exceeds_the_rank(rows):
    assert _modular_rank(rows) <= exact_oracle.column_sweep_rank(ExactMatrix(rows))


@settings(deadline=None)
@given(st.one_of(non_real_pivot_runs(), echelon_products()))
def test_rows_given_as_iterators_rank_as_rows_given_as_tuples(rows):
    from_tuples, from_iterators = Echelon(), Echelon()
    for row in rows:
        re, im = map(tuple, _parts(row))
        assert from_tuples.add(re, im) == from_iterators.add(iter(re),
                                                            (x for x in im))
    assert ExactMatrix(iter(row) for row in rows).rank() == ExactMatrix(rows).rank()
    assert Echelon().add((x for x in (1, 2, 3)), iter((0, 0, 0)))
