"""The square path of the product kernel: a pair (p, p) of one object is
squared in one triangular pass.  Its results must have the values,
coefficient types, width and bound of the full product loop it replaced
(``poly_oracle.product_loop``), and that loop's dict order wherever no
running sum reaches 0.  Against the square pass written out on the module's
sum rule (``poly_oracle.triangular_products``) the dict order must match
always, a term that cancels and comes back included."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import poly_oracle as oracle
from morphlift import analysis
from morphlift.analysis import hwc_certificate
from morphlift.calculus import jacobian
from morphlift.exact import GaussianRational
from morphlift.mapfile import parse_poly
from morphlift.poly import MultiPoly, _accumulate_square, poly_dot

I = GaussianRational(0, 1)
RINGS = ((1, 0), (2, 0), (3, 0), (2, 1), (4, 2))

# Exponents on each side of 128: a square's bound is twice its factor's, so
# a factor held in one-byte fields can have a square that needs two.
exponents = st.one_of(st.integers(0, 3),
                      st.sampled_from((126, 127, 128, 129, 200, 255)))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coefficients = st.one_of(st.integers(-3, 3), rationals,
                         st.builds(GaussianRational, rationals, rationals))
# Few variables, low exponents and small unit multiples as coefficients, so
# that squares often cancel a term, and some bring it back.
CANCELLING_RINGS = ((1, 0), (2, 0), (2, 1))
cancelling_coefficients = st.sampled_from((1, -1, 2, -2, I, -I))


def polys_in(ring, exponents=exponents, coefficients=coefficients,
             max_size=5):
    num_vars, num_complex = ring
    return st.dictionaries(st.tuples(*[exponents] * num_vars), coefficients,
                           max_size=max_size).map(
        lambda terms: MultiPoly(num_vars, terms, num_complex))


def cancelling_polys_in(ring):
    return polys_in(ring, st.integers(0, 2), cancelling_coefficients, 8)


def typed(q):
    """The terms in dict order, each with its coefficient's type."""
    return [(e, c, type(c)) for e, c in q.terms.items()]


def assert_as_the_loops_form_it(result, pairs):
    expected, cancelled = oracle.product_loop(pairs)
    triangular, triangle_cancelled = oracle.triangular_products(pairs)
    assert typed(result) == typed(triangular)
    assert sorted(typed(result), key=repr) == sorted(typed(expected), key=repr)
    assert (result._width, result._bound) == (expected._width, expected._bound)
    if not (cancelled or triangle_cancelled):
        assert typed(result) == typed(expected)


def draw_poly(data):
    kind = data.draw(st.sampled_from((polys_in, cancelling_polys_in)))
    rings = RINGS if kind is polys_in else CANCELLING_RINGS
    ring = data.draw(st.sampled_from(rings))
    return ring, kind, data.draw(kind(ring))


@given(st.data())
def test_a_square_is_formed_as_the_product_loop_formed_it(data):
    _, _, q = draw_poly(data)
    assert_as_the_loops_form_it(q * q, [(q, q)])


@given(st.data())
def test_a_dot_of_a_vector_with_itself_is_formed_as_before(data):
    ring, kind, first = draw_poly(data)
    vector = [first] + [data.draw(kind(ring))
                        for _ in range(data.draw(st.integers(0, 3)))]
    assert_as_the_loops_form_it(poly_dot(vector, vector),
                                list(zip(vector, vector)))
    # squares between products of two objects, one of them an equal copy
    other = [q if data.draw(st.booleans()) else MultiPoly._trusted(
        q.num_vars, dict(q.terms), q.num_complex) for q in vector]
    assert_as_the_loops_form_it(poly_dot(vector, other),
                                list(zip(vector, other)))


@given(st.data())
def test_a_power_is_formed_as_the_product_loop_formed_it(data):
    # each base * base of the power squares; the expected power multiplies
    # by a copy, which no pair shares
    _, _, q = draw_poly(data)
    exponent = data.draw(st.integers(2, 5))
    copy = MultiPoly._trusted(q.num_vars, dict(q.terms), q.num_complex)
    expected = MultiPoly.constant(q.num_vars, 1, q.num_complex)
    for _ in range(exponent):
        expected = expected * copy
    power = q ** exponent
    assert sorted(typed(power), key=repr) == sorted(typed(expected), key=repr)


def test_a_square_takes_wider_fields_when_its_bound_outgrows_them():
    q = parse_poly("x1^128 - 2*x1*x2 + x2^3", 2)
    assert (q._width, q._bound) == (1, 128)
    square = q * q
    assert (square._width, square._bound) == (2, 256)
    assert typed(square) == [((256, 0), 1, int), ((129, 1), -4, int),
                             ((128, 3), 2, int), ((2, 2), 4, int),
                             ((1, 4), -4, int), ((0, 6), 1, int)]
    assert_as_the_loops_form_it(square, [(q, q)])


def test_the_square_pass_rejects_fields_too_narrow():
    # 128 + 128 needs two bytes a field; one byte would carry into x2
    q = MultiPoly(2, {(128, 0): 1, (0, 1): 1})
    accumulator = {}
    with pytest.raises(OverflowError):
        _accumulate_square(accumulator, q, width=1)
    assert accumulator == {}
    _accumulate_square(accumulator, q, width=2)
    assert accumulator == {256: 1, (1 << 16) + 128: 2, 2 << 16: 1}


def test_a_term_that_cancels_on_the_diagonal_and_comes_back_goes_last():
    # (x1^2 - 2*x2^2 + 2*x1*x2 + x2 + x1^2*x2)^2: x1^2*x2^2 gets -4 in row
    # 0, +4 on the diagonal of row 2, where it cancels, and +2 in row 3
    q = parse_poly("x1^2 - 2*x2^2 + 2*x1*x2 + x2 + x1^2*x2", 2)
    assert typed(q * q) == [
        ((4, 0), 1, int), ((3, 1), 4, int), ((2, 1), 2, int),
        ((4, 1), 2, int), ((0, 4), 4, int), ((1, 3), -8, int),
        ((0, 3), -4, int), ((2, 3), -4, int), ((1, 2), 4, int),
        ((3, 2), 4, int), ((0, 2), 1, int), ((2, 2), 2, int),
        ((4, 2), 1, int)]
    assert_as_the_loops_form_it(q * q, [(q, q)])


def test_a_term_that_cancels_off_the_diagonal_and_comes_back_goes_last():
    # (x1 + x1^4 + 1 - x1^5 + x1^2 - x1^3)^2: x1^5 gets +2 in row 0, -2 in
    # row 2, where it cancels, and -2 in row 4
    q = parse_poly("x1 + x1^4 + 1 - x1^5 + x1^2 - x1^3", 1)
    square = q * q
    assert typed(square) == typed(oracle.triangular_products([(q, q)])[0])
    keys = list(square.terms)
    assert keys.index((5,)) == keys.index((4,)) + 1
    assert square.terms[(5,)] == -2
    assert_as_the_loops_form_it(square, [(q, q)])


def test_squares_of_fractions_and_gaussians_keep_their_types():
    q = parse_poly("1/2*x1 + 2*x2 - 1/4", 2)
    assert typed(q * q) == typed(oracle.product_loop([(q, q)])[0])
    assert {type(c) for c in (q * q).terms.values()} == {int, Fraction}
    z = parse_poly("(1+i)*z1 + i*zb1 - 1/2", 2, 1)
    assert typed(z * z) == typed(oracle.product_loop([(z, z)])[0])
    assert (z * z).terms[(1, 1)] == 2 * (1 + I) * I


# ---------------------------------------------------------------------------
# Work count: n(n+1)/2 term products per square of n terms
# ---------------------------------------------------------------------------

class Counted(int):
    """An int coefficient that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_the_certificate_forms_n_n_plus_1_over_2_products_per_square(
        phi_r16_real, monkeypatch):
    expected = hwc_certificate(phi_r16_real).dilation
    counted = tuple(tuple(q._with({k: Counted(c) for k, c in q._terms.items()})
                          for q in row) for row in jacobian(phi_r16_real))
    calls = []

    def counting_dot(left, right):
        before = Counted.products
        result = poly_dot(left, right)
        calls.append((left is right, [(len(p.terms), len(q.terms))
                                      for p, q in zip(left, right)],
                      Counted.products - before))
        return result

    monkeypatch.setattr(analysis, "jacobian", lambda phi: counted)
    monkeypatch.setattr(analysis, "poly_dot", counting_dot)
    report = hwc_certificate(phi_r16_real)
    assert report.verdict
    assert report.dilation == expected
    # the off-diagonal entry, the second diagonal entry and the dilation
    assert [square for square, _, _ in calls] == [False, True, True]
    for square, sizes, products in calls:
        if square:
            assert products == sum(n * (n + 1) // 2 for n, _ in sizes)
        else:
            assert products == sum(n * m for n, m in sizes)
    assert sum(products for square, _, products in calls if square) < \
        sum(n * m for square, sizes, _ in calls if square for n, m in sizes)
