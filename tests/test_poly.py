import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from genmaps import random_complex_poly, random_real_poly
from morphlift.exact import DimensionMismatch, GaussianRational
from morphlift.mapfile import parse_poly
from morphlift.poly import (
    ConsistencyError,
    MultiPoly,
    accumulate_product,
    poly_dot,
    render,
)

I = GaussianRational(0, 1)


def p(text, num_vars, num_complex=0):
    return parse_poly(text, num_vars, num_complex)


real_polys = st.integers(0, 10**6).map(
    lambda seed: random_real_poly(random.Random(seed), 3))
complex_polys = st.integers(0, 10**6).map(
    lambda seed: random_complex_poly(random.Random(seed), 2))


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    assert p("x1 + x2", 2) * p("x1 - x2", 2) == p("x1^2 - x2^2", 2)


def test_additive_inverse_gives_empty_term_map():
    q = p("2*x1^2*x2 - x3", 3)
    assert (q + (-q)).terms == {}
    assert (q - q).is_zero


def test_arity_mismatch():
    with pytest.raises(DimensionMismatch):
        p("x1", 1) + p("x1", 2)


def test_product_of_bilinear_factors_is_degree_4(phi_r16):
    # the composed map's single component is the product A*B of two
    # bilinear forms, so it must be homogeneous of degree 4 with the
    # expected leading structure
    a = p("z3*z5 - zb4*z6 + z1*z7 - z2*zb8", 16, 8)
    b = p("z4*z5 + zb3*z6 + z2*zb7 + z1*z8", 16, 8)
    product = a * b
    assert phi_r16.components[0] == product
    assert product.total_degree() == 4
    assert all(sum(e) == 4 for e in product.terms)


@given(real_polys, real_polys, real_polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


# ---------------------------------------------------------------------------
# Formal (Wirtinger) partials
# ---------------------------------------------------------------------------

def test_power_rule():
    assert p("x1^2*x2", 2).partial(0) == p("2*x1*x2", 2)


def test_constant_rule():
    assert p("7", 2).partial(1).is_zero


def test_wirtinger_partials_treat_z_and_zb_independently():
    # in the 4-pair ring, variable 3 is z4 and variable 7 is zb4
    q = p("z1*z3 - z2*zb4", 8, 4)
    assert q.partial(3).is_zero
    assert q.partial(4 + 3) == p("-z2", 8, 4)


def test_wirtinger_against_difference_quotient():
    # formal partial agrees with the exact difference quotient along the
    # formally-independent directions z4 and zb4
    q = p("z1*z3 - z2*zb4", 8, 4)
    base = [1, 2, GaussianRational(0, 1), GaussianRational(1, -1),
            1, 2, GaussianRational(0, -1), GaussianRational(1, 1)]
    step = Fraction(1, 7)
    for var in (3, 7):
        bumped = list(base)
        bumped[var] = bumped[var] + step
        quotient = (q._evaluate_raw(bumped) - q._evaluate_raw(base)) / step
        assert quotient == q.partial(var)._evaluate_raw(base)


@given(real_polys, st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(q, i, j):
    assert q.partial(i).partial(j) == q.partial(j).partial(i)


@given(real_polys, real_polys, st.integers(0, 2))
def test_leibniz_rule(a, b, i):
    assert (a * b).partial(i) == a.partial(i) * b + b.partial(i) * a


@given(real_polys, st.integers(0, 2), st.data())
def test_partial_matches_univariate_derivative(q, i, data):
    # evaluate(dq/dx_i, a) equals d/dt of evaluate(q, a + t e_i) at t = 0:
    # expand the univariate polynomial in t exactly and read its t-coefficient
    point = [Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
             for _ in range(3)]
    t_poly = {}
    for exponents, coeff in q.terms.items():
        from math import comb
        others = coeff
        for var, e in enumerate(exponents):
            if var == i:
                continue
            others = others * point[var] ** e
        e_i = exponents[i]
        for k in range(e_i + 1):
            weight = comb(e_i, k) * point[i] ** (e_i - k)
            t_poly[k] = t_poly.get(k, 0) + others * weight
    expected = t_poly.get(1, 0)
    assert q.partial(i).evaluate(point) == expected


# ---------------------------------------------------------------------------
# Evaluation and substitution
# ---------------------------------------------------------------------------

def test_evaluate_example():
    assert p("x1^2 + x2^2", 2).evaluate((3, 4)) == 25


def test_evaluate_bilinear_forms_at_listed_point():
    # hand substitution: at this point only the z3*w1 term of the first
    # factor survives; every term of the second factor vanishes
    a = p("z3*z5 - zb4*z6 + z1*z7 - z2*zb8", 16, 8)
    b = p("z4*z5 + zb3*z6 + z2*zb7 + z1*z8", 16, 8)
    point = (0, 0, 1, 0, 1, 0, 0, 1)
    assert a.evaluate_complex(point) == 1
    assert b.evaluate_complex(point) == 0
    # at the second listed sample both factors are nonzero
    other = (0, 0, GaussianRational(1, -1), 0, 1, 1, 0, 0)
    assert a.evaluate_complex(other) == GaussianRational(1, -1)
    assert b.evaluate_complex(other) == GaussianRational(1, 1)


def test_evaluate_rejects_conj_inconsistent_points():
    q = p("z1*zb1", 2, 1)
    with pytest.raises(ConsistencyError):
        q.evaluate((I, I))
    assert q.evaluate((I, -I)) == 1


def test_substitute_composition():
    q = p("x1^2", 1)
    composed = q.compose([p("x1 + x2", 2)])
    assert composed == p("x1^2 + 2*x1*x2 + x2^2", 2)


def test_substitute_in_place():
    q = p("x1^2 + x2", 2)
    replaced = q.substitute(0, p("x2", 2))
    assert replaced == p("x2^2 + x2", 2)


def test_substitute_into_larger_ring():
    q = p("x1^2", 1)
    widened = q.substitute(0, p("x1 + x2", 2))
    assert widened == p("x1^2 + 2*x1*x2 + x2^2", 2)


def test_substitute_cross_ring_needs_single_variable():
    q = p("x1*x2", 2)
    with pytest.raises(DimensionMismatch):
        q.substitute(0, p("x1 + x2 + x3", 3))


@given(real_polys, st.data())
def test_compose_commutes_with_evaluation(q, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    values = [random_real_poly(rng, 2, max_degree=2) for _ in range(3)]
    point = tuple(Fraction(data.draw(st.integers(-3, 3)),
                           data.draw(st.integers(1, 2))) for _ in range(2))
    composed = q.compose(values)
    direct = q.evaluate([v.evaluate(point) for v in values])
    assert composed.evaluate(point) == direct


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

def test_conjugate_generator_and_coefficients():
    assert p("z1", 2, 1).conjugate_poly() == p("zb1", 2, 1)
    q = p("z1*zb2", 4, 2).scale(I)
    assert q.conjugate_poly() == p("zb1*z2", 4, 2).scale(-I)


@given(complex_polys)
def test_conjugate_is_involution(q):
    assert q.conjugate_poly().conjugate_poly() == q


@given(complex_polys, complex_polys)
def test_conjugate_is_ring_homomorphism(a, b):
    assert (a * b).conjugate_poly() == a.conjugate_poly() * b.conjugate_poly()
    assert (a + b).conjugate_poly() == a.conjugate_poly() + b.conjugate_poly()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_graded_lex_order():
    q = p("x2 + x1^2*x2 + 3 + x1*x2^2", 2)
    assert render(q) == "x1^2*x2 + x1*x2^2 + x2 + 3"


def test_render_complex_coefficients():
    q = MultiPoly(2, {(1, 0): GaussianRational(Fraction(1, 2), Fraction(-1, 3)),
                      (0, 1): I, (0, 0): -2}, 1)
    assert render(q) == "(1/2-1/3*i)*z1 + i*zb1 - 2"


def test_render_zero():
    assert render(MultiPoly.zero(3)) == "0"


@given(real_polys)
def test_render_parse_round_trip_real(q):
    assert parse_poly(render(q), 3) == q


@given(complex_polys)
def test_render_parse_round_trip_complex(q):
    assert parse_poly(render(q), 4, 2) == q


# ---------------------------------------------------------------------------
# Packed product kernel against the tuple-keyed reference
# ---------------------------------------------------------------------------

def reference_product(a, b):
    """a*b by the tuple-keyed kernel that the packed one replaced: the test
    oracle for every product path."""
    accumulator = {}
    b_items = list(b.terms.items())
    for ea, ca in a.terms.items():
        for eb, cb in b_items:
            key = tuple(x + y for x, y in zip(ea, eb))
            accumulator[key] = accumulator.get(key, 0) + ca * cb
    return MultiPoly(a.num_vars, accumulator, a.num_complex)


def reference_sum(polys, num_vars, num_complex):
    terms = {}
    for q in polys:
        for exponents, coeff in q.terms.items():
            terms[exponents] = terms.get(exponents, 0) + coeff
    return MultiPoly(num_vars, terms, num_complex)


def reference_power(a, exponent):
    result = MultiPoly.constant(a.num_vars, 1, a.num_complex)
    for _ in range(exponent):
        result = reference_product(result, a)
    return result


def reference_compose(q, values):
    num_vars, num_complex = values[0].num_vars, values[0].num_complex
    summands = []
    for exponents, coeff in q.terms.items():
        term = MultiPoly.constant(num_vars, coeff, num_complex)
        for value, e in zip(values, exponents):
            term = reference_product(term, reference_power(value, e))
        summands.append(term)
    return reference_sum(summands, num_vars, num_complex)


# Each side of every field-width boundary: 1, 2, 4 and 8 bytes, and wider.
BOUNDARY_EXPONENTS = (127, 128, 255, 256, 65535, 65536,
                      2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 1)
RINGS = ((0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (4, 2))

small_exponents = st.integers(0, 3)
wide_exponents = st.one_of(small_exponents, st.sampled_from(BOUNDARY_EXPONENTS))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coefficients = st.one_of(
    st.integers(-3, 3), rationals,
    st.builds(GaussianRational, rationals, rationals))


def polys_in(ring, exponents=wide_exponents, max_size=4):
    num_vars, num_complex = ring
    return st.dictionaries(st.tuples(*[exponents] * num_vars), coefficients,
                           max_size=max_size).map(
        lambda terms: MultiPoly(num_vars, terms, num_complex))


@given(st.data())
def test_product_matches_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    a, b = data.draw(polys_in(ring)), data.draw(polys_in(ring))
    expected = reference_product(a, b)
    assert a * b == expected
    assert b * a == expected


@given(st.data())
def test_dot_matches_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    size = data.draw(st.integers(1, 3))
    left = [data.draw(polys_in(ring)) for _ in range(size)]
    right = [data.draw(polys_in(ring)) for _ in range(size)]
    expected = reference_sum([reference_product(a, b)
                              for a, b in zip(left, right)], *ring)
    assert poly_dot(left, right) == expected
    # a dot product that cancels to the zero polynomial
    assert poly_dot(left + left, right + [-b for b in right]).terms == {}


@given(st.data())
def test_power_matches_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(polys_in(ring, max_size=3))
    exponent = data.draw(st.integers(0, 4))
    assert a ** exponent == reference_power(a, exponent)


@given(st.data())
def test_compose_matches_reference(data):
    ring = data.draw(st.sampled_from(RINGS[1:]))
    outer = data.draw(st.sampled_from(RINGS[1:]))
    q = data.draw(polys_in(outer, exponents=st.integers(0, 2), max_size=3))
    values = [data.draw(polys_in(ring, max_size=3))
              for _ in range(outer[0])]
    assert q.compose(values) == reference_compose(q, values)


def test_wide_monomial_product():
    x1 = MultiPoly.variable(1, 0)
    a = x1 ** 200
    assert a * a == reference_product(a, a) == MultiPoly(1, {(400,): 1})


def test_wide_binomial_power():
    binomial = p("x1 + x2", 2)
    power = binomial ** 130
    assert power == reference_power(binomial, 130)
    assert power.terms[(65, 65)] == comb(130, 65)


def test_product_of_exponents_past_eight_bytes():
    a = MultiPoly(2, {(2**64 + 1, 3): 2, (0, 1): Fraction(1, 2)})
    b = MultiPoly(2, {(2**64 - 1, 0): -1, (1, 2**70): I})
    assert a * b == reference_product(a, b)
    assert (a * b).terms[(2**65, 3)] == -2


def test_accumulate_product_rejects_fields_too_narrow():
    # 200 + 200 needs two bytes a field; one byte would carry into x2
    a = MultiPoly(2, {(200, 0): 1, (0, 1): 1})
    accumulator = {}
    with pytest.raises(OverflowError):
        accumulate_product(accumulator, a, a, width=1)
    assert accumulator == {}
    accumulate_product(accumulator, a, a, width=2)
    assert len(accumulator) == 3
