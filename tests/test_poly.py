import random
import tracemalloc
from fractions import Fraction
from math import comb
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

import maps_oracle
import poly_oracle as oracle
from genmaps import (
    random_complex_map,
    random_complex_poly,
    random_harmonic_map,
    random_real_map,
    random_real_poly,
)
from morphlift.calculus import jacobian
from morphlift.catalog import entry_ids, lookup
from morphlift.exact import (
    DimensionMismatch,
    GaussianRational,
    conjugate,
    make_scalar_like,
)
from morphlift.mapfile import parse_map, parse_poly
from morphlift.lift import complete_lift_complex, complete_lift_real
from morphlift.maps import ComplexPolyMap, RealPolyMap, real_identification
from morphlift.poly import (
    ConsistencyError,
    MultiPoly,
    _canonicalize,
    accumulate_product,
    poly_dot,
    render,
    render_fibered,
    render_leading,
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
    assert {sum(e) for e in product.terms} == {4}


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

    def at(poly, point):
        # a bumped point is not conjugation-consistent, so evaluate() refuses
        # it; the term-by-term oracle evaluates any point
        return oracle.evaluate(dict(poly.terms), point)

    for var in (3, 7):
        bumped = list(base)
        bumped[var] = bumped[var] + step
        quotient = (at(q, bumped) - at(q, base)) / step
        assert quotient == at(q.partial(var), base)


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
    def with_conjugates(zpoint):
        return zpoint + tuple(conjugate(z) for z in zpoint)
    point = with_conjugates((0, 0, 1, 0, 1, 0, 0, 1))
    assert a.evaluate(point) == 1
    assert b.evaluate(point) == 0
    # at the second listed sample both factors are nonzero
    other = with_conjugates((0, 0, GaussianRational(1, -1), 0, 1, 1, 0, 0))
    assert a.evaluate(other) == GaussianRational(1, -1)
    assert b.evaluate(other) == GaussianRational(1, 1)


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
    replaced = q.compose([p("x2", 2), p("x2", 2)])
    assert replaced == p("x2^2 + x2", 2)


def test_substitute_into_larger_ring():
    q = p("x1^2*x2", 2)
    widened = q.compose([p("x1 + x2", 3), p("x3", 3)])
    assert widened == p("x1^2*x3 + 2*x1*x2*x3 + x2^2*x3", 3)


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
    assert render(MultiPoly(3, {})) == "0"


def test_render_refuses_fewer_names_than_variables():
    # the factors of the variables past the last name were dropped: 'a + 3'
    q = MultiPoly(2, {(1, 1): 1, (0, 2): 3})
    with pytest.raises(DimensionMismatch):
        render(q, ("a",))
    with pytest.raises(DimensionMismatch):
        render_fibered(MultiPoly(4, {(1, 0, 0, 1): 1}), ("a", "b", "c"))
    assert render(q, ("a", "b")) == "a*b + 3*b^2"


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


ONE_TERM_COEFFICIENTS = (1, -1, 3, -2, Fraction(-2, 3), Fraction(5, 4), I, -I,
                         GaussianRational(1, -1), GaussianRational(Fraction(1, 2), 2))


@pytest.mark.parametrize("coeff", ONE_TERM_COEFFICIENTS, ids=str)
def test_one_term_power_matches_repeated_squaring(coeff):
    # exponents 0..300, on fields one and two bytes wide
    for ring, exponents in (((3, 0), (2, 0, 1)), ((4, 2), (1, 0, 0, 3)),
                            ((2, 0), (0, 0)), ((1, 0), (200,))):
        a = MultiPoly(ring[0], {exponents: coeff}, ring[1])
        for exponent in range(301):
            power = a ** exponent
            expected = oracle.squared_power(a, exponent)
            assert power == expected
            assert typed(power.terms) == typed(expected.terms)


@given(st.data())
def test_one_term_power_matches_repeated_squaring_on_random_terms(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(polys_in(ring, max_size=1))
    exponent = data.draw(st.integers(0, 300))
    power = a ** exponent
    expected = oracle.squared_power(a, exponent)
    assert power == expected
    assert typed(power.terms) == typed(expected.terms)


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


# ---------------------------------------------------------------------------
# The accumulator drops each cancelled term as it goes
# ---------------------------------------------------------------------------

@given(st.data())
def test_accumulate_product_matches_its_old_body_without_the_zeros(data):
    ring = data.draw(st.sampled_from(RINGS))
    width = data.draw(st.integers(1, 3))
    # every exponent sum fits the drawn width
    exponents = st.one_of(small_exponents,
                          st.integers(0, (1 << (8 * width - 1)) - 1))
    pairs = [(data.draw(polys_in(ring, exponents)),
              data.draw(polys_in(ring, exponents)))
             for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        p, q = pairs[0]
        pairs.append((p, -q))           # a product that cancels term by term
    new, old = {}, {}
    for p, q in pairs:
        accumulate_product(new, p, q, width=width)
        oracle.packed_accumulate_product(old, p, q, width=width)
        assert all(new.values())        # no zero is ever held
        assert {k: c for k, c in old.items() if c} == new
    canonical = _canonicalize(dict(new))
    assert list(canonical) == list(new)     # no zero left to drop
    assert {k: (c, type(c)) for k, c in canonical.items()} == \
        {k: (c, type(c)) for k, c in _canonicalize(old).items()}


def test_poly_dot_puts_a_term_that_cancels_and_returns_last():
    # x1*x2 cancels inside (x1 + x2)*(x1 - x2), then x1*x2 brings it back
    dot = poly_dot([p("x1 + x2", 2), p("x1", 2)], [p("x1 - x2", 2), p("x2", 2)])
    assert typed(dot.terms) == [((2, 0), 1, int), ((0, 2), -1, int),
                                ((1, 1), 1, int)]
    assert typed(dot.terms) == typed(oracle.sum_of_products(
        [({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),
         ({(1, 0): 1}, {(0, 1): 1})]))


def test_a_power_puts_a_term_that_cancels_and_returns_last():
    # the base is squared in one triangular pass: in
    # (1 + x1 - x1^2 + x1^3 - x1^4)^2 the x1^4 sum runs -2, 0, 1, and x1^3
    # cancels for good
    square = p("1 + x1 - x1^2 + x1^3 - x1^4", 1) ** 2
    assert typed(square.terms) == [((0,), 1, int), ((1,), 2, int),
                                   ((2,), -1, int), ((5,), -4, int),
                                   ((4,), 1, int), ((6,), 3, int),
                                   ((7,), -2, int), ((8,), 1, int)]


def test_canonicalize_reads_no_truth_of_a_nonintegral_fraction(monkeypatch):
    calls = []
    truth = Fraction.__bool__
    monkeypatch.setattr(Fraction, "__bool__",
                        lambda self: calls.append(self) or truth(self))
    terms = {1: Fraction(1, 2), 2: Fraction(-7, 3), 3: Fraction(5, 4)}
    assert _canonicalize(dict(terms)) == terms
    q = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 2): Fraction(-7, 3)})
    q.partial(1)
    assert calls == []
    # integral and zero Fractions are still demoted and dropped
    assert typed(_canonicalize({1: Fraction(4, 2), 2: Fraction(0), 3: 0})) == \
        [(1, 2, int)]


def test_r32_gram_entry_peak_memory_stays_within_the_live_terms():
    # the Gram entry (1, 2) of the ladder's R^32 rung: 4896 terms survive
    rung = complete_lift_real(real_identification(
        parse_map(lookup("ex3.7-R16-to-C").definition)))
    rows = jacobian(rung)
    tracemalloc.start()
    try:
        entry = poly_dot(rows[0], rows[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entry.terms) == 4896
    assert peak < 2 * 2**20, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# Packed store against the tuple-keyed oracles
# ---------------------------------------------------------------------------

def typed(terms):
    """The terms in dict order, each with its coefficient's type."""
    return [(e, c, type(c)) for e, c in terms.items()]


def draw_ring_and_poly(data, rings=RINGS, **kwargs):
    ring = data.draw(st.sampled_from(rings))
    return ring, data.draw(polys_in(ring, **kwargs))


@given(st.data())
def test_term_view_reads_what_the_constructor_was_given(data):
    num_vars, num_complex = ring = data.draw(st.sampled_from(RINGS))
    raw = data.draw(st.dictionaries(st.tuples(*[wide_exponents] * num_vars),
                                    coefficients, max_size=4))
    q = MultiPoly(num_vars, raw, num_complex)
    expected = {e: make_scalar_like(c) for e, c in raw.items() if c != 0}
    assert typed(q.terms) == typed(expected)
    assert q.terms == expected and dict(q.terms.items()) == expected
    assert len(q.terms) == len(expected)
    assert list(q.terms.values()) == list(expected.values())
    for exponents, coeff in expected.items():
        assert exponents in q.terms and q.terms[exponents] == coeff
    absent = [(0,) * (num_vars + 1), list((0,) * num_vars)]
    if num_vars:
        absent += [(2**70,) + (0,) * (num_vars - 1), (-1,) + (0,) * (num_vars - 1)]
    for key in absent:
        assert key not in q.terms and q.terms.get(key) is None
        with pytest.raises(KeyError):
            q.terms[key]


@pytest.mark.parametrize("key", [(1.5, 0), ("a", 0), (0, 1.0), (0.0, 0),
                                 (Fraction(1), 0), (None, 0), (0, 2**70 + 0.5)])
def test_term_view_reads_a_key_with_an_entry_that_is_not_an_int_as_absent(key):
    for q in (MultiPoly(2, {(1, 0): 3, (0, 1): 2, (0, 0): 1}),
              MultiPoly(2, {(300, 0): 1, (0, 0): 1})):       # two-byte fields
        assert key not in q.terms
        assert q.terms.get(key) is None and q.terms.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            q.terms[key]
        # a bool is an int, as the tuple (True, 0) equals (1, 0)
        assert ((True, False) in q.terms) is ((1, 0) in q.terms)


@given(st.data())
def test_ring_operations_match_the_tuple_oracle(data):
    ring, a = draw_ring_and_poly(data)
    b = data.draw(polys_in(ring))
    factor = data.draw(coefficients)
    ta, tb = dict(a.terms), dict(b.terms)
    assert typed((a + b).terms) == typed(oracle.combine(ta, tb, add))
    assert typed((a - b).terms) == typed(oracle.combine(ta, tb, sub))
    assert typed((a + factor).terms) == typed(
        oracle.combine(ta, oracle.constant(ring[0], factor), add))
    assert typed((-a).terms) == typed(oracle.negate(ta))
    assert typed(a.scale(factor).terms) == typed(oracle.scale(ta, factor))
    assert typed((a * b).terms) == typed(oracle.product(ta, tb))
    assert typed(poly_dot([a, b], [b, a]).terms) == typed(
        oracle.sum_of_products([(ta, tb), (tb, ta)]))


@given(st.data())
def test_partial_conjugate_and_remap_match_the_tuple_oracle(data):
    (num_vars, num_complex), a = draw_ring_and_poly(data)
    terms = dict(a.terms)
    for index in range(num_vars):
        assert typed(a.partial(index).terms) == typed(oracle.partial(terms, index))
    if num_complex:
        assert typed(a.conjugate_poly().terms) == typed(
            oracle.conjugate_terms(terms, num_complex))
    extra = data.draw(st.integers(0, 2))
    target_complex = num_complex + extra if num_complex else 0
    target_vars = 2 * target_complex if num_complex else num_vars + extra
    targets = data.draw(st.permutations(range(target_vars)))[:num_vars]
    index_map = dict(enumerate(targets))
    moved = oracle.packed_remap(a, target_vars, index_map, target_complex)
    assert (moved.num_vars, moved.num_complex) == (target_vars, target_complex)
    assert typed(moved.terms) == typed(oracle.remap(terms, target_vars, index_map))


def draw_point(data, ring, values):
    """A point of the ring; in a complex ring zb_k takes conj(z_k)."""
    num_vars, num_complex = ring
    head = [data.draw(values) for _ in range(num_complex or num_vars)]
    return tuple(head + [conjugate(x) for x in head] if num_complex else head)


@given(st.data())
def test_evaluate_matches_the_tuple_oracle(data):
    ring, wide = draw_ring_and_poly(data)
    # bases whose powers stay small, so that huge exponents evaluate quickly
    units = st.sampled_from((0, 1, -1, I, -I))
    small = data.draw(polys_in(ring, exponents=small_exponents, max_size=6))
    for q, values in ((wide, units), (small, coefficients)):
        point = draw_point(data, ring, values)
        value = q.evaluate(point)
        expected = oracle.evaluate(dict(q.terms), point)
        assert value == expected and type(value) is type(expected)


# Exponents on both sides of the one- and two-byte field limits, and bases
# with zero, Fraction and Gaussian coordinates whose powers stay cheap: 0,
# units, and numbers whose square is a power of two times a unit.
LIMIT_EXPONENTS = st.sampled_from((0, 1, 2, 3, 255, 256, 65535, 65536))
CHEAP_BASES = st.sampled_from((0, 0, 1, -1, I, -I, Fraction(1, 2), Fraction(-2),
                               GaussianRational(1, -1),
                               GaussianRational(Fraction(1, 2), Fraction(1, 2))))


@settings(deadline=None)
@given(st.data())
def test_evaluation_at_the_field_limits_matches_the_tuple_oracle(data):
    # several polynomials of one ring at one point
    ring = data.draw(st.sampled_from(RINGS[1:]))
    point = draw_point(data, ring, CHEAP_BASES)
    for _ in range(3):
        q = data.draw(polys_in(ring, exponents=LIMIT_EXPONENTS, max_size=3))
        value = q.evaluate(point)
        expected = oracle.evaluate(dict(q.terms), point)
        assert value == expected and type(value) is type(expected)


@given(st.data())
def test_compose_matches_the_tuple_oracle(data):
    ring = data.draw(st.sampled_from(RINGS[1:]))
    outer, q = draw_ring_and_poly(data, RINGS[1:], exponents=st.integers(0, 2),
                                  max_size=3)
    values = [data.draw(polys_in(ring, max_size=3)) for _ in range(outer[0])]
    expected = oracle.compose(dict(q.terms), [dict(v.terms) for v in values],
                              ring[0])
    assert typed(q.compose(values).terms) == typed(expected)


@given(st.data())
def test_compose_matches_its_old_packed_body(data):
    # values of every field width; the sum keeps the old order and types
    ring = data.draw(st.sampled_from(RINGS[1:]))
    outer, q = draw_ring_and_poly(data, RINGS[1:], exponents=st.integers(0, 2),
                                  max_size=4)
    values = [data.draw(polys_in(ring, max_size=3)) for _ in range(outer[0])]
    composed = q.compose(values)
    assert typed(composed.terms) == typed(oracle.packed_compose(q, values).terms)
    assert (1 << 8 * composed._width) > composed._bound >= max(
        map(max, composed.terms), default=0)


def test_compose_puts_a_term_that_cancels_and_returns_last():
    # x1 + x2 + x3 at (y1 + y2, -y1, y1): y1 cancels, then comes back
    q = p("x1 + x2 + x3", 3)
    values = [p("x1 + x2", 2), p("-x1", 2), p("x1", 2)]
    composed = q.compose(values)
    assert typed(composed.terms) == [((0, 1), 1, int), ((1, 0), 1, int)]
    assert typed(composed.terms) == typed(oracle.packed_compose(q, values).terms)


def _identified_both_ways(monkeypatch, phi):
    """real_identification(phi), and the same by the old compose-based body
    with the old compose."""
    new = real_identification(phi)
    with monkeypatch.context() as patch:
        patch.setattr(MultiPoly, "compose", oracle.packed_compose)
        old = maps_oracle.real_identification(phi)
    return new, old


def _same_terms(new, old):
    """The components' terms with their types; the closed-form expansion
    has its own term order (test_maps_differential.py pins it)."""
    return ([sorted(typed(c.terms)) for c in new.components]
            == [sorted(typed(c.terms)) for c in old.components])


@pytest.mark.parametrize("seed", range(8))
def test_real_identification_of_seeded_maps_matches_the_old_compose(
        monkeypatch, seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, rng.randint(1, 3), rng.randint(1, 2),
                             max_degree=rng.randint(2, 5))
    assert _same_terms(*_identified_both_ways(monkeypatch, phi))


def test_real_identification_of_catalog_maps_matches_the_old_compose(
        monkeypatch):
    complex_maps = [phi for phi in (parse_map(lookup(e).definition)
                                    for e in entry_ids())
                    if isinstance(phi, ComplexPolyMap)]
    assert complex_maps
    for phi in complex_maps:
        assert _same_terms(*_identified_both_ways(monkeypatch, phi))


@given(st.data())
def test_render_matches_the_tuple_oracle(data):
    (num_vars, num_complex), q = draw_ring_and_poly(data, max_size=6)
    names = tuple(f"v{j}" for j in range(num_vars))
    terms = dict(q.terms)
    assert render(q) == oracle.render(terms, num_vars, num_complex)
    assert render(q, names) == oracle.render(terms, num_vars, num_complex, names)


# ---------------------------------------------------------------------------
# render from the key bytes against the render that unpacked every term
# ---------------------------------------------------------------------------

def assert_renders_as_before(q, names=None):
    """render and render_leading of q give the old packed render's bytes."""
    assert render(q, names) == oracle.packed_render(q, names)
    assert render_leading(q) == oracle.packed_render_leading(q)
    assert render_leading(q)[1] == render(q).split(" + ")[0]


@given(st.data())
@settings(max_examples=200)
def test_render_matches_its_old_packed_body(data):
    (num_vars, _), q = draw_ring_and_poly(data, max_size=8)
    assert_renders_as_before(q)
    assert_renders_as_before(q, tuple(f"v{j}" for j in range(num_vars)))


@pytest.mark.parametrize("width", [2, 3])
def test_render_orders_wide_fields_from_x1_first(width):
    # within a field the low byte comes first in the key's bytes, so a sort
    # on those bytes would put x1*x2^e before x1^e*x2
    e = 256 ** (width - 1)
    q = p(f"4*x2^{e + 1} - 3*x1*x2^{e} + 2*x1^{e}*x2 + x1^{e + 1}", 2)
    assert q._width == width
    assert render(q) == f"x1^{e + 1} + 2*x1^{e}*x2 - 3*x1*x2^{e} + 4*x2^{e + 1}"
    assert_renders_as_before(q)


def test_render_matches_its_old_packed_body_on_maps_and_their_lifts(
        phi_r16, phi_r16_real):
    maps = [parse_map(lookup(e).definition) for e in entry_ids()]
    maps = [phi for phi in maps if isinstance(phi, (RealPolyMap, ComplexPolyMap))]
    rng = random.Random(18)
    maps += [random_real_map(rng, rng.randint(1, 6), 2, max_degree=4)
             for _ in range(20)]
    maps += [random_harmonic_map(rng, 3, 2) for _ in range(5)]
    maps += [random_complex_map(rng, rng.randint(1, 3), 2) for _ in range(15)]
    maps += [phi_r16, phi_r16_real, complete_lift_real(phi_r16_real)]
    for phi in maps:
        lifts = [complete_lift_real(phi) if isinstance(phi, RealPolyMap)
                 else complete_lift_complex(phi)]
        if isinstance(phi, ComplexPolyMap) and max(
                map(len, (c.terms for c in phi.components))) < 200:
            lifts.append(complete_lift_real(real_identification(phi)))
        for each in (phi, *lifts):
            for q in each.components:
                assert_renders_as_before(q)
                assert_renders_as_before(q, each.names())


def test_render_of_rational_coefficients_reads_numerator_and_denominator():
    q = MultiPoly(2, {(1, 0): Fraction(-7, 3), (0, 1): Fraction(1, 1),
                      (0, 0): Fraction(-1, 1), (2, 0): -1, (0, 2): 12,
                      (1, 1): Fraction(5, 4)})
    assert render(q) == "-x1^2 + 5/4*x1*x2 + 12*x2^2 - 7/3*x1 + x2 - 1"
    assert render(MultiPoly.constant(2, Fraction(-3, 8))) == "-3/8"
    assert render(MultiPoly.constant(2, 1)) == "1"
    assert_renders_as_before(q)


def test_render_of_gaussian_coefficients_is_unchanged():
    half = Fraction(1, 2)
    q = MultiPoly(4, {(1, 0, 0, 0): GaussianRational(half, -3),
                      (0, 1, 0, 0): GaussianRational(0, -1),
                      (0, 0, 1, 0): GaussianRational(0, Fraction(2, 3)),
                      (0, 0, 0, 1): GaussianRational(-2, 1),
                      (0, 0, 0, 0): GaussianRational(0, 1)}, 2)
    assert render(q) == "(1/2-3*i)*z1 - i*z2 + 2/3*i*zb1 + (-2+i)*zb2 + i"
    assert_renders_as_before(q)


@given(st.data())
def test_equal_polynomials_at_different_widths_compare_and_hash_equal(data):
    (num_vars, num_complex), a = draw_ring_and_poly(
        data, RINGS[1:], exponents=small_exponents)
    exponent = data.draw(st.sampled_from(BOUNDARY_EXPONENTS[3:]))
    wide = MultiPoly(num_vars, {(exponent,) + (0,) * (num_vars - 1): 1},
                     num_complex)
    b = (a + wide) - wide
    assert b._width > a._width      # the same terms, held at two widths
    assert typed(b.terms) == typed(a.terms)
    assert a == b and b == a and hash(a) == hash(b)
    assert a + wide != a and (a + wide) - a == wide
