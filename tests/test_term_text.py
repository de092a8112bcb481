"""Polynomial text comes from one term formatter, ``poly._signed_body``, and
one joining rule, ``poly._sum_text``.  ``render``, ``render_leading`` and
``render_fibered`` must write what the old bodies in ``poly_oracle`` write,
string for string; those formatted every coefficient through the old
``_render_coefficient``, whose rational branch read Gaussian coefficients
with imaginary part 0.  The formatter has no such branch, because no store
holds one: the invariant is checked here after every operation that makes
coefficients.  ``MultiPoly.constant`` and ``MultiPoly.variable`` build their
one packed key directly, and must give what the tuple constructor gives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import poly_oracle as oracle
from morphlift.exact import DimensionMismatch, GaussianRational as G
from morphlift.mapfile import parse_poly
from morphlift.poly import (
    MultiPoly,
    default_names,
    render,
    render_fibered,
    render_leading,
)
from morphlift import poly


def assert_renders_as_before(q, names=None):
    """render and render_leading of q give the old bodies' bytes."""
    old_names = names or default_names(q.num_vars, q.num_complex)
    assert render(q, names) == oracle.packed_render(q, names) == \
        oracle.render(dict(q.terms), q.num_vars, q.num_complex, old_names)
    assert render_leading(q) == oracle.packed_render_leading(q)


# Gaussian coefficients of every kind: +-i, +-N*i, +-N/d*i, and both parts
# nonzero, with either sign on each
GAUSSIANS = [G(0, 1), G(0, -1), G(0, 3), G(0, -3), G(0, Fraction(3, 2)),
             G(0, Fraction(-3, 2)), G(0, 10**30), G(1, 1), G(-1, -1),
             G(Fraction(1, 2), -3), G(-2, Fraction(2, 3)), G(5, Fraction(-1, 7))]


@pytest.mark.parametrize("coeff", GAUSSIANS, ids=map(str, GAUSSIANS))
@pytest.mark.parametrize("ring", [(2, 0), (4, 2)], ids=["real", "complex"])
def test_every_kind_of_gaussian_coefficient_renders_as_before(coeff, ring):
    num_vars, num_complex = ring
    lead = (3,) + (0,) * (num_vars - 1)
    for exponents in [(0,) * num_vars, (1,) + (0,) * (num_vars - 1),
                      (2, 1) + (0,) * (num_vars - 2)]:
        alone = MultiPoly(num_vars, {exponents: coeff}, num_complex)
        assert_renders_as_before(alone)
        assert_renders_as_before(alone, tuple(f"v{j}" for j in range(num_vars)))
        for sign in (1, -1):
            # the coefficient first, then after a leading term of either sign
            assert_renders_as_before(alone + MultiPoly(
                num_vars, {exponents[:-1] + (0,): sign}, num_complex))
            assert_renders_as_before(alone + MultiPoly(
                num_vars, {lead: sign}, num_complex))


@pytest.mark.parametrize("coeff,text", [
    (G(0, 1), "i*x1"), (G(0, -1), "-i*x1"), (G(0, 3), "3*i*x1"),
    (G(0, -3), "-3*i*x1"), (G(0, Fraction(-3, 2)), "-3/2*i*x1"),
    (G(1, -1), "(1-i)*x1"), (G(-1, 2), "(-1+2*i)*x1"),
])
def test_gaussian_terms_keep_their_sign_out_of_the_body(coeff, text):
    q = MultiPoly(2, {(1, 0): coeff})
    assert render(q) == text
    assert render(q - 4) == f"{text} - 4"
    head = "x1^2 - " + text[1:] if text[0] == "-" else "x1^2 + " + text
    assert render(q + MultiPoly(2, {(2, 0): 1})) == head
    assert render(MultiPoly.constant(2, coeff)) == text.removesuffix("*x1")


def test_the_first_term_keeps_its_minus():
    assert render(MultiPoly(2, {(1, 0): -1, (0, 1): 2})) == "-x1 + 2*x2"
    assert render(MultiPoly.constant(1, Fraction(-1, 3))) == "-1/3"
    assert render_leading(MultiPoly(2, {(1, 0): -1, (0, 1): -2, (0, 0): 3})) == \
        (1, "-x1 - 2*x2")
    assert render_fibered(MultiPoly(2, {(0, 1): G(0, -1)}), ("x", "y")) == \
        ("-i*y", ["-i"])


def test_the_zero_polynomial():
    for ring in [(0, 0), (3, 0), (4, 2)]:
        zero = MultiPoly(ring[0], {}, ring[1])
        assert render(zero) == "0"
        assert render_leading(zero) == (0, "0")
        assert_renders_as_before(zero)
    assert render_fibered(MultiPoly(4, {}), default_names(4)) == ("0", ["0", "0"])


# exponents on each side of the one- and two-byte field limits
exponents = st.one_of(st.integers(0, 3), st.sampled_from((255, 256, 300, 65536)))
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coefficients = st.one_of(
    st.sampled_from((1, -1, 2, -3)), st.integers(-10**6, 10**6), rationals,
    st.sampled_from(GAUSSIANS), st.builds(G, rationals, rationals))


@st.composite
def fibered_polys(draw):
    """A polynomial on R^{2m}, m = 1..3, of fiber degree 1: sum_j M_j y_j."""
    m = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(st.tuples(*[exponents] * m), st.integers(0, m - 1)),
        coefficients, max_size=8))
    return MultiPoly(2 * m, {x + tuple(int(k == j) for k in range(m)): c
                             for (x, j), c in terms.items()})


@given(q=fibered_polys(), named=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fibered_render_matches_the_old_bodies(q, named):
    names = (tuple(f"v{j}" for j in range(q.num_vars)) if named
             else default_names(q.num_vars))
    assert render_fibered(q, names) == oracle.fibered_render(q, names)
    assert_renders_as_before(q, names)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_render_matches_the_old_bodies_in_every_ring(data):
    num_vars, num_complex = data.draw(st.sampled_from(
        [(0, 0), (1, 0), (3, 0), (2, 1), (4, 2)]))
    q = MultiPoly(num_vars, data.draw(st.dictionaries(
        st.tuples(*[exponents] * num_vars), coefficients, max_size=8)),
        num_complex)
    assert_renders_as_before(q)


# ---------------------------------------------------------------------------
# No store holds a Gaussian coefficient whose imaginary part is 0
# ---------------------------------------------------------------------------

def assert_no_real_gaussian(q):
    assert not [c for c in q._terms.values()
                if type(c) is G and c.im == 0], render(q)


small = st.integers(0, 1)
gaussian_parts = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
scalars = st.one_of(st.integers(-3, 3), rationals,
                    st.builds(G, gaussian_parts, gaussian_parts))


def complex_polys(num_complex=2):
    return st.dictionaries(st.tuples(*[small] * (2 * num_complex)), scalars,
                           max_size=3).map(
        lambda terms: MultiPoly(2 * num_complex, terms, num_complex))


@given(a=complex_polys(), b=complex_polys(), factor=scalars,
       power=st.integers(0, 3), variable=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_no_operation_stores_a_gaussian_with_imaginary_part_0(
        a, b, factor, power, variable):
    a_bar = a.conjugate_poly()
    results = [a, b, a + b, a - b, b - a, a * b, a * a_bar, a + a_bar,
               a - a_bar, a.scale(factor), a * factor, a + factor,
               a ** power, (a + a_bar) ** power, a.partial(variable),
               *a.gradient(), *(a * a_bar).gradient(), a_bar,
               a.compose([b, a, b.conjugate_poly(), a_bar]),
               a_bar.compose([a, b, a_bar, b.conjugate_poly()]),
               a.complete_lift(), (a * a_bar).complete_lift(),
               MultiPoly.constant(4, factor, 2)]
    for q in results:
        assert_no_real_gaussian(q)


@pytest.mark.parametrize("text", [
    "(1+0*i)*z1", "i*i*z1", "(1+i)*(1-i)*z1", "(2+3*i)*z1 - 3*i*z1",
    "i*z1*zb1 - i*zb1*z1 + 2", "(z1 + i*z2)*(z1 - i*z2)", "(i*z1)^2 + z1^2",
])
def test_parsed_text_stores_no_gaussian_with_imaginary_part_0(text):
    q = parse_poly(text, 4, 2)
    assert_no_real_gaussian(q)
    assert_renders_as_before(q)


def test_the_tuple_constructor_demotes_a_real_gaussian():
    q = MultiPoly(4, {(1, 0, 0, 0): G(3, 0), (0, 0, 0, 0): G(Fraction(4, 2), 0)}, 2)
    assert [type(c) for c in q._terms.values()] == [int, int]
    assert render(q) == "3*z1 + 2"


# ---------------------------------------------------------------------------
# MultiPoly.constant and MultiPoly.variable build their one key directly
# ---------------------------------------------------------------------------

RINGS = [(0, 0), (1, 0), (3, 0), (2, 1), (8, 4), (300, 0), (600, 300)]


def _stored(q):
    return (q.num_vars, q.num_complex, q._width, q._bound,
            [(key, c, type(c)) for key, c in q._terms.items()])


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_constant_and_variable_match_the_tuple_constructor(ring):
    num_vars, num_complex = ring
    for value in (0, 1, -3, Fraction(2, 4), Fraction(6, 3), G(0, 1),
                  G(Fraction(1, 2), -1), G(5, 0), G(0, 0), 2.5):
        assert _stored(MultiPoly.constant(num_vars, value, num_complex)) == \
            _stored(MultiPoly(num_vars, {(0,) * num_vars: value}, num_complex))
    for index in sorted({0, 1, num_vars // 2, num_vars - 2, num_vars - 1}):
        if 0 <= index < num_vars:
            exponents = tuple(int(j == index) for j in range(num_vars))
            assert _stored(MultiPoly.variable(num_vars, index, num_complex)) == \
                _stored(MultiPoly(num_vars, {exponents: 1}, num_complex))


def test_constant_and_variable_never_call_from_tuples(monkeypatch):
    def refuse(*args):
        raise AssertionError("_from_tuples called")

    monkeypatch.setattr(poly, "_from_tuples", refuse)
    assert MultiPoly.variable(4096, 4095)._terms == {1 << 8 * 4095: 1}
    assert MultiPoly.variable(8192, 0, 4096)._terms == {1: 1}
    assert MultiPoly.constant(8192, G(0, 2), 4096)._terms == {0: G(0, 2)}
    assert MultiPoly.constant(4096, 0).is_zero


@pytest.mark.parametrize("build,message", [
    (lambda: MultiPoly.variable(3, 3), "variable index 3 out of range"),
    (lambda: MultiPoly.variable(3, -1), "variable index -1 out of range"),
    (lambda: MultiPoly.variable(0, 0), "variable index 0 out of range"),
    (lambda: MultiPoly.variable(3, 1, 2),
     "complex ring with 2 pairs needs 4 variables, got 3"),
    (lambda: MultiPoly.constant(3, 1, 2),
     "complex ring with 2 pairs needs 4 variables, got 3"),
])
def test_constant_and_variable_keep_their_error_messages(build, message):
    with pytest.raises(DimensionMismatch) as raised:
        build()
    assert str(raised.value) == message
