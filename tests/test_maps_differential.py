"""Differential tests of ``real_identification`` and ``complexify``, which
expand each conjugate pair in closed form, against ``maps_oracle``: the
bodies that substituted through ``MultiPoly.compose`` (values and
coefficient types, term for term) and the double binomial sum in the
kernel's documented order (the dict order too).  Also the expansion rows at
the pair-degree limit against exact evaluation at Gaussian-integer points,
which shares no code with them."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import maps_oracle as oracle
from genmaps import random_complex_map, random_real_map
from morphlift.catalog import entry_ids, lookup
from morphlift.exact import GaussianRational, imag_part, real_part
from morphlift.mapfile import parse_map
from morphlift.maps import (
    MAX_PAIR_DEGREE,
    ComplexPolyMap,
    RealPolyMap,
    complexify,
    real_identification,
)
from morphlift.poly import MultiPoly, _pair_row

SETTINGS = settings(max_examples=60, deadline=2000)

rationals = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([10 ** 30, Fraction(-7, 10 ** 12)]))
gaussians = st.builds(GaussianRational, rationals, rationals)
coefficients = st.one_of(rationals, gaussians)


@st.composite
def polys(draw, num_vars, num_complex, scalars, max_exponent=4):
    """A polynomial of up to 6 terms; a mixed z_k^a*zb_k^b pair is likely
    in a complex ring, and a constant or zero polynomial comes up too."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exponents = draw(st.lists(st.integers(0, max_exponent),
                                  min_size=num_vars, max_size=num_vars))
        terms[tuple(exponents)] = draw(scalars)
    if draw(st.booleans()):
        terms[(0,) * num_vars] = draw(scalars)
    return MultiPoly(num_vars, terms, num_complex)


@st.composite
def complex_maps(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    return ComplexPolyMap(m, n, [draw(polys(2 * m, m, coefficients))
                                 for _ in range(n)])


@st.composite
def real_maps(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    return RealPolyMap(2 * m, 2 * n, [draw(polys(2 * m, 0, rationals, 3))
                                      for _ in range(2 * n)])


def typed(poly):
    """The terms in dict order, each with its coefficient's type."""
    return [(e, c, type(c)) for e, c in poly.terms.items()]


def assert_same_terms(result, expected):
    """Equal maps whose components have the same terms and types, in any
    order."""
    assert result == expected
    for got, want in zip(result.components, expected.components, strict=True):
        assert sorted(typed(got)) == sorted(typed(want))


def assert_same_order(result, expected):
    """The same terms and types in the same dict order."""
    assert result == expected
    for got, want in zip(result.components, expected.components, strict=True):
        assert typed(got) == typed(want)


def assert_identifies_as_oracles(phi):
    real = real_identification(phi)
    assert_same_terms(real, oracle.real_identification(phi))
    assert_same_order(real, oracle.pairwise_real_identification(phi))
    return real


def assert_complexifies_as_oracles(phi_r):
    joined = complexify(phi_r)
    assert_same_terms(joined, oracle.complexify(phi_r))
    assert_same_order(joined, oracle.pairwise_complexify(phi_r))
    return joined


# ---------------------------------------------------------------------------
# Against the oracles
# ---------------------------------------------------------------------------

@SETTINGS
@given(complex_maps())
def test_real_identification_matches_the_oracles_and_complexify_inverts_it(
        phi):
    assert complexify(assert_identifies_as_oracles(phi)) == phi


@SETTINGS
@given(real_maps())
def test_complexify_matches_the_oracles_and_real_identification_inverts_it(
        phi_r):
    assert real_identification(assert_complexifies_as_oracles(phi_r)) == phi_r


@pytest.mark.parametrize("seed", range(10))
def test_seeded_maps_match_the_oracles(seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, rng.randint(1, 3), rng.randint(1, 2),
                             max_degree=rng.randint(2, 5))
    real = assert_identifies_as_oracles(phi)
    assert assert_complexifies_as_oracles(real) == phi
    phi_r = random_real_map(rng, 2 * rng.randint(1, 3), 2, max_degree=3)
    assert_complexifies_as_oracles(phi_r)


def test_catalog_maps_match_the_oracles():
    parsed = [parse_map(lookup(entry).definition) for entry in entry_ids()]
    complex_maps = [phi for phi in parsed if isinstance(phi, ComplexPolyMap)]
    assert len(complex_maps) >= 4
    for phi in complex_maps:
        real = assert_identifies_as_oracles(phi)
        assert assert_complexifies_as_oracles(real) == phi


def test_constant_and_zero_components():
    phi = parse_map("map f: C^2 -> C^3 { f1 = 0; f2 = 3/2 - 2*i; "
                    "f3 = z1*zb1 - z2*zb2; }")
    real = assert_identifies_as_oracles(phi)
    assert [len(c.terms) for c in real.components] == [0, 0, 1, 1, 4, 0]
    assert assert_complexifies_as_oracles(real) == phi


def test_terms_that_cancel_and_return_go_last():
    # zb1^2 - z1^2 = -4*i*x1*x2: x1^2 and x2^2 cancel, and z1*zb1 =
    # x1^2 + x2^2 brings them back after the constant
    phi = parse_map("map f: C^1 -> C^1 { f1 = zb1^2 - z1^2 + 3 + z1*zb1; }")
    real = assert_identifies_as_oracles(phi)
    assert [list(c.terms.items()) for c in real.components] == [
        [((0, 0), 3), ((2, 0), 1), ((0, 2), 1)], [((1, 1), -4)]]


def test_neither_function_calls_compose(monkeypatch):
    calls = []
    compose = MultiPoly.compose

    def counted(self, values):
        calls.append(self)
        return compose(self, values)

    monkeypatch.setattr(MultiPoly, "compose", counted)
    phi = parse_map(lookup("ex1.4.iii-quaternion").definition)
    real = real_identification(phi)
    assert complexify(real) == phi
    assert calls == []
    oracle.real_identification(phi)
    assert len(calls) == len(phi.components)


# ---------------------------------------------------------------------------
# Expansion rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, b", [(a, b) for a in range(7) for b in range(7)]
                         + [(97, 0), (0, 61), (40, 39), (25, 70)])
def test_rows_are_the_coefficients_of_the_binomial_product(a, b):
    assert _pair_row(a, b) == oracle.double_binomial(a, b)


POINTS = [GaussianRational(2, 1), GaussianRational(-1, 3),
          GaussianRational(1, -1), GaussianRational(0, 2)]


@pytest.mark.parametrize("source", [
    "map f: C^1 -> C^1 { f1 = z1^1000; }",
    "map f: C^1 -> C^1 { f1 = z1^450*zb1^450; }",
    "map f: C^2 -> C^1 { f1 = z2^600*zb2^400 - 3*i*z1*zb1; }",
    "map f: C^2 -> C^1 { f1 = (2 - i)*z1^3*zb1^997 + 1/3*z2^999*zb1; }",
], ids=["z1^1000", "z1^450*zb1^450", "z2^600*zb2^400", "mixed"])
def test_rows_at_the_pair_limit_agree_with_exact_evaluation(source):
    phi = parse_map(source)
    terms = phi.components[0].terms
    assert max(e[k] + e[phi.domain_dim + k] for e in terms
               for k in range(phi.domain_dim)) <= MAX_PAIR_DEGREE
    u, v = real_identification(phi).components
    rng = random.Random(source)
    for _ in range(3):
        z = [rng.choice(POINTS) for _ in range(phi.domain_dim)]
        value = phi.components[0].evaluate(z + [w.conjugate() for w in z])
        x = [part for w in z for part in (w.re, w.im)]
        assert u.evaluate(x) == real_part(value)
        assert v.evaluate(x) == imag_part(value)
