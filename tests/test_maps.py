import random

import pytest
from hypothesis import given, settings, strategies as st

from genmaps import (
    random_complex_map,
    random_quadratic_map,
    random_rational_point,
    random_real_map,
)
from morphlift.exact import DimensionMismatch, GaussianRational
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import (
    ComplexPolyMap,
    RealPolyMap,
    complexify,
    compose,
    real_identification,
)
I = GaussianRational(0, 1)


def real_poly(text, num_vars):
    return parse_poly(text, num_vars)


# ---------------------------------------------------------------------------
# Real identification
# ---------------------------------------------------------------------------

def test_real_identification_of_zwbar():
    zwbar = parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }")
    real = real_identification(zwbar)
    assert real.components[0] == real_poly("x1*x3 + x2*x4", 4)
    assert real.components[1] == real_poly("-x1*x4 + x2*x3", 4)


def test_real_identification_of_identity():
    ident = parse_map("map f: C^1 -> C^1 { f1 = z1; }")
    real = real_identification(ident)
    assert real.components[0] == real_poly("x1", 2)
    assert real.components[1] == real_poly("x2", 2)


def test_quaternion_real_identification_jacobian_rows(quaternion_real):
    from morphlift.calculus import jacobian
    from morphlift.poly import render
    j = jacobian(quaternion_real)
    expected = [
        ["x5", "-x6", "-x7", "-x8", "x1", "-x2", "-x3", "-x4"],
        ["x6", "x5", "x8", "-x7", "x2", "x1", "-x4", "x3"],
        ["x7", "-x8", "x5", "x6", "x3", "x4", "x1", "-x2"],
        ["x8", "x7", "-x6", "x5", "x4", "-x3", "x2", "x1"],
    ]
    actual = [[render(j[i, k]) for k in range(8)] for i in range(4)]
    assert actual == expected


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_real_identification_preserves_evaluation(seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, 2, 2, max_degree=2)
    real = real_identification(phi)
    zpoint = tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                   for _ in range(2))
    conjugates = tuple(z.conjugate() for z in zpoint)
    complex_values = [c.evaluate(zpoint + conjugates) for c in phi.components]
    real_point = []
    for z in zpoint:
        real_point.extend((z.re, z.im))
    real_values = [c.evaluate(real_point) for c in real.components]
    for k, value in enumerate(complex_values):
        from morphlift.exact import imag_part, real_part
        assert real_values[2 * k] == real_part(value)
        assert real_values[2 * k + 1] == imag_part(value)


# ---------------------------------------------------------------------------
# Complexification
# ---------------------------------------------------------------------------

def test_complexify_identity_of_r2():
    ident = RealPolyMap(2, 2, [real_poly("x1", 2), real_poly("x2", 2)])
    complex_map = complexify(ident)
    assert complex_map.domain_dim == 1
    assert complex_map.components[0] == parse_poly("z1", 2, 1)


def test_complexify_rejects_odd_dimensions():
    phi = RealPolyMap(3, 2, [real_poly("x1", 3), real_poly("x2", 3)])
    with pytest.raises(DimensionMismatch):
        complexify(phi)
    phi = RealPolyMap(2, 1, [real_poly("x1", 2)])
    with pytest.raises(DimensionMismatch):
        complexify(phi)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_complexify_inverts_real_identification(seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, 2, 2, max_degree=2)
    assert complexify(real_identification(phi)) == phi


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_real_identification_inverts_complexify(seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, 2, 1, max_degree=2)
    real = real_identification(phi)
    assert real_identification(complexify(real)) == real


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_compose_with_identity():
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1^2 - x2; f2 = x1*x2; }")
    ident = parse_map("map g: R^2 -> R^2 { g1 = x1; g2 = x2; }")
    assert compose(ident, phi) == phi
    assert compose(phi, ident) == phi


def test_compose_univariate():
    square = parse_map("map f: R^1 -> R^1 { f1 = x1^2; }")
    shift = parse_map("map g: R^1 -> R^1 { g1 = x1 + 1; }")
    composed = compose(square, shift)
    assert composed.components[0] == real_poly("x1^2 + 2*x1 + 1", 1)


def test_compose_zw_after_lift_is_product_of_factors(q_r_complex, phi_r16):
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    composed = compose(zw, q_r_complex)
    assert composed == phi_r16
    assert composed.components[0] == \
        q_r_complex.components[0] * q_r_complex.components[1]


def test_compose_dimension_mismatch():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1; }")
    with pytest.raises(DimensionMismatch):
        compose(phi, phi)


def test_compose_kind_mismatch():
    real = parse_map("map f: R^2 -> R^2 { f1 = x1; f2 = x2; }")
    cplx = parse_map("map g: C^1 -> C^1 { g1 = z1; }")
    with pytest.raises(DimensionMismatch):
        compose(cplx, real)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_compose_associative(seed):
    rng = random.Random(seed)
    inner = random_real_map(rng, 2, 2, max_degree=2)
    middle = random_real_map(rng, 2, 3, max_degree=2)
    outer = random_real_map(rng, 3, 2, max_degree=2)
    assert compose(compose(outer, middle), inner) == \
        compose(outer, compose(middle, inner))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_complex_composition_matches_real_route(seed):
    # composing in the z/zb ring directly agrees with composing the real
    # identifications
    rng = random.Random(seed)
    inner = random_complex_map(rng, 2, 2, max_degree=2)
    outer = random_complex_map(rng, 2, 1, max_degree=2)
    direct = real_identification(compose(outer, inner))
    via_real = compose(real_identification(outer), real_identification(inner))
    assert direct == via_real


# ---------------------------------------------------------------------------
# Quadratic maps
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_euler_identity_for_quadratic_maps(seed):
    # J(phi)(x) * x = 2*phi(x) for homogeneous degree-2 maps
    from morphlift.calculus import jacobian
    rng = random.Random(seed)
    phi = random_quadratic_map(rng, 3, 2)
    point = random_rational_point(rng, 3)
    j = jacobian(phi)
    for i in range(phi.codomain_dim):
        contraction = sum(j[i, k].evaluate(point) * point[k] for k in range(3))
        assert contraction == 2 * phi.components[i].evaluate(point)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_random_quadratic_map_components_homogeneous(seed):
    rng = random.Random(seed)
    phi = random_quadratic_map(rng, 3, 2)
    for comp in phi.components:
        assert all(sum(e) == 2 for e in comp.terms)


# ---------------------------------------------------------------------------
# The two map kinds
# ---------------------------------------------------------------------------

def test_map_kinds_share_checks_equality_hash_and_repr():
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    real = real_identification(zw)
    assert repr(zw) == "ComplexPolyMap(C^2 -> C^1)"
    assert repr(real) == "RealPolyMap(R^4 -> R^2)"
    assert zw == parse_map("map g: C^2 -> C^1 { g1 = z2*z1; }")
    assert hash(zw) == hash(parse_map("map g: C^2 -> C^1 { g1 = z2*z1; }"))
    assert real == RealPolyMap(4, 2, real.components, ("a", "b", "c", "d"))
    # a real map never equals a complex one, even on the same variables
    ident_c = parse_map("map f: C^1 -> C^1 { f1 = z1; }")
    ident_r = RealPolyMap(2, 1, [real_poly("x1", 2)])
    assert ident_c != ident_r and ident_r != ident_c
    assert RealPolyMap(1, 0, []) != ComplexPolyMap(1, 0, [])
    for phi, name in ((zw, "ComplexPolyMap"), (real, "RealPolyMap")):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            phi.domain_dim = 7
    with pytest.raises(DimensionMismatch):
        RealPolyMap(2, 1, [parse_poly("z1", 2, 1)])
    with pytest.raises(DimensionMismatch):
        ComplexPolyMap(1, 1, [real_poly("x1", 2)])
    with pytest.raises(DimensionMismatch):
        RealPolyMap(2, 2, [real_poly("x1", 2)])
