import random

import pytest
from hypothesis import given, settings, strategies as st

from genmaps import random_complex_map, random_real_poly
from calculus_oracle import antiholomorphic_jacobian, is_zero_matrix
from morphlift.calculus import (
    complex_gradient,
    hessian,
    jacobian,
    laplacian,
)
from morphlift.exact import GaussianRational
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import RealPolyMap, ShapeError, real_identification
from morphlift.poly import MultiPoly, render

I = GaussianRational(0, 1)


def test_jacobian_of_linear_map_is_constant():
    phi = parse_map("map f: R^3 -> R^2 { f1 = 2*x1 - x3; f2 = x2; }")
    j = jacobian(phi)
    values = [[j[i][k].evaluate((9, 9, 9)) for k in range(3)] for i in range(2)]
    assert values == [[2, 0, -1], [0, 1, 0]]
    assert all(set(j[i][k].terms) == {(0, 0, 0)} for i in range(2)
               for k in range(3) if not j[i][k].is_zero)


def test_jacobian_rows_of_zwbar_real_form():
    zwbar = parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }")
    j = jacobian(real_identification(zwbar))
    assert [render(j[0][k]) for k in range(4)] == ["x3", "x4", "x1", "x2"]
    assert [render(j[1][k]) for k in range(4)] == ["-x4", "x3", "x2", "-x1"]


def test_jacobian_of_quadratic_map_rows():
    # rows are 2 X^t A_i for X^t A_i X components
    from genmaps import quadratic_map, random_symmetric_matrices
    rng = random.Random(3)
    matrices = random_symmetric_matrices(rng, 3, 2)
    phi = quadratic_map(matrices)
    j = jacobian(phi)
    for i, a in enumerate(matrices):
        for k in range(3):
            expected = MultiPoly(3, {})
            for l in range(3):
                expected = expected + MultiPoly.variable(3, l).scale(2 * a[l][k])
            assert j[i][k] == expected


def test_hessian_examples():
    assert hessian(parse_poly("x1*x2", 2))(0)[1].evaluate((0, 0)) == 1
    h = hessian(parse_poly("x1^2 + x2^2 - x3^2 - x4^2", 4))
    diag = [h(i)[i].evaluate((0,) * 4) for i in range(4)]
    assert diag == [2, 2, -2, -2]
    degree_one = hessian(parse_poly("3*x1 - x2", 2))
    assert degree_one(0) == degree_one(1) == {}      # no nonzero entry


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_hessian_symmetric_and_trace_is_laplacian(seed):
    poly = random_real_poly(random.Random(seed), 3, max_degree=4)
    h = hessian(poly)
    assert all(h(i).get(j) == h(j).get(i) for i in range(3) for j in range(3))
    assert all(p for i in range(3) for p in h(i).values())
    trace = MultiPoly(3, {})
    for i in range(3):
        trace = trace + h(i).get(i, MultiPoly(3, {}))
    assert trace == laplacian(poly)


def test_laplacian_examples():
    assert laplacian(parse_poly("x1^2 - x2^2", 2)).is_zero
    assert laplacian(parse_poly("x1^2 + x2^2", 2)) == MultiPoly.constant(2, 4)


def test_lift_components_are_harmonic(q_r_lift):
    assert all(laplacian(c).is_zero for c in q_r_lift.components)


def test_wirtinger_jacobian_of_quaternion(quaternion):
    q1 = quaternion.components[0]
    names = quaternion.names()
    assert [render(q1.partial(k), names) for k in range(4)] == \
        ["z3", "-zb4", "z1", "0"]
    anti = antiholomorphic_jacobian(quaternion)
    assert render(anti[0][3], names) == "-z2"
    assert anti[0][0].is_zero


def test_antiholomorphic_jacobian_of_holomorphic_map_is_zero():
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    assert is_zero_matrix(antiholomorphic_jacobian(zw))
    assert not is_zero_matrix(antiholomorphic_jacobian(
        parse_map("map f: C^1 -> C^1 { f1 = conj(z1); }")))


def test_complex_gradient_of_coordinate():
    phi = RealPolyMap(2, 2, [parse_poly("x1", 2), parse_poly("x2", 2)])
    grad = complex_gradient(phi)
    assert [g.evaluate((0, 0)) for g in grad] == [1, I]


def test_complex_gradient_of_constant_is_zero():
    phi = RealPolyMap(2, 2, [parse_poly("5", 2), parse_poly("0", 2)])
    assert all(g.is_zero for g in complex_gradient(phi))


def test_complex_gradient_needs_two_components():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1; }")
    with pytest.raises(ShapeError):
        complex_gradient(phi)


def test_complex_gradient_at_first_listed_point(phi_r16_real):
    grad = complex_gradient(phi_r16_real)
    point = (0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    # real coordinates of (0,0,1,0,1,0,0,1): interleave (re, im)
    point = []
    for z in (0, 0, 1, 0, 1, 0, 0, 1):
        point.extend((z, 0))
    values = [g.evaluate(tuple(point)) for g in grad]
    assert values == [1, I, 0, 0, 0, 0, 1, I, 0, 0, 1, I, 0, 0, 0, 0]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_holomorphic_real_jacobian_has_rotation_blocks(seed):
    # for holomorphic maps the real Jacobian consists of 2x2 blocks
    # [[a, -b], [b, a]] whose entries are the real and imaginary parts of
    # the Wirtinger entries
    rng = random.Random(seed)
    phi = random_complex_map(rng, 2, 2, max_degree=2, holomorphic_only=True)
    real = real_identification(phi)
    j = jacobian(real)
    for k in range(phi.codomain_dim):
        for l in range(phi.domain_dim):
            a = j[2 * k][2 * l]
            b = j[2 * k + 1][2 * l]
            assert j[2 * k][2 * l + 1] == -b
            assert j[2 * k + 1][2 * l + 1] == a
