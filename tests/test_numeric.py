import math
import random
from fractions import Fraction

import pytest

from expr_oracle import poly_to_expr
from morphlift.expr import SmoothMap
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map
from morphlift.maps import RealPolyMap, real_identification
from morphlift.numeric import (
    SamplingError,
    numeric_check,
    numeric_complete_lift,
    sample_points,
)


def _as_smooth(real_map) -> SmoothMap:
    return SmoothMap(real_map.domain_dim,
                     tuple(poly_to_expr(c) for c in real_map.components))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_respects_guards(stereographic):
    points = sample_points(stereographic, 100, seed=7)
    assert len(points) == 100
    for point in points:
        r = math.sqrt(sum(x * x for x in point))
        assert r - point[2] >= 1e-6


def test_sampling_count_zero():
    assert sample_points(_as_smooth(real_identification(
        parse_map("map f: C^1 -> C^1 { f1 = z1; }"))), 0, 1) == []


def test_sampling_negative_count_is_an_error(stereographic):
    with pytest.raises(ValueError, match="^cannot sample -3 points$"):
        sample_points(stereographic, -3, seed=1)


def test_sampling_unsatisfiable_guard_fails():
    # the guard -x1^2 is positive at no point, so every draw is rejected
    phi = parse_map("map f: R^2 -> R^1 { f1 = x2/x1; guard -x1^2; }")
    with pytest.raises(SamplingError, match="^rejected 1000 of 1000 draws"):
        sample_points(phi, 10, seed=0)


def test_sampling_deterministic(stereographic):
    first = sample_points(stereographic, 25, seed=3)
    second = sample_points(stereographic, 25, seed=3)
    assert first == second


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------

def test_stereographic_is_numerically_a_morphism(stereographic):
    points = sample_points(stereographic, 100, seed=7)
    report = numeric_check(stereographic, points, 1e-8)
    assert report.verdict
    assert max(report.laplacian_residuals) <= 1e-8
    assert report.conformality_residual <= 1e-8


def test_numeric_check_without_points_is_an_error(stereographic):
    # no evidence must not read as a pass
    with pytest.raises(ValueError, match="^numeric_check needs at least one point$"):
        numeric_check(stereographic, [], 1e-8)


def test_laplacian_failure_is_detected():
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1^2; f2 = x2; guard x1 + 10; }")
    assert isinstance(phi, SmoothMap)
    points = sample_points(phi, 20, seed=1)
    report = numeric_check(phi, points, 1e-8)
    assert not report.verdict
    assert max(report.laplacian_residuals) == pytest.approx(2.0, abs=1e-9)
    assert report.witness_point is not None


def test_projection_passes_with_unit_dilation():
    projection = _as_smooth(parse_map("map p: R^4 -> R^2 { p1 = x1; p2 = x2; }"))
    points = sample_points(projection, 50, seed=2)
    report = numeric_check(projection, points, 1e-8)
    assert report.verdict
    assert report.conformality_residual < 1e-12


def test_rotationally_symmetric_harmonic_morphism_passes():
    zw = _as_smooth(real_identification(
        parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")))
    points = sample_points(zw, 50, seed=5)
    report = numeric_check(zw, points, 1e-10)
    assert report.verdict


# ---------------------------------------------------------------------------
# Numeric complete lift
# ---------------------------------------------------------------------------

def test_stereographic_lift_fails_conformality(stereographic):
    lift = numeric_complete_lift(stereographic)
    points = sample_points(lift, 100, seed=7)
    report = numeric_check(lift, points, 1e-8)
    assert not report.verdict
    assert report.conformality_residual >= 1e-3
    # yet it stays harmonic (the lift of a harmonic map)
    assert max(report.laplacian_residuals) <= 1e-8


def test_lift_of_linear_smooth_map_passes():
    linear = _as_smooth(parse_map("map f: R^2 -> R^2 { f1 = x1 + x2; f2 = x1 - x2; }"))
    lift = numeric_complete_lift(linear)
    points = sample_points(lift, 30, seed=4)
    report = numeric_check(lift, points, 1e-10)
    assert report.verdict


def test_numeric_lift_agrees_with_exact_lift():
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1^2 - x2^2; f2 = 2*x1*x2; }")
    smooth = _as_smooth(phi)
    numeric_lift = numeric_complete_lift(smooth)
    exact_lift = complete_lift_real(phi)
    rng = random.Random(8)
    from morphlift.expr import eval_float
    for _ in range(25):
        point = [rng.uniform(-2, 2) for _ in range(4)]
        for k, comp in enumerate(exact_lift.components):
            exact_value = sum(
                float(coeff) * math.prod(point[j] ** e
                                         for j, e in enumerate(exponents))
                for exponents, coeff in comp.terms.items())
            numeric_value = eval_float(numeric_lift.components[k], point).real
            assert abs(numeric_value - exact_value) <= 1e-12 * max(1.0, abs(exact_value))


def test_guards_are_inherited_by_the_lift(stereographic):
    lift = numeric_complete_lift(stereographic)
    assert lift.guards == stereographic.guards
    assert lift.domain_dim == 2 * stereographic.domain_dim


# ---------------------------------------------------------------------------
# Exact/float pipeline agreement
# ---------------------------------------------------------------------------

def test_polynomial_morphism_residuals_tiny_in_unit_box():
    # phi/2 on the sampling box [-2, 2]^4 has at each draw exactly the
    # Jacobian of phi at the unit-box draw it doubles, as phi is quadratic:
    # the residuals are those of phi on [-1, 1]^4
    phi = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }"))
    smooth = _as_smooth(RealPolyMap(4, 2, [c.scale(Fraction(1, 2))
                                           for c in phi.components]))
    points = sample_points(smooth, 50, seed=6)
    report = numeric_check(smooth, points, 1e-10)
    assert report.verdict
    assert max(report.laplacian_residuals) <= 1e-10
    assert report.conformality_residual <= 1e-10


def test_determinism_of_reports(stereographic):
    points = sample_points(stereographic, 40, seed=10)
    first = numeric_check(stereographic, points, 1e-8)
    second = numeric_check(stereographic, points, 1e-8)
    assert first == second
