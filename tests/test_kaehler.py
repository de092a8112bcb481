import random
from fractions import Fraction

import pytest

from calculus_oracle import matrix_evaluate
from exact_oracle import bilinear_dot
from morphlift.calculus import complex_gradient, jacobian
from morphlift.catalog import (
    EXPECTED_GRADIENTS,
    KAEHLER_POINTS,
    KAEHLER_REPAIR_POINT,
)
from morphlift.exact import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    conjugate,
)
from morphlift.kaehler import (
    INCONCLUSIVE,
    NOT_KAEHLER,
    complex_point_to_real,
    search_points,
    span_report,
)
from morphlift.mapfile import parse_map
from morphlift.maps import RealPolyMap, ShapeError, real_identification
from morphlift.poly import MultiPoly

I = GaussianRational(0, 1)


def _gradients(phi, points) -> tuple:
    return span_report(phi, points).gradients


def test_gradient_at_listed_points_matches_confirmed_vectors(phi_r16_real):
    assert _gradients(phi_r16_real, KAEHLER_POINTS) == \
        tuple(map(tuple, EXPECTED_GRADIENTS))


def test_gradient_at_independent_product_rule_oracle(phi_r16_real, q_r_complex):
    # independent derivation: Phi = A*B, so grad Phi = B*grad A + A*grad B,
    # with grad A, grad B computed from scratch by Wirtinger-to-real
    # conversion of the two bilinear factors
    factors = q_r_complex.components
    factor_maps = [real_identification(type(q_r_complex)(8, 1, [c]))
                   for c in factors]
    grad_polys = [complex_gradient(f) for f in factor_maps]
    expected = []
    for point in KAEHLER_POINTS:
        real_point = complex_point_to_real(point)
        z_and_zb = tuple(point) + tuple(conjugate(z) for z in point)
        a_value = factors[0].evaluate(z_and_zb)
        b_value = factors[1].evaluate(z_and_zb)
        expected.append(tuple(
            b_value * ga.evaluate(real_point) + a_value * gb.evaluate(real_point)
            for ga, gb in zip(grad_polys[0], grad_polys[1])))
    assert _gradients(phi_r16_real, KAEHLER_POINTS) == tuple(expected)


def test_gradient_point_length_checked(phi_r16_real):
    with pytest.raises(DimensionMismatch):
        span_report(phi_r16_real, [(0, 0, 1)])


def test_gradient_of_constant_map_is_zero():
    constant = RealPolyMap(4, 2, [MultiPoly.constant(4, 3),
                                  MultiPoly.constant(4, 0)])
    assert _gradients(constant, [(1, I)]) == ((0, 0, 0, 0),)


# ---------------------------------------------------------------------------
# Span reports on the printed witness set
# ---------------------------------------------------------------------------

def test_paper_eight_points_are_orthogonal_but_dependent(phi_r16_real):
    # the printed claim of independence fails once the gradient typo is
    # corrected: the true eight gradients satisfy an exact linear relation
    report = span_report(phi_r16_real, KAEHLER_POINTS[:8])
    assert report.isotropy_ok
    assert report.pairwise_orthogonal
    assert report.rank == 7
    assert report.verdict == INCONCLUSIVE
    grads = report.gradients
    relation = [-1, -I, -I, 1, 0, 0, 1, 1]
    for position in range(16):
        total = sum(c * g[position] for c, g in zip(relation, grads))
        assert total == 0


def test_paper_nine_points_reach_rank_8_only(phi_r16_real):
    report = span_report(phi_r16_real, KAEHLER_POINTS)
    assert report.rank == 8
    assert report.verdict == INCONCLUSIVE
    assert report.isotropy_ok


def test_repair_point_certifies_not_kaehler(phi_r16_real):
    report = span_report(phi_r16_real,
                         KAEHLER_POINTS + (KAEHLER_REPAIR_POINT,))
    assert report.rank == 9
    assert report.verdict == NOT_KAEHLER
    assert report.isotropy_ok


def test_jacobian_ranks_recorded(phi_r16_real):
    report = span_report(phi_r16_real, KAEHLER_POINTS[:3])
    assert report.jacobian_ranks == (2, 2, 2)


def test_holomorphic_map_gradients_stay_low_rank():
    zw = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }"))
    points = [(1, 0), (0, 1), (1, 1), (I, 1), (1, I), (I, I)]
    report = span_report(zw, points)
    assert report.rank <= 2
    assert report.verdict == INCONCLUSIVE


def test_span_report_gradients_and_ranks_match_oracles():
    phi = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2)^2; }"))
    rng = random.Random(5)
    alphabet = (0, 1, -1, I, Fraction(1, 2), GaussianRational(Fraction(-2, 3), 3))
    points = [tuple(rng.choice(alphabet) for _ in range(2)) for _ in range(12)]
    report = span_report(phi, points)
    gradient = complex_gradient(phi)
    assert report.gradients == tuple(
        tuple(g.evaluate(complex_point_to_real(p)) for g in gradient)
        for p in points)
    assert report.jacobian_ranks == tuple(
        ExactMatrix(matrix_evaluate(jacobian(phi), complex_point_to_real(p))).rank()
        for p in points)


def test_span_report_needs_two_components():
    phi = parse_map("map f: R^2 -> R^3 { f1 = x1; f2 = x2; f3 = x1*x2; }")
    with pytest.raises(ShapeError):
        span_report(phi, [(1,)])


def test_empty_point_list():
    zw = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }"))
    report = span_report(zw, [])
    assert report.rank == 0
    assert report.verdict == INCONCLUSIVE


# ---------------------------------------------------------------------------
# Isotropy is forced for complex-valued harmonic morphisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "map f: C^2 -> C^1 { f1 = z1*z2; }",
    "map f: C^2 -> C^1 { f1 = z1*conj(z2); }",
])
def test_catalog_morphism_gradients_are_isotropic(source):
    phi = real_identification(parse_map(source))
    rng = random.Random(4)
    points = [tuple(GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(2)) for _ in range(6)]
    for gradient in _gradients(phi, points):
        assert bilinear_dot(gradient, gradient) == 0


def test_phi_r16_gradients_are_isotropic_everywhere_sampled(phi_r16_real):
    rng = random.Random(9)
    points = [tuple(GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(8)) for _ in range(10)]
    for gradient in _gradients(phi_r16_real, points):
        assert bilinear_dot(gradient, gradient) == 0


# ---------------------------------------------------------------------------
# Rank behavior
# ---------------------------------------------------------------------------

def test_rank_monotone_and_permutation_invariant(phi_r16_real):
    ranks = []
    for count in range(1, len(KAEHLER_POINTS) + 1):
        ranks.append(span_report(phi_r16_real, KAEHLER_POINTS[:count]).rank)
    assert ranks == sorted(ranks)
    rng = random.Random(0)
    shuffled = list(KAEHLER_POINTS)
    rng.shuffle(shuffled)
    assert span_report(phi_r16_real, shuffled).rank == ranks[-1]


def test_verdict_stable_under_appending(phi_r16_real):
    certified = KAEHLER_POINTS + (KAEHLER_REPAIR_POINT,)
    extended = certified + ((1, 1, 1, 0, 0, 1, 0, 1),)
    assert span_report(phi_r16_real, certified).verdict == NOT_KAEHLER
    assert span_report(phi_r16_real, extended).verdict == NOT_KAEHLER


# ---------------------------------------------------------------------------
# Deterministic search
# ---------------------------------------------------------------------------

def test_search_certifies_phi_r16(phi_r16_real):
    report = search_points(phi_r16_real, budget=500, seed=0)
    assert report.verdict == NOT_KAEHLER
    assert report.rank == 9
    assert report.isotropy_ok


def test_search_is_deterministic(phi_r16_real):
    first = search_points(phi_r16_real, budget=200, seed=42)
    second = search_points(phi_r16_real, budget=200, seed=42)
    assert first.sample_points == second.sample_points
    assert first.rank == second.rank


def test_search_on_coordinate_map_inconclusive():
    coordinate = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1; }"))
    report = search_points(coordinate, budget=100, seed=1)
    assert report.verdict == INCONCLUSIVE
    assert report.rank == 1


def test_search_on_constant_map_inconclusive():
    constant = RealPolyMap(4, 2, [MultiPoly.constant(4, 2),
                                  MultiPoly.constant(4, 0)])
    report = search_points(constant, budget=50, seed=1)
    assert report.verdict == INCONCLUSIVE
    assert report.rank == 0
