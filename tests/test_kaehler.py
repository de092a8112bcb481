import dataclasses
import random
from fractions import Fraction

import pytest

import exact_oracle
from calculus_oracle import matrix_evaluate
from exact_oracle import bilinear_dot
from morphlift import kaehler
from morphlift.calculus import complex_gradient, jacobian, jacobian_at
from morphlift.catalog import (
    EXPECTED_GRADIENTS,
    KAEHLER_POINTS,
    KAEHLER_REPAIR_POINT,
)
from morphlift.exact import (
    DimensionMismatch,
    Echelon,
    ExactMatrix,
    GaussianRational,
    conjugate,
)
from morphlift.kaehler import (
    INCONCLUSIVE,
    NOT_KAEHLER,
    KaehlerReport,
    complex_point_to_real,
    search_points,
    span_report,
)
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map
from morphlift.maps import RealPolyMap, ShapeError, real_identification
from morphlift.poly import MultiPoly

I = GaussianRational(0, 1)


@pytest.fixture(scope="module")
def phi_r32_real(phi_r16_real):
    return complete_lift_real(phi_r16_real)


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


def _assert_jacobian_ranks_match_oracle(phi, points, report):
    assert report.jacobian_ranks == tuple(
        exact_oracle.rank(ExactMatrix(
            matrix_evaluate(jacobian(phi), complex_point_to_real(p))))
        for p in points)


def test_span_report_gradients_and_ranks_match_oracles():
    phi = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2)^2; }"))
    rng = random.Random(5)
    alphabet = (0, 1, -1, I, Fraction(1, 2), GaussianRational(Fraction(-2, 3), 3))
    points = [tuple(rng.choice(alphabet) for _ in range(2)) for _ in range(12)]
    # every partial of z1*conj(z2)^2 vanishes where z2 = 0
    points += [(1, 0), (0, 0), (GaussianRational(Fraction(1, 3), 2), 0)]
    report = span_report(phi, points)
    gradient = complex_gradient(phi)
    assert report.gradients == tuple(
        tuple(g.evaluate(complex_point_to_real(p)) for g in gradient)
        for p in points)
    _assert_jacobian_ranks_match_oracle(phi, points, report)
    assert report.jacobian_ranks[-3:] == (0, 0, 0)
    assert 2 in report.jacobian_ranks


def test_jacobian_ranks_of_parallel_and_vanishing_rows_match_oracle():
    # the second component is 3 times the first, so the two real Jacobian
    # rows are parallel: rank 1 where they are nonzero, 0 where both vanish
    phi = parse_map("map f: R^4 -> R^2 { f1 = x1*x3 + x2^2 + x4^3; "
                    "f2 = 3*x1*x3 + 3*x2^2 + 3*x4^3; }")
    points = [(1, 0), (0, I), (GaussianRational(1, 2), Fraction(1, 3)),
              (GaussianRational(0, 4), Fraction(1, 4)), (0, 0), (-1, I)]
    report = span_report(phi, points)
    _assert_jacobian_ranks_match_oracle(phi, points, report)
    assert report.jacobian_ranks == (1, 1, 1, 1, 0, 1)


def test_jacobian_ranks_match_oracle_at_seeded_points():
    # maps whose Jacobian has rank 2, 1 or 0 at some of the points: generic,
    # parallel rows, and partials that vanish together
    maps = [
        "map f: R^4 -> R^2 { f1 = x1*x3 - x2^2 + 2*x4; f2 = x1^2*x4 + x3; }",
        "map f: R^4 -> R^2 { f1 = x1*x3 + x2^2; f2 = -2*x1*x3 - 2*x2^2; }",
        "map f: R^4 -> R^2 { f1 = x1^2*x2 + x3*x4^2; f2 = x1*x2^2 - x3^2*x4; }",
    ]
    alphabet = (0, 0, 1, -1, I, -I, Fraction(1, 2), GaussianRational(Fraction(2, 3), -1))
    seen = set()
    for seed in range(6):
        rng = random.Random(seed)
        for source in maps:
            phi = parse_map(source)
            points = [tuple(rng.choice(alphabet) for _ in range(2)) for _ in range(10)]
            report = span_report(phi, points)
            _assert_jacobian_ranks_match_oracle(phi, points, report)
            seen.update(report.jacobian_ranks)
    assert seen == {0, 1, 2}


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


def test_search_evaluates_each_drawn_point_once_and_ranks_no_matrix(
        phi_r32_real, monkeypatch):
    # each candidate is evaluated once and reduced once, through one
    # echelon; the report reads the kept points' rows, and its rank is the
    # number of kept points, so no matrix is ranked
    calls, evaluated, ranked = [], [], []

    def counted(phi, points):
        calls.append(phi)
        return jacobian_at(phi, (evaluated.append(p) or p for p in points))

    monkeypatch.setattr(kaehler, "jacobian_at", counted)
    monkeypatch.setattr(ExactMatrix, "rank", ranked.append)
    Phi = phi_r32_real
    report = search_points(Phi, budget=500, seed=0)
    assert report.verdict == NOT_KAEHLER
    assert ranked == [] and calls == [Phi]
    m = Phi.domain_dim // 2
    rng = random.Random(0)
    drawn = [complex_point_to_real(tuple(rng.choice(kaehler._ALPHABET)
                                         for _ in range(m)))
             for _ in range(500)]
    assert evaluated == drawn[:len(evaluated)]
    # the search stops at the point that takes the rank past m
    assert evaluated[-1] == complex_point_to_real(report.sample_points[-1])
    assert report.rank == len(report.sample_points) == m + 1 == 17


def _reports_equal(Phi, report):
    again = span_report(Phi, report.sample_points)
    for field in dataclasses.fields(KaehlerReport):
        assert getattr(report, field.name) == getattr(again, field.name), field.name


@pytest.mark.parametrize("seed", range(10))
def test_search_report_equals_span_report_on_its_points(phi_r16_real, phi_r32_real,
                                                       seed):
    for Phi in (phi_r16_real, phi_r32_real):
        report = search_points(Phi, budget=500, seed=seed)
        assert report.verdict == NOT_KAEHLER
        _reports_equal(Phi, report)


@pytest.mark.parametrize("seed", range(10))
def test_search_report_on_coordinate_and_constant_maps(seed):
    coordinate = real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1; }"))
    constant = RealPolyMap(4, 2, [MultiPoly.constant(4, 2),
                                  MultiPoly.constant(4, 0)])
    for Phi, rank in ((coordinate, 1), (constant, 0)):
        report = search_points(Phi, budget=100, seed=seed)
        assert (report.rank, report.verdict) == (rank, INCONCLUSIVE)
        _reports_equal(Phi, report)


def test_only_rank_deficient_spans_reach_the_echelon(phi_r16_real, monkeypatch):
    # the rank mod p decides every matrix of full rank; only the rows of a
    # gradient set of rank at most m go on to the exact echelon, and a
    # Gram matrix is ranked by its entries, without one
    rows_added = []
    add = Echelon.add

    def counted(echelon, *parts):
        rows_added.append(parts)
        return add(echelon, *parts)

    monkeypatch.setattr(Echelon, "add", counted)
    m = phi_r16_real.domain_dim // 2
    alphabet = (0, 1, -1, I, -I, GaussianRational(1, -1))
    rng = random.Random(1)
    sets = 24
    full = deficient_points = expected = 0
    for _ in range(sets):
        points = [tuple(rng.choice(alphabet) for _ in range(m)) for _ in range(m + 1)]
        report = span_report(phi_r16_real, points)
        assert report.rank == exact_oracle.rank(ExactMatrix(report.gradients))
        _assert_jacobian_ranks_match_oracle(phi_r16_real, points, report)
        full += report.rank == m + 1
        deficient_points += sum(rank < 2 for rank in report.jacobian_ranks)
        expected += (m + 1) * (report.rank < m + 1)
    assert len(rows_added) == expected
    assert full > sets // 2 and 0 < deficient_points < sets * (m + 1) // 4
    assert len(rows_added) < sets * (m + 1) // 2


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
