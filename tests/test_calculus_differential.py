"""``calculus.jacobian_at`` reads a map's Jacobian at points straight from
the map's terms.  Its value rows, with their Python types, must be those of
the old evaluation of the Jacobian polynomials in ``calculus_oracle``, and
``span_report`` and ``search_points`` must report what their old bodies
report, on every input."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import calculus_oracle
import poly_oracle
from genmaps import random_harmonic_map, random_quadratic_map, random_real_map
from morphlift.calculus import PolyMatrix, jacobian, jacobian_at
from morphlift.catalog import KAEHLER_POINTS, KAEHLER_REPAIR_POINT, entry_ids, lookup
from morphlift.exact import DimensionMismatch, GaussianRational
from morphlift.kaehler import search_points, span_report
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import RealPolyMap, ShapeError, real_form
from morphlift.poly import ConsistencyError, MultiPoly

I = GaussianRational(0, 1)
# Zero, integer, Fraction and Gaussian coordinates.
VALUES = (0, 0, 1, -1, 2, I, -I, Fraction(1, 2), Fraction(-2, 3),
          GaussianRational(1, -1), GaussianRational(Fraction(-2, 3), 3))
# The same kinds with powers that stay cheap at exponents near 65536: 0,
# units, and numbers whose square is a power of two times a unit.
CHEAP_VALUES = (0, 0, 1, -1, I, -I, Fraction(1, 2), Fraction(-2),
                GaussianRational(1, -1),
                GaussianRational(Fraction(1, 2), Fraction(1, 2)))


def _typed(rows):
    return [[(value, type(value)) for value in row] for row in rows]


def _points(rng, length, count, values=VALUES):
    return [tuple(rng.choice(values) for _ in range(length)) for _ in range(count)]


def _assert_same_values(phi, points):
    got = list(jacobian_at(phi, points))
    matrix = jacobian(phi)
    assert len(got) == len(points)
    for rows, point in zip(got, points):
        assert _typed(rows) == _typed(calculus_oracle.matrix_evaluate(matrix, point))


def _catalog_maps():
    for entry_id in entry_ids():
        phi = real_form(parse_map(lookup(entry_id).definition))
        if isinstance(phi, RealPolyMap):
            yield entry_id, phi


CATALOG = list(_catalog_maps())


@pytest.mark.parametrize("entry_id,phi", CATALOG, ids=[e for e, _ in CATALOG])
def test_catalog_maps_and_their_lifts_match_the_oracle(entry_id, phi):
    rng = random.Random(entry_id)
    _assert_same_values(phi, _points(rng, phi.domain_dim, 6))
    if phi.domain_dim <= 8:
        lift = complete_lift_real(phi)
        _assert_same_values(lift, _points(rng, lift.domain_dim, 4))


def test_both_rungs_match_the_oracle(phi_r16_real):
    rng = random.Random(16)
    _assert_same_values(phi_r16_real, _points(rng, 16, 8)
                        + [(0,) * 16, (1,) * 16])
    rung = complete_lift_real(phi_r16_real)
    _assert_same_values(rung, _points(rng, 32, 4))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_maps_match_the_oracle(seed):
    rng = random.Random(seed)
    maps = [random_real_map(rng, 3, rng.randint(1, 3)),
            random_harmonic_map(rng, 3, rng.randint(1, 3)),
            random_quadratic_map(rng, 4, rng.randint(1, 3))]
    for phi in maps:
        _assert_same_values(phi, _points(rng, phi.domain_dim, 5))


@pytest.mark.parametrize("seed", range(6))
def test_exponents_at_the_field_limits_match_the_oracle(seed):
    # one component per field width: exponents up to 255 fit one byte, 256
    # and 65535 two, 65536 three
    rng = random.Random(seed)
    choices = ((0, 1, 2, 255), (0, 1, 256, 65535), (0, 1, 2, 65536))
    components = []
    for exponents in choices:
        terms = {tuple(rng.choice(exponents) for _ in range(3)):
                 rng.choice((1, -2, Fraction(1, 3))) for _ in range(3)}
        terms[(max(exponents), 1, 0)] = Fraction(-1, 2)
        components.append(MultiPoly(3, terms))
    assert [c._width for c in components] == [1, 2, 3]
    phi = RealPolyMap(3, 3, components)
    _assert_same_values(phi, _points(rng, 3, 4, CHEAP_VALUES))


def test_a_factor_of_exponent_one_leaves_the_support():
    # d(x1*x2)/dx1 = x2 does not vanish where x1 does; d(x1^2)/dx1 = 2*x1 does
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1*x2; f2 = x1^2 + x2^3; }")
    assert list(jacobian_at(phi, [(0, 3), (0, 0), (2, 0)])) == [
        [[3, 0], [0, 27]],
        [[0, 0], [0, 0]],
        [[0, 2], [4, 0]],
    ]


def test_wrong_point_length_raises():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1*x2; }")
    with pytest.raises(DimensionMismatch):
        list(jacobian_at(phi, [(1, 2, 3)]))
    with pytest.raises(DimensionMismatch):
        calculus_oracle.matrix_evaluate(jacobian(phi), (1, 2, 3))


def test_points_are_read_one_at_a_time():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1*x2; }")
    read = []

    def points():
        for point in [(1, 2), (3, 4)]:
            read.append(point)
            yield point

    values = jacobian_at(phi, points())
    assert read == []
    assert next(values) == [[2, 1]] and read == [(1, 2)]


def test_evaluation_keeps_the_consistency_check():
    q = parse_poly("z1*zb1 + z2", 4, 2)
    matrix = PolyMatrix([[q, q.partial(0)]])
    for bad in ((I, 1, I, 1), (I, 0, -I, 1)):
        with pytest.raises(ConsistencyError):
            q.evaluate(bad)
        with pytest.raises(ConsistencyError):
            calculus_oracle.matrix_evaluate(matrix, bad)
    good = (I, 2, -I, 2)
    assert calculus_oracle.matrix_evaluate(matrix, good) == [[3, -I]]
    with pytest.raises(DimensionMismatch):
        calculus_oracle.matrix_evaluate(matrix, (I, 2, -I))


@settings(deadline=None)
@given(st.data())
def test_jacobian_entries_of_different_widths_match_the_tuple_oracle(data):
    # components whose fields take one, two and three bytes, each entry
    # against the partial and the evaluation of the tuple oracle
    point = tuple(data.draw(st.sampled_from(CHEAP_VALUES)) for _ in range(3))
    exponent_sets = (st.integers(0, 3), st.sampled_from((255, 256, 65535)),
                     st.sampled_from((65536, 65537)))
    coefficients = st.sampled_from((1, -1, 3, Fraction(-2, 3), I,
                                    GaussianRational(Fraction(1, 2), -1)))
    widest = (None, (0, 256, 1), (1, 2, 65536))
    components = []
    for exponents, term in zip(exponent_sets, widest):
        terms = data.draw(st.dictionaries(
            st.tuples(exponents, exponents, exponents), coefficients,
            max_size=3))
        if term is not None:
            terms[term] = 1
        components.append(MultiPoly(3, terms))
    assert [c._width for c in components[1:]] == [2, 3]
    [rows] = jacobian_at(RealPolyMap(3, 3, components), [point])
    for row, component in zip(rows, components):
        for j, value in enumerate(row):
            partial = poly_oracle.partial(dict(component.terms), j)
            expected = poly_oracle.evaluate(partial, point)
            assert value == expected and type(value) is type(expected)


# ---------------------------------------------------------------------------
# span_report and search_points against their old bodies
# ---------------------------------------------------------------------------

def _report_fields(report):
    return (report, [[(x, type(x)) for x in g] for g in report.gradients],
            [[(x, type(x)) for x in p] for p in report.sample_points])


SPAN_MAPS = [(e, phi) for e, phi in CATALOG if phi.codomain_dim == 2]


@pytest.mark.parametrize("entry_id,phi", SPAN_MAPS, ids=[e for e, _ in SPAN_MAPS])
def test_span_report_matches_the_oracle(entry_id, phi):
    rng = random.Random(entry_id)
    points = _points(rng, phi.domain_dim // 2, 7)
    assert _report_fields(span_report(phi, points)) == \
        _report_fields(calculus_oracle.span_report(phi, points))


def test_span_report_on_the_stored_points_matches_the_oracle(phi_r16_real):
    for points in (KAEHLER_POINTS[:8], KAEHLER_POINTS,
                   KAEHLER_POINTS + (KAEHLER_REPAIR_POINT,), ()):
        assert _report_fields(span_report(phi_r16_real, points)) == \
            _report_fields(calculus_oracle.span_report(phi_r16_real, points))


def test_span_report_errors_match_the_oracle(phi_r16_real):
    for report in (span_report, calculus_oracle.span_report):
        with pytest.raises(DimensionMismatch):
            report(phi_r16_real, [(0,) * 8, (0, 0, 1)])
        with pytest.raises(ShapeError):
            report(parse_map("map f: R^2 -> R^1 { f1 = x1; }"), [(1,)])


@pytest.mark.parametrize("seed", range(5))
def test_search_points_matches_the_oracle(seed):
    for _, phi in SPAN_MAPS:
        assert _report_fields(search_points(phi, 500, seed)) == \
            _report_fields(calculus_oracle.search_points(phi, 500, seed))


class _CountingRandom(random.Random):
    draws = 0

    def choice(self, seq):
        _CountingRandom.draws += 1
        return super().choice(seq)


def test_search_points_draws_only_the_points_it_reads(phi_r16_real, monkeypatch):
    # the search stops at rank m + 1, long before a budget of 500 points
    monkeypatch.setattr(random, "Random", _CountingRandom)
    counts = []
    for search in (search_points, calculus_oracle.search_points):
        _CountingRandom.draws = 0
        assert search(phi_r16_real, 500, 0).rank == 9
        counts.append(_CountingRandom.draws)
    assert counts[0] == counts[1] < 500 * 8


def test_search_points_needs_two_components():
    with pytest.raises(ShapeError):
        search_points(parse_map("map f: R^2 -> R^1 { f1 = x1; }"), 10, 0)


# ---------------------------------------------------------------------------
# Work counts: no Jacobian polynomial, and one decoding of the terms per call
# ---------------------------------------------------------------------------

@pytest.fixture
def work(monkeypatch):
    calls = {"partial": 0, "sparse_terms": 0}
    for name in calls:
        real = getattr(MultiPoly, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(MultiPoly, name, counting)
    return calls


def test_span_report_builds_no_partial_and_decodes_once_per_call(phi_r16_real, work):
    span_report(phi_r16_real, KAEHLER_POINTS)
    assert work == {"partial": 0, "sparse_terms": 2}
    span_report(phi_r16_real, KAEHLER_POINTS)
    assert work == {"partial": 0, "sparse_terms": 4}


def test_search_points_builds_no_partial_and_decodes_once_per_call(phi_r16_real, work):
    search_points(phi_r16_real, 500, 0)
    assert work == {"partial": 0, "sparse_terms": 2}
