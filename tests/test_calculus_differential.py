"""``calculus.jacobian_at`` reads a map's Jacobian at points from a plan it
builds once per map from ``jacobian(phi)``.  Its value rows, with their
Python types, must be those of the old evaluation of the Jacobian
polynomials in ``calculus_oracle``, its plan must hold what the old
derivation by hand grouped, and ``span_report`` and ``search_points`` must
report what their old bodies report, on every input."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import calculus_oracle
import poly_oracle
from genmaps import (
    monomials,
    random_complex_map,
    random_harmonic_map,
    random_quadratic_map,
    random_real_map,
)
from morphlift import calculus, poly
from morphlift.calculus import PolyMatrix, jacobian, jacobian_at
from morphlift.catalog import KAEHLER_POINTS, KAEHLER_REPAIR_POINT, entry_ids, lookup
from morphlift.exact import DimensionMismatch, GaussianRational
from morphlift.kaehler import complex_point_to_real, search_points, span_report
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import RealPolyMap, ShapeError, real_form, real_identification
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
# The coordinates of search_points' alphabet.
ALPHABET = calculus_oracle._ALPHABET


@pytest.fixture(scope="module")
def rung_r32(phi_r16_real):
    return complete_lift_real(phi_r16_real)


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


@pytest.mark.parametrize("seed", range(3))
def test_span_report_at_alphabet_points_on_both_rungs_matches_the_oracle(
        phi_r16_real, rung_r32, seed):
    # the point sets of the benchmark's kaehler workload: m + 1 points
    rng = random.Random(seed)
    for phi in (phi_r16_real, rung_r32):
        m = phi.domain_dim // 2
        points = _points(rng, m, m + 1, ALPHABET)
        assert _report_fields(span_report(phi, points)) == \
            _report_fields(calculus_oracle.span_report(phi, points))


@pytest.mark.parametrize("seed", range(8))
def test_span_report_on_fraction_coefficients_matches_the_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    maps = [random_real_map(rng, 2 * m, 2), random_harmonic_map(rng, 2 * m, 2),
            real_identification(random_complex_map(rng, m, 1))]
    maps.append(RealPolyMap(2 * m, 2, [c.scale(Fraction(1, 7))
                                       for c in maps[-1].components]))
    assert any(type(c) is Fraction for phi in maps
               for component in phi.components
               for c in component.terms.values())
    for phi in maps:
        # Fraction and Gaussian coordinates with Fraction parts
        points = _points(rng, m, rng.randint(1, 2 * m + 1))
        assert _report_fields(span_report(phi, points)) == \
            _report_fields(calculus_oracle.span_report(phi, points))
        assert _report_fields(search_points(phi, 30, seed)) == \
            _report_fields(calculus_oracle.search_points(phi, 30, seed))


def test_span_report_where_a_gradient_is_zero_matches_the_oracle(phi_r16_real):
    zw = parse_map("map f: R^4 -> R^2 { f1 = x1*x3 - x2*x4; "
                   "f2 = x1*x4 + x2*x3; }")
    for phi, points in ((zw, [(0, 0), (1, I), (0, 0), (Fraction(1, 2), -I)]),
                        (phi_r16_real, [(0,) * 8, (1,) * 8, (0,) * 8])):
        report = span_report(phi, points)
        assert report.gradients[0] == (0,) * phi.domain_dim
        assert report.jacobian_ranks[0] == 0
        assert _report_fields(report) == \
            _report_fields(calculus_oracle.span_report(phi, points))


def test_span_reports_on_maps_in_turn_match_the_oracle(phi_r16_real):
    # each map reads its own plan, also between calls on other maps of the
    # same shape
    rng = random.Random(7)
    maps = [phi for _, phi in SPAN_MAPS] + [phi_r16_real]
    for phi in maps + maps[::-1]:
        points = _points(rng, phi.domain_dim // 2, 3)
        assert _report_fields(span_report(phi, points)) == \
            _report_fields(calculus_oracle.span_report(phi, points))


# ---------------------------------------------------------------------------
# Work counts: one Jacobian, and one decoding of its entries, per map object
# ---------------------------------------------------------------------------

@pytest.fixture
def work(monkeypatch):
    """Calls of ``partial`` and ``partials``, and under "decoded" the number
    of packed keys each pass of the decoder ``poly._nonzero_fields`` reads,
    in call order."""
    calls = {"partial": 0, "partials": 0, "decoded": []}
    for name in ("partial", "partials"):
        real = getattr(MultiPoly, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(MultiPoly, name, counting)
    decode = poly._nonzero_fields

    def counting_decode(keys, *args):
        calls["decoded"].append(len(keys))
        return decode(keys, *args)

    monkeypatch.setattr(poly, "_nonzero_fields", counting_decode)
    return calls


def _fresh(phi):
    """A map equal to phi that no call has read yet."""
    return RealPolyMap(phi.domain_dim, phi.codomain_dim, phi.components)


# The R^16 map has 2 components of 104 terms in 16 variables: its Jacobian
# is one partials() pass per component, each decoding the component's terms,
# and its 32 entries' 768 terms hold 400 distinct monomials, each decoded
# once for the plan.
ONE_JACOBIAN = {"partial": 0, "partials": 2, "decoded": [104, 104, 400]}
TWO_JACOBIANS = {"partial": 0, "partials": 4,
                 "decoded": [104, 104, 400] * 2}


def test_the_plan_decodes_each_distinct_monomial_once(phi_r16_real):
    entries = [q for row in jacobian(phi_r16_real).entries for q in row]
    assert sum(len(q.terms) for q in entries) == 768
    assert len({e for q in entries for e in q.terms}) == 400


def test_span_report_builds_the_jacobian_once_per_map(phi_r16_real, work):
    phi = _fresh(phi_r16_real)
    span_report(phi, KAEHLER_POINTS)
    assert work == ONE_JACOBIAN
    span_report(phi, KAEHLER_POINTS)
    assert work == ONE_JACOBIAN
    twin = _fresh(phi)
    span_report(twin, KAEHLER_POINTS)
    assert work == TWO_JACOBIANS


def test_search_points_builds_the_jacobian_once_per_map(phi_r16_real, work):
    phi = _fresh(phi_r16_real)
    search_points(phi, 500, 0)
    assert work == ONE_JACOBIAN
    search_points(phi, 500, 1)
    span_report(phi, KAEHLER_POINTS)
    assert work == ONE_JACOBIAN
    twin = _fresh(phi)
    search_points(twin, 500, 0)
    assert work == TWO_JACOBIANS


def test_a_kept_plan_leaves_the_map_as_it_was(phi_r16_real):
    phi = _fresh(phi_r16_real)
    before = (repr(phi), hash(phi))
    list(jacobian_at(phi, [(1,) * 16]))
    twin = _fresh(phi)
    assert phi == twin and twin == phi
    assert (repr(phi), hash(phi)) == before == (repr(twin), hash(twin))
    with pytest.raises(AttributeError):
        phi._jacobian = None


# ---------------------------------------------------------------------------
# The plan grouped by monomial against the flat plan of contributions
# ---------------------------------------------------------------------------

NONZERO = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), I, -I,
           GaussianRational(1, -1), GaussianRational(Fraction(-2, 3), 3))
POINT_KINDS = (
    (0,),                                                   # every one 0
    NONZERO,                                                # none 0
    (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)),
    (0, 1, I, -I, GaussianRational(1, -1),
     GaussianRational(Fraction(1, 2), Fraction(-2, 3))),
    VALUES,
)


def _dense_map():
    """Two components over every monomial of degree 1 to 4 in 7 variables:
    84 distinct Jacobian monomials of degree 3, more than one machine word
    of mask bits, and constant entries from the linear terms."""
    rng = random.Random(84)
    components = []
    for _ in range(2):
        terms = {e: rng.choice((1, -2, 3, Fraction(1, 3), Fraction(-5, 2)))
                 for degree in range(1, 5) for e in monomials(7, degree)}
        components.append(MultiPoly(7, terms))
    return RealPolyMap(7, 2, components)


def _constant_entry_map():
    # d f1/d x1 = 3 and d f2/d x2 = -2/3 everywhere; the constants drop out
    return parse_map("map f: R^3 -> R^2 { f1 = 3*x1 - x2*x3 + 1/2; "
                     "f2 = x1 - 2/3*x2 + x3^2 - 7; }")


R16 = dict(CATALOG)["ex3.7-R16-to-C"]
PLAN_MAPS = ([phi for _, phi in CATALOG]
             + [R16, complete_lift_real(R16), _dense_map(), _constant_entry_map()])


def _genmaps_map(seed):
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        return random_real_map(rng, rng.randint(1, 5), rng.randint(1, 3))
    if kind == 1:
        return random_harmonic_map(rng, rng.randint(2, 4), rng.randint(1, 3))
    return random_quadratic_map(rng, rng.randint(1, 5), rng.randint(1, 3))


def _assert_same_as_the_flat_plan(phi, points):
    got = list(jacobian_at(phi, points))
    want = list(calculus_oracle.jacobian_at(phi, points))
    assert [_typed(rows) for rows in got] == [_typed(rows) for rows in want]


@st.composite
def maps_and_points(draw):
    if draw(st.booleans()):
        phi = draw(st.sampled_from(PLAN_MAPS))
    else:
        phi = _genmaps_map(draw(st.integers(0, 10**6)))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        values = st.sampled_from(draw(st.sampled_from(POINT_KINDS)))
        points.append(tuple(draw(values) for _ in range(phi.domain_dim)))
    return phi, points


@settings(deadline=None, max_examples=150)
@given(maps_and_points())
def test_jacobian_at_matches_the_flat_plan(case):
    _assert_same_as_the_flat_plan(*case)


@pytest.mark.parametrize("phi", PLAN_MAPS[-4:],
                         ids=["r16", "r32", "dense", "constant-entries"])
def test_every_point_kind_matches_the_flat_plan(phi):
    rng = random.Random(phi.domain_dim)
    for values in POINT_KINDS:
        _assert_same_as_the_flat_plan(phi, _points(rng, phi.domain_dim, 3, values))


def _plan_by_fields(plan):
    """A plan's base, and its monomials keyed by their (variable, exponent)
    fields, each with the multiset of its typed uses.  Each monomial's bit
    must be set in the masks of its variables and no others."""
    base, monomials_, masks, pairs = plan
    by_fields = {}
    for i, (first, rest, uses) in enumerate(monomials_):
        fields = tuple(pairs[f] for f in (first, *rest))
        assert {j for j, mask in enumerate(masks) if mask >> i & 1} == \
            {j for j, _ in fields}
        assert fields not in by_fields
        by_fields[fields] = Counter((slot, c, type(c)) for slot, c in uses)
    return base, by_fields


@pytest.mark.parametrize("phi", PLAN_MAPS + [_genmaps_map(seed) for seed in range(30)])
def test_the_plan_from_the_jacobian_matches_the_grouped_derivation(phi):
    new = calculus._jacobian_plan(phi)
    old = calculus_oracle.grouped_jacobian_plan(phi)
    assert _plan_by_fields(new) == _plan_by_fields(old)
    assert len(new[3]) <= len(old[3])


def test_the_dense_map_needs_more_than_a_word_of_mask_bits():
    phi = _fresh(_dense_map())
    list(jacobian_at(phi, []))
    base, monomials_, masks, _ = phi._jacobian
    assert len(monomials_) == 84 + 28 + 7    # degrees 3, 2 and 1
    assert max(masks).bit_length() > 64


def test_constant_entries_hold_at_every_point():
    phi = _constant_entry_map()
    assert list(jacobian_at(phi, [(0, 0, 0), (1, 2, I)])) == [
        [[3, 0, 0], [1, Fraction(-2, 3), 0]],
        [[3, -I, -2], [1, Fraction(-2, 3), 2 * I]],
    ]


# ---------------------------------------------------------------------------
# The kept plan's size, and the monomials a point visits
# ---------------------------------------------------------------------------

def _traced_size(build, phi):
    """The bytes that build(phi) allocates and keeps.  A full collection
    before and after empties the free lists, which tracemalloc would
    otherwise count as held or, when reused, miss."""
    gc.collect()
    tracemalloc.start()
    try:
        plan = build(phi)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_kept_plan_of_the_r32_rung_stays_small(rung_r32):
    # About 450 KiB against 510 KiB for the flat plan of contributions: the
    # plan grouped by monomial may take at most 10 % more than the flat one.
    grouped = _traced_size(calculus._jacobian_plan, rung_r32)
    flat = _traced_size(calculus_oracle._jacobian_plan, rung_r32)
    assert grouped < 560 * 1024
    assert grouped < 1.1 * flat


def _jacobian_monomials(phi):
    """The distinct nonconstant monomials x^(e - u_j) of phi's Jacobian,
    as exponent tuples, from the tuple view of the terms."""
    found = set()
    for component in phi.components:
        for exponents in component.terms:
            for j, e in enumerate(exponents):
                if e:
                    lower = exponents[:j] + (e - 1,) + exponents[j + 1:]
                    if any(lower):
                        found.add(lower)
    return found


def test_a_point_visits_only_the_monomials_clear_of_its_zeros(
        phi_r16_real, monkeypatch):
    visited = []

    def counting_compress(data, selectors):
        for item in compress(data, selectors):
            visited[-1] += 1
            yield item

    monkeypatch.setattr(calculus, "compress", counting_compress)
    monos = _jacobian_monomials(phi_r16_real)
    phi = _fresh(phi_r16_real)
    points = [complex_point_to_real(p) for p in KAEHLER_POINTS]
    values = jacobian_at(phi, points)
    for point in points:
        visited.append(0)
        next(values)
        zeros = [j for j, x in enumerate(point) if x == 0]
        clear = sum(1 for mono in monos if not any(mono[j] for j in zeros))
        assert visited[-1] == clear
    assert max(visited) < len(monos)
