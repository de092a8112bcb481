"""``render_fibered`` against the path ``lift --real`` took before it:
the old ``render`` of each lifted component, then the old ``render`` of
each of its ``fiber_coefficients`` in the lift's first half of names
(``poly_oracle.fibered_render``), string for string."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import poly_oracle as oracle
from genmaps import random_harmonic_map, random_real_map
from morphlift.catalog import entry_ids, lookup
from morphlift.exact import DimensionMismatch, IntegerTooLong
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map, parse_poly, render_map_source
from morphlift.maps import ComplexPolyMap, RealPolyMap, real_identification
from morphlift.poly import MultiPoly, render_fibered


def assert_fibered_as_before(phi):
    """Each component of phi's lift renders, with its row of M, as before."""
    lift = complete_lift_real(phi)
    names = lift.names()
    for c in lift.components:
        assert render_fibered(c, names) == oracle.fibered_render(c, names)


def test_catalog_maps_and_both_rungs():
    maps = []
    for entry_id in entry_ids():
        phi = parse_map(lookup(entry_id).definition)
        if isinstance(phi, ComplexPolyMap):
            phi = real_identification(phi)
        if isinstance(phi, RealPolyMap):
            maps.append(phi)
    r16 = real_identification(parse_map(lookup("ex3.7-R16-to-C").definition))
    # the rungs as map files hold them: canonical names, read back
    for rung in (r16, complete_lift_real(r16)):
        maps.append(parse_map(render_map_source(rung, "p")))
    assert len(maps) > 10
    for phi in maps:
        assert_fibered_as_before(phi)


def test_genmaps_maps():
    rng = random.Random(25)
    for _ in range(30):
        assert_fibered_as_before(random_real_map(
            rng, rng.randint(1, 6), rng.randint(1, 3), max_degree=4))
    for _ in range(5):
        assert_fibered_as_before(random_harmonic_map(rng, 3, 2))


def test_lift_of_a_lift_falls_back_to_canonical_names(phi_r16_real):
    # the base's names x1..x16, y1..y16 repeat y1..y16, so the lift names
    # its variables x1..x64, and M is written in the lift's first 32 names
    phi = complete_lift_real(phi_r16_real)
    lift = complete_lift_real(phi)
    m = phi.domain_dim
    assert lift.names()[:m] != phi.names()
    assert phi.names()[m // 2] == "y1"
    assert_fibered_as_before(phi)
    text, row = render_fibered(lift.components[0], lift.names())
    assert not any("y1" in piece for piece in (text, *row))
    small = complete_lift_real(parse_map("map f: R^2 -> R^1 { f1 = x1^2*x2 - 3*x2; }"))
    assert small.names() == ("x1", "x2", "y1", "y2")
    lift = complete_lift_real(small)
    assert render_fibered(lift.components[0], lift.names()) == (
        "x1^2*x8 + 2*x1*x2*x7 + 2*x1*x3*x6 + 2*x1*x4*x5 + 2*x2*x3*x5 - 3*x8",
        ["2*x1*x4 + 2*x2*x3", "2*x1*x3", "2*x1*x2", "x1^2 - 3"])


def test_zero_constant_and_negative_entries():
    phi = RealPolyMap(3, 3, [
        parse_poly("-x1^2*x3 + 5*x2 - 7", 3),      # M = (-2*x1*x3, 5, -x1^2)
        MultiPoly.constant(3, 4),                  # zero component, zero row
        parse_poly("-x2 - 1/2*x3", 3)])           # constant, negative M
    lift = complete_lift_real(phi)
    rendered = [render_fibered(c, lift.names()) for c in lift.components]
    assert rendered == [
        ("-x1^2*y3 - 2*x1*x3*y1 + 5*y2", ["-2*x1*x3", "5", "-x1^2"]),
        ("0", ["0", "0", "0"]),
        ("-y2 - 1/2*y3", ["0", "-1", "-1/2"])]
    assert_fibered_as_before(phi)


@pytest.mark.parametrize("count", [1, 31, 32, 33, 64, 65, 150])
def test_lifts_of_any_length(count):
    # the lift of sum_k (-1)^k/k x1^k*x2 has 2*count terms, half with y1
    phi = RealPolyMap(2, 1, [MultiPoly(2, {(k, 1): Fraction((-1) ** k, k)
                                           for k in range(1, count + 1)})])
    assert_fibered_as_before(phi)
    lift = complete_lift_real(phi)
    text, row = render_fibered(lift.components[0], lift.names())
    assert text.count("y1") == text.count("y2") == count
    assert len(text.split(" ")) == 4 * count - 1
    # the leading terms are negative for an odd count
    assert {text[0] == "-", row[0][0] == "-", row[1][0] == "-"} == {count % 2 == 1}


# coefficients: ints and Fractions of either sign, units among them; fields
# wider than one byte from exponents past 255
exponents = st.one_of(st.integers(0, 3), st.sampled_from((255, 256, 300)))
coefficients = st.one_of(
    st.sampled_from((1, -1, 2, -3)), st.integers(-10**6, 10**6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def real_maps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    components = [MultiPoly(m, draw(st.dictionaries(
        st.tuples(*[exponents] * m), coefficients, max_size=6)))
        for _ in range(n)]
    names = draw(st.sampled_from([None, tuple(f"v{j + 1}" for j in range(m))]))
    return RealPolyMap(m, n, components, names)


@given(phi=real_maps())
@settings(max_examples=300, deadline=None)
def test_random_lifts(phi):
    assert_fibered_as_before(phi)


@pytest.mark.parametrize("text", [
    "x1*x2",            # fiber degree 0
    "x1*x3 + 2",        # a constant term among terms of degree 1
    "x3*x4",            # fiber degree 2, two fiber variables
    "x1*x3^2",          # fiber degree 2, one fiber variable
    "x2*x3 + x4^3",
])
def test_fiber_degree_other_than_1_is_a_value_error(text):
    q = parse_poly(text, 4)
    with pytest.raises(ValueError) as raised:
        oracle.packed_fiber_coefficients(q)
    with pytest.raises(ValueError) as fibered:
        render_fibered(q, ("x1", "x2", "y1", "y2"))
    assert type(fibered.value) is type(raised.value) is ValueError
    assert str(fibered.value) == str(raised.value) == "a term's fiber degree is not 1"


@pytest.mark.parametrize("q", [MultiPoly(3, {}), MultiPoly(4, {}, 2)])
def test_odd_or_complex_rings_are_refused(q):
    with pytest.raises(DimensionMismatch):
        render_fibered(q, ("a",) * q.num_vars)


@pytest.mark.parametrize("source", [
    "map f: R^2 -> R^1 { f1 = 10^5000*x1*x2; }",
    f"map f: R^1 -> R^1 {{ f1 = x1^{'9' * 4300}*x1^{'9' * 4300}; }}",
], ids=["coefficient", "exponent"])
def test_an_integer_too_long_to_print_is_integer_too_long(source):
    phi = parse_map(source)
    lift = complete_lift_real(phi)
    with pytest.raises(IntegerTooLong):
        render_fibered(lift.components[0], lift.names())


def test_one_huge_coefficient_among_small_ones():
    phi = RealPolyMap(2, 1, [MultiPoly(2, {(1, 1): 1, (2, 0): Fraction(10**4299, 7)})])
    assert_fibered_as_before(phi)
    phi = RealPolyMap(2, 1, [MultiPoly(2, {(1, 1): 1, (2, 0): 10**4300 // 2})])
    lift = complete_lift_real(phi)
    with pytest.raises(IntegerTooLong):
        render_fibered(lift.components[0], lift.names())
