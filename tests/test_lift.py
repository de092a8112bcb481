import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from genmaps import (
    random_complex_map,
    random_harmonic_map,
    quadratic_map,
    random_quadratic_map,
    random_real_map,
    random_real_poly,
    random_symmetric_matrices,
)
import lift_oracle
import poly_oracle
from calculus_oracle import antiholomorphic_jacobian
from morphlift.calculus import jacobian, laplacian
from morphlift.catalog import entry_ids, lookup
from morphlift.exact import DimensionMismatch, GaussianRational
from morphlift.lift import (
    MixedPartialObstruction,
    NotPartialLinear,
    anti_lift,
    block_jacobian_check,
    complete_lift_complex,
    complete_lift_real,
)
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import (
    ComplexPolyMap,
    RealPolyMap,
    ShapeError,
    complexify,
    compose,
    real_form,
    real_identification,
)
from morphlift.poly import MultiPoly, render


# ---------------------------------------------------------------------------
# Real complete lift
# ---------------------------------------------------------------------------

def test_real_lift_of_zwbar_matches_printed_components():
    zwbar = parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }")
    lift = complete_lift_real(real_identification(zwbar))
    names = lift.names()
    assert render(lift.components[0], names) == \
        "x1*y3 + x2*y4 + x3*y1 + x4*y2"
    assert render(lift.components[1], names) == \
        "-x1*y4 + x2*y3 + x3*y2 - x4*y1"


def test_real_lift_of_linear_map_is_constant_in_x():
    phi = parse_map("map f: R^2 -> R^2 { f1 = 2*x1 + x2; f2 = x1 - x2; }")
    lift = complete_lift_real(phi)
    assert lift.components[0] == parse_poly("2*x3 + x4", 4)
    assert lift.components[1] == parse_poly("x3 - x4", 4)


def test_real_lift_of_hopf_matches_printed_lift():
    hopf = parse_map("map h: R^4 -> R^3 { h1 = x1^2 + x2^2 - x3^2 - x4^2; "
                     "h2 = 2*x1*x3 - 2*x2*x4; h3 = 2*x1*x4 + 2*x2*x3; }")
    lift = complete_lift_real(hopf)
    names = lift.names()
    assert render(lift.components[0], names) == \
        "2*x1*y1 + 2*x2*y2 - 2*x3*y3 - 2*x4*y4"
    assert render(lift.components[1], names) == \
        "2*x1*y3 - 2*x2*y4 + 2*x3*y1 - 2*x4*y2"
    assert render(lift.components[2], names) == \
        "2*x1*y4 + 2*x2*y3 + 2*x3*y2 + 2*x4*y1"


def test_lift_fiber_partials_recover_base_jacobian():
    rng = random.Random(1)
    phi = random_real_map(rng, 3, 2)
    lift = complete_lift_real(phi)
    embed = {j: j for j in range(3)}
    for k, comp in enumerate(phi.components):
        for j in range(3):
            expected = poly_oracle.packed_remap(comp.partial(j), 6, embed)
            assert lift.components[k].partial(3 + j) == expected


def test_wide_domain_lift_builds_only_the_fiber_variables_it_uses():
    # each fiber variable is keyed over all 2m variables: building all m of
    # them peaked at about 42 MB here, where f1 = x1 needs one
    phi = RealPolyMap(5000, 1, [MultiPoly.variable(5000, 0)])
    tracemalloc.start()
    try:
        lift = complete_lift_real(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lift.components == (MultiPoly.variable(10000, 5000),)
    assert peak < 8 * 2**20


def test_lift_is_linear_in_fiber_block():
    rng = random.Random(2)
    phi = random_real_map(rng, 3, 2)
    lift = complete_lift_real(phi)
    for comp in lift.components:
        assert all(sum(e[3:]) == 1 for e in comp.terms)


# ---------------------------------------------------------------------------
# Complex complete lift
# ---------------------------------------------------------------------------

def test_complex_lift_of_quaternion_matches_printed(quaternion):
    lift = complete_lift_complex(quaternion)
    names = lift.names()
    assert render(lift.components[0], names) == "z1*w3 + z3*w1 - w2*zb4"
    assert render(lift.components[1], names) == "z1*w4 + z4*w1 + w2*zb3"


def test_complex_lift_of_zw():
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    lift = complete_lift_complex(zw)
    assert render(lift.components[0], lift.names()) == "z1*w2 + z2*w1"


def test_complex_lift_of_constant_is_zero():
    constant = parse_map("map f: C^2 -> C^1 { f1 = 3 + i; }")
    lift = complete_lift_complex(constant)
    assert lift.components[0].is_zero


def test_complex_lift_of_zwbar_corrects_printed_index():
    # printed source shows zb2*w2; the Wirtinger rule gives zb2*w1
    zwbar = parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }")
    lift = complete_lift_complex(zwbar)
    assert render(lift.components[0], lift.names()) == "w1*zb2"


# ---------------------------------------------------------------------------
# Quadratic lift
# ---------------------------------------------------------------------------

def _bilinear_lift(matrices):
    """(X, Y) -> (2 X^t A_1 Y, ..., 2 X^t A_n Y), expanded from the matrices."""
    m = len(matrices[0])
    x = [MultiPoly.variable(2 * m, j) for j in range(m)]
    y = [MultiPoly.variable(2 * m, m + j) for j in range(m)]
    components = []
    for a in matrices:
        total = MultiPoly(2 * m, {})
        for j in range(m):
            for k in range(m):
                total = total + (x[j] * y[k]).scale(2 * a[j][k])
        components.append(total)
    return RealPolyMap(2 * m, len(matrices), components)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_quadratic_lift_agrees_with_general_lift(seed):
    # the complete lift of (X^t A_i X) is (2 X^t A_i Y)
    rng = random.Random(seed)
    matrices = random_symmetric_matrices(rng, rng.randint(1, 4), rng.randint(1, 3))
    lift = complete_lift_real(quadratic_map(matrices))
    assert lift == _bilinear_lift(matrices)


def test_block_jacobian_check_hopf():
    hopf = parse_map("map h: R^4 -> R^3 { h1 = x1^2 + x2^2 - x3^2 - x4^2; "
                     "h2 = 2*x1*x3 - 2*x2*x4; h3 = 2*x1*x4 + 2*x2*x3; }")
    assert block_jacobian_check(hopf)


def test_identity_form_lift_is_euler_pairing():
    identity = [[int(j == k) for k in range(3)] for j in range(3)]
    lift = complete_lift_real(quadratic_map([identity]))
    assert lift.components[0] == parse_poly(
        "2*x1*x4 + 2*x2*x5 + 2*x3*x6", 6)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_block_jacobian_check_random_symmetric_families(seed):
    rng = random.Random(seed)
    phi = random_quadratic_map(rng, rng.randint(2, 4), rng.randint(1, 3))
    assert block_jacobian_check(phi)


def test_block_jacobian_check_rejects_inhomogeneous():
    phi = RealPolyMap(1, 1, [parse_poly("x1^2 + x1", 1)])
    with pytest.raises(ShapeError, match="component 1 is not homogeneous"):
        block_jacobian_check(phi)


def test_block_jacobian_check_accepts_a_zero_component():
    zero = [[0, 0], [0, 0]]
    phi = quadratic_map([[[1, 2], [2, -1]], zero])
    assert phi.components[1].is_zero
    assert block_jacobian_check(phi)


# ---------------------------------------------------------------------------
# Anti-lift
# ---------------------------------------------------------------------------

def test_antilift_of_quaternion_real_form(quaternion_real):
    outcome = anti_lift(quaternion_real)
    assert isinstance(outcome, MixedPartialObstruction)
    assert outcome.component == 2
    assert outcome.value_jk == MultiPoly.constant(4, -1)
    assert outcome.value_kj == MultiPoly.constant(4, 1)


def test_antilift_recovers_map_from_its_lift():
    zwbar = parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }")
    real = real_identification(zwbar)
    lift = complete_lift_real(real)
    recovered = anti_lift(lift)
    assert isinstance(recovered, RealPolyMap)
    assert recovered == real  # zero constant terms already


def test_antilift_of_constant_coefficient_matrix_is_linear_map():
    # Phi(x, y) = L y recovers phi(x) = L x
    phi = parse_map("map f: R^4 -> R^2 { f1 = 2*x3 - x4; f2 = x3 + 5*x4; }")
    recovered = anti_lift(phi)
    assert isinstance(recovered, RealPolyMap)
    assert recovered.components[0] == parse_poly("2*x1 - x2", 2)
    assert recovered.components[1] == parse_poly("x1 + 5*x2", 2)


def test_antilift_rejects_nonlinear_fiber_dependence():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1*x2^2; }")
    outcome = anti_lift(phi)
    assert isinstance(outcome, NotPartialLinear)
    assert outcome.component == 1
    assert outcome.fiber_degree == 2


def test_antilift_rejects_odd_domain():
    phi = parse_map("map f: R^3 -> R^1 { f1 = x1*x2; }")
    with pytest.raises(DimensionMismatch):
        anti_lift(phi)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_antilift_round_trip_up_to_constants(seed):
    rng = random.Random(seed)
    phi = random_real_map(rng, rng.randint(1, 3), rng.randint(1, 3))
    lift = complete_lift_real(phi)
    recovered = anti_lift(lift)
    assert isinstance(recovered, RealPolyMap)
    zero = (0,) * phi.domain_dim
    for rec, original in zip(recovered.components, phi.components):
        constant = original.evaluate(zero)
        assert rec == original - MultiPoly.constant(phi.domain_dim, constant)


# ---------------------------------------------------------------------------
# Structural properties of lifting
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_chain_rule_of_lifts(seed):
    # lift(psi o phi)(x, y) = lift(psi)(phi(x), lift(phi)(x, y))
    rng = random.Random(seed)
    phi = random_real_map(rng, 2, 2, max_degree=2)
    psi = random_real_map(rng, 2, 2, max_degree=2)
    left = complete_lift_real(compose(psi, phi))
    lift_phi = complete_lift_real(phi)
    lift_psi = complete_lift_real(psi)
    embed = {j: j for j in range(2)}
    values = [poly_oracle.packed_remap(c, 4, embed) for c in phi.components] + \
        list(lift_phi.components)
    right_components = [c.compose(values) for c in lift_psi.components]
    assert list(left.components) == right_components


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_euler_identity_on_homogeneous_maps(seed):
    # Phi(x, x) = d * phi(x) for homogeneous degree-d maps
    rng = random.Random(seed)
    degree = rng.randint(1, 3)
    from genmaps import monomials
    num_vars = 3
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.choice(monomials(num_vars, degree))] = rng.randint(-3, 3)
    poly = MultiPoly(num_vars, terms)
    phi = RealPolyMap(num_vars, 1, [poly])
    lift = complete_lift_real(phi)
    doubled = [MultiPoly.variable(num_vars, j) for j in range(num_vars)] * 2
    diagonal = lift.components[0].compose(doubled)
    assert diagonal == poly.scale(degree)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_lift_of_harmonic_map_is_harmonic(seed):
    rng = random.Random(seed)
    phi = random_harmonic_map(rng, rng.randint(2, 4), rng.randint(1, 3))
    lift = complete_lift_real(phi)
    assert all(laplacian(c).is_zero for c in lift.components)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_lift_of_holomorphic_map_is_holomorphic(seed):
    rng = random.Random(seed)
    phi = random_complex_map(rng, rng.randint(1, 3), rng.randint(1, 2),
                             holomorphic_only=True)
    lift = complete_lift_complex(phi)
    assert antiholomorphic_jacobian(lift).is_zero()


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_lifts_commute_with_identification_iff_holomorphic(seed):
    rng = random.Random(seed)
    holomorphic = rng.random() < 0.5
    phi = random_complex_map(rng, 2, 1, max_degree=2,
                             holomorphic_only=holomorphic)
    complex_lift = complete_lift_complex(phi)
    real_route = complexify(complete_lift_real(real_identification(phi)))
    is_holo = antiholomorphic_jacobian(phi).is_zero()
    assert (complex_lift == real_route) == is_holo


def test_lifts_agree_for_zw_but_not_quaternion(quaternion, q_r_complex):
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    assert complete_lift_complex(zw) == \
        complexify(complete_lift_real(real_identification(zw)))
    assert complete_lift_complex(quaternion) != q_r_complex


# ---------------------------------------------------------------------------
# The shared lift kernel against the loops it replaced
# ---------------------------------------------------------------------------

def _assert_same_lift(phi):
    """Both lifts of phi (the complex one on its real form as well) equal the
    old loops' lifts term by term in dict order, with the same coefficient
    types and variable names; returns the new lift."""
    if isinstance(phi, ComplexPolyMap):
        _assert_same_lift(real_identification(phi))
        new, old = complete_lift_complex(phi), lift_oracle.complete_lift_complex(phi)
    else:
        new, old = complete_lift_real(phi), lift_oracle.complete_lift_real(phi)
    assert type(new) is type(old)
    assert (new.domain_dim, new.codomain_dim) == (old.domain_dim, old.codomain_dim)
    for p, q in zip(new.components, old.components, strict=True):
        # anti_lift's NotPartialLinear witness is the first term in this order
        assert list(p.terms.items()) == list(q.terms.items())
        assert list(map(type, p.terms.values())) == list(map(type, q.terms.values()))
        assert (p.num_vars, p.num_complex) == (q.num_vars, q.num_complex)
    assert new.var_names == old.var_names
    assert new.names() == old.names()
    _assert_same_as_the_poly_dot_lift(phi, new)
    return new


def _assert_same_as_the_poly_dot_lift(phi, new):
    """The one-pass lift ``new`` of phi equals the lift that summed the
    remapped partials' products with the fiber variables through
    ``poly_dot``, and each component equals the lift that read every field
    of every term: the same terms in dict order with the same coefficient
    types, width and exponent bound, equal and of equal hash, and rendered
    to the same bytes as the old ``render`` gives."""
    fiber = "w" if isinstance(phi, ComplexPolyMap) else "y"
    old = lift_oracle.packed_complete_lift(phi, fiber)
    assert new == old and hash(new) == hash(old)
    names = old.names()
    for p, q, base in zip(new.components, old.components, phi.components,
                          strict=True):
        scanned = poly_oracle.field_scan_complete_lift(base)
        assert [(e, c, type(c)) for e, c in p.terms.items()] == \
            [(e, c, type(c)) for e, c in q.terms.items()] == \
            [(e, c, type(c)) for e, c in scanned.terms.items()]
        assert (p.num_vars, p.num_complex) == (q.num_vars, q.num_complex) == \
            (scanned.num_vars, scanned.num_complex)
        assert (p._width, p._bound) == (q._width, q._bound) == \
            (scanned._width, scanned._bound)
        assert p == q and hash(p) == hash(q)
        assert render(p, names) == poly_oracle.packed_render(q, names)
        assert render(p) == poly_oracle.packed_render(q)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_lift_kernel_matches_the_old_loops_on_seeded_maps(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    maps = [random_real_map(rng, m, n),
            random_harmonic_map(rng, rng.randint(2, 4), n, max_degree=3),
            random_quadratic_map(rng, m, n),
            random_complex_map(rng, rng.randint(1, 3), n),
            random_complex_map(rng, rng.randint(1, 3), n, holomorphic_only=True)]
    for phi in maps:
        lifted = _assert_same_lift(phi)
        # lifting again repeats the fiber names: both fall back to canonical ones
        assert _assert_same_lift(lifted).var_names is None


def test_lift_kernel_matches_the_old_loops_on_named_variables():
    real = RealPolyMap(2, 1, [parse_poly("x1^2*x2 - 3", 2)], ("a", "b"))
    assert _assert_same_lift(real).names() == ("a", "b", "y1", "y2")
    clash = RealPolyMap(2, 1, [parse_poly("x1*x2", 2)], ("x1", "y1"))
    assert _assert_same_lift(clash).var_names is None
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2 + conj(z1); }")
    named = ComplexPolyMap(2, 1, zw.components, ("u", "v"))
    assert _assert_same_lift(named).names() == (
        "u", "v", "w1", "w2", "ub", "vb", "wb1", "wb2")
    constant = RealPolyMap(2, 2, [parse_poly("5", 2), MultiPoly(2, {})])
    assert _assert_same_lift(constant).components == (MultiPoly(4, {}),) * 2


def test_lift_kernel_matches_the_old_loops_on_the_catalog():
    for entry_id in entry_ids():
        phi = parse_map(lookup(entry_id).definition)
        if isinstance(phi, (RealPolyMap, ComplexPolyMap)):
            _assert_same_lift(phi)


def test_lift_kernel_matches_the_old_loops_on_the_ladder(phi_r16, phi_r16_real):
    _assert_same_lift(phi_r16)
    r32 = _assert_same_lift(phi_r16_real)
    r64 = _assert_same_lift(r32)
    assert [len(c.terms) for c in r64.components] == [1472, 1472]


def _integral_fraction_map(rng, m, n):
    """Fraction coefficients c = k/d on monomials whose exponents are d or 2d,
    so that some e*c of the lift are integral and some are not."""
    components = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            d = rng.choice((2, 3))
            exponents = [0] * m
            for j in rng.sample(range(m), rng.randint(1, m)):
                exponents[j] = rng.choice((1, d, 2 * d))
            terms[tuple(exponents)] = Fraction(rng.choice((1, -1, 5, -7)), d)
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, n, components)


def test_lift_kernel_demotes_integral_fractions_as_the_old_loops_did():
    rng = random.Random(18)
    demoted = kept = 0
    for _ in range(40):
        phi = _integral_fraction_map(rng, rng.randint(1, 4), rng.randint(1, 3))
        for c in _assert_same_lift(phi).components:
            demoted += sum(type(v) is int for v in c.terms.values())
            kept += sum(type(v) is Fraction for v in c.terms.values())
    assert demoted and kept


@pytest.mark.parametrize("exponent", [254, 255, 256, 300, 65535, 65536])
def test_lift_kernel_widens_the_fields_as_the_old_loops_did(exponent):
    # 255 + 1 and 65535 + 1 outgrow the operand's field: the lift widens
    real = RealPolyMap(3, 2, [
        parse_poly(f"x1^{exponent}*x2 - 3/2*x2^2*x3 + 7*x3 + 1", 3),
        parse_poly(f"x2^{exponent} + x1*x2*x3^{exponent}", 3)])
    lifted = _assert_same_lift(real)
    assert lifted.components[0]._width == ((exponent + 1).bit_length() + 7) // 8
    half = GaussianRational(Fraction(1, 2), -2)
    complex_map = ComplexPolyMap(2, 2, [
        MultiPoly(4, {(exponent, 1, 0, 2): half, (0, 0, exponent, 1): 3,
                      (1, 1, 1, 1): Fraction(-5, 3), (0, 0, 0, 0): 1}, 2),
        MultiPoly(4, {(0, 2, exponent, 0): GaussianRational(0, 1),
                      (2, 0, 0, 0): 1}, 2)])
    # the real identification refuses degrees past 1000, so no round trip
    _assert_same_as_the_poly_dot_lift(complex_map, complete_lift_complex(complex_map))


def test_lift_kernel_matches_the_old_loops_on_constants_and_zero_partials():
    real = RealPolyMap(3, 4, [parse_poly("5", 3), MultiPoly(3, {}),
                              parse_poly("x1^2 - 1/3", 3),
                              parse_poly("x3^4*x1 + x3", 3)])
    lifted = _assert_same_lift(real)
    assert lifted.components[:2] == (MultiPoly(6, {}),) * 2
    complex_map = ComplexPolyMap(2, 3, [
        MultiPoly.constant(4, GaussianRational(1, 1), 2),
        parse_map("map f: C^2 -> C^1 { f1 = conj(z1)*conj(z2) + 2; }").components[0],
        parse_map("map f: C^2 -> C^1 { f1 = z2^3*conj(z1) - i*z2; }").components[0]])
    lifted = _assert_same_lift(complex_map)
    # a partial in zb only: the holomorphic lift of a function of zb is zero
    assert lifted.components[:2] == (MultiPoly(8, {}, 4),) * 2


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_lift_kernel_matches_the_old_loops_on_maps_of_one_variable(seed):
    rng = random.Random(seed)
    _assert_same_lift(random_real_map(rng, 1, rng.randint(1, 3), max_degree=5))
    _assert_same_lift(random_complex_map(rng, 1, rng.randint(1, 2)))
    _assert_same_lift(_integral_fraction_map(rng, 1, 2))


# ---------------------------------------------------------------------------
# The anti-lift against the loop it replaced
# ---------------------------------------------------------------------------

def _assert_same_antilift(Phi):
    """anti_lift and the old loop, which takes the split as an object with
    ``total_dim`` and ``split_index``, give the same outcome: the same
    witness, or the same map term by term in dict order with the same
    coefficient types; returns the outcome."""
    split = SimpleNamespace(total_dim=Phi.domain_dim, split_index=Phi.domain_dim // 2)
    new, old = anti_lift(Phi), lift_oracle.anti_lift(Phi, split)
    assert type(new) is type(old)
    assert new == old
    if isinstance(new, RealPolyMap):
        polys = list(zip(new.components, old.components, strict=True))
    elif isinstance(new, MixedPartialObstruction):
        polys = [(new.value_jk, old.value_jk), (new.value_kj, old.value_kj)]
    else:
        polys = []
    for p, q in polys:
        assert list(p.terms.items()) == list(q.terms.items())
        assert list(map(type, p.terms.values())) == list(map(type, q.terms.values()))
    return new


def _random_fiber_linear_map(rng, m, n):
    """sum_j M_ij(x) y_j with random coefficients M_ij, which are rarely a
    Jacobian."""
    identity = {j: j for j in range(m)}
    components = []
    for _ in range(n):
        total = MultiPoly(2 * m, {})
        for j in range(m):
            entry = poly_oracle.packed_remap(random_real_poly(rng, m), 2 * m, identity)
            total = total + entry * MultiPoly.variable(2 * m, m + j)
        components.append(total)
    return RealPolyMap(2 * m, n, components)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_antilift_matches_the_old_loop_on_seeded_maps(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    lifts = [random_real_map(rng, m, n),
             random_harmonic_map(rng, max(m, 2), n, max_degree=3),
             random_quadratic_map(rng, m, n),
             real_identification(random_complex_map(rng, rng.randint(1, 2), n))]
    for phi in lifts:
        lift = complete_lift_real(phi)
        outcome = _assert_same_antilift(lift)
        assert isinstance(outcome, RealPolyMap)
    _assert_same_antilift(_random_fiber_linear_map(rng, m, n))
    _assert_same_antilift(random_real_map(rng, 2 * m, n))


def test_antilift_matches_the_old_loop_on_both_obstructions(quaternion_real):
    rng = random.Random(10)
    mixed = [quaternion_real,
             real_form(parse_map(lookup("ex3.5-antilift-obstruction").definition)),
             *(_random_fiber_linear_map(rng, 3, 2) for _ in range(5))]
    for Phi in mixed:
        outcome = _assert_same_antilift(Phi)
        assert isinstance(outcome, MixedPartialObstruction)
    lift = complete_lift_real(random_real_map(rng, 3, 2))
    squared = MultiPoly.variable(6, 4) ** 2
    not_linear = [parse_map("map f: R^2 -> R^1 { f1 = x1*x2^2; }"),
                  RealPolyMap(6, 2, [lift.components[0] + squared,
                                     lift.components[1]]),
                  RealPolyMap(6, 2, [lift.components[0],
                                     lift.components[1] + 1])]
    for Phi in not_linear:
        outcome = _assert_same_antilift(Phi)
        assert isinstance(outcome, NotPartialLinear)


def test_antilift_matches_the_old_loop_on_the_ladder(phi_r16_real):
    r32 = complete_lift_real(phi_r16_real)
    recovered = _assert_same_antilift(r32)
    assert recovered == phi_r16_real


# ---------------------------------------------------------------------------
# The anti-lift and the block-Jacobian check against their packed bodies
# ---------------------------------------------------------------------------

def _assert_same_as_the_packed_antilift(Phi):
    """anti_lift and its body that split packed keys with
    ``fiber_coefficients`` give the same witness, the same obstruction
    values term by term, or the same base map with the same width and
    bound; returns the outcome.  An obstruction value's bound is not
    compared: each entry of M(x) now takes its own bound, where the packed
    split kept the lifted component's."""
    new, old = anti_lift(Phi), lift_oracle.packed_anti_lift(Phi)
    assert type(new) is type(old)
    assert new == old
    if isinstance(new, RealPolyMap):
        for p, q in zip(new.components, old.components, strict=True):
            assert [(e, c, type(c)) for e, c in p.terms.items()] == \
                [(e, c, type(c)) for e, c in q.terms.items()]
            assert (p._width, p._bound) == (q._width, q._bound)
    elif isinstance(new, MixedPartialObstruction):
        for p, q in ((new.value_jk, old.value_jk), (new.value_kj, old.value_kj)):
            assert [(e, c, type(c)) for e, c in p.terms.items()] == \
                [(e, c, type(c)) for e, c in q.terms.items()]
    return new


def _with_one_term_changed(rng, Phi):
    """Phi with one term added to one component, or a coefficient changed:
    the term's fiber degree is 0, 1 or 2, and its x exponents may pass a
    one-byte field."""
    m = Phi.domain_dim // 2
    exponents = [rng.choice((0, 0, 1, 2, 300)) for _ in range(m)]
    fiber = [0] * m
    for _ in range(rng.choice((0, 1, 1, 2))):
        fiber[rng.randrange(m)] += 1
    components = list(Phi.components)
    k = rng.randrange(len(components))
    term = MultiPoly(2 * m, {tuple(exponents + fiber): rng.choice(
        (1, -2, Fraction(1, 3)))})
    components[k] = components[k] + term
    return RealPolyMap(2 * m, Phi.codomain_dim, components)


def test_antilift_matches_its_packed_body_on_the_catalog():
    rng = random.Random(27)
    for entry_id in entry_ids():
        phi = parse_map(lookup(entry_id).definition)
        if isinstance(phi, ComplexPolyMap):
            phi = real_identification(phi)
        if not isinstance(phi, RealPolyMap):
            continue
        lift = complete_lift_real(phi)
        assert isinstance(_assert_same_as_the_packed_antilift(lift), RealPolyMap)
        _assert_same_as_the_packed_antilift(_with_one_term_changed(rng, lift))
        if phi.domain_dim % 2 == 0:
            _assert_same_as_the_packed_antilift(phi)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_antilift_matches_its_packed_body_on_seeded_lifts(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    maps = [random_real_map(rng, m, n),
            random_harmonic_map(rng, max(m, 2), n, max_degree=3),
            random_quadratic_map(rng, m, n),
            real_identification(random_complex_map(rng, rng.randint(1, 2), n))]
    for phi in maps:
        lift = complete_lift_real(phi)
        assert isinstance(_assert_same_as_the_packed_antilift(lift), RealPolyMap)
        _assert_same_as_the_packed_antilift(_with_one_term_changed(rng, lift))
    _assert_same_as_the_packed_antilift(_random_fiber_linear_map(rng, m, n))


def test_antilift_witness_is_the_first_term_of_fiber_degree_other_than_1():
    x1, y1, y2 = (MultiPoly.variable(4, j) for j in (0, 2, 3))
    # y1*y2 and x1 both fail; y1*y2 comes first in term order
    Phi = RealPolyMap(4, 2, [x1 * y2, y1 * y2 + x1 * y1 + x1])
    outcome = _assert_same_as_the_packed_antilift(Phi)
    assert outcome == NotPartialLinear(2, (0, 0, 1, 1), 2)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_block_jacobian_check_matches_its_packed_body(seed):
    rng = random.Random(seed)
    phi = random_quadratic_map(rng, rng.randint(1, 4), rng.randint(1, 3))
    assert block_jacobian_check(phi) is lift_oracle.packed_block_jacobian_check(phi)
    cubic = random_real_map(rng, rng.randint(1, 3), 2, max_degree=3)
    outcomes = []
    for check in (block_jacobian_check, lift_oracle.packed_block_jacobian_check):
        try:
            outcomes.append(check(cubic))
        except ShapeError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# The anti-lift against its body that took two single partials per pair
# ---------------------------------------------------------------------------

def _assert_same_as_the_antilift_by_partials(Phi):
    """anti_lift, which compares one ``partials()`` dict per entry of M(x),
    and its body that took two single partials per pair of entries give the
    same outcome: the same witness, whose values, or the same base map,
    whose components, hold the same terms in dict order with the same
    coefficient types, width and bound; returns the outcome."""
    new, old = anti_lift(Phi), lift_oracle.anti_lift_by_partials(Phi)
    assert type(new) is type(old)
    assert new == old
    if isinstance(new, RealPolyMap):
        polys = list(zip(new.components, old.components, strict=True))
    elif isinstance(new, MixedPartialObstruction):
        polys = [(new.value_jk, old.value_jk), (new.value_kj, old.value_kj)]
        assert new.describe() == old.describe()
    else:
        polys = []
    for p, q in polys:
        assert [(e, c, type(c)) for e, c in p.terms.items()] == \
            [(e, c, type(c)) for e, c in q.terms.items()]
        assert (p._width, p._bound) == (q._width, q._bound)
    return new


def _with_one_coefficient_changed(rng, Phi):
    """Phi with the coefficient of one term of one component moved by 1,
    -2 or 1/3: every fiber degree stays 1 unless the term cancels."""
    components = list(Phi.components)
    k = rng.choice([i for i, c in enumerate(components) if c])
    exponents = rng.choice(list(components[k].terms))
    delta = rng.choice((1, -2, Fraction(1, 3)))
    components[k] = components[k] + MultiPoly(Phi.domain_dim, {exponents: delta})
    return RealPolyMap(Phi.domain_dim, Phi.codomain_dim, components)


def test_antilift_matches_its_body_by_partials_on_the_catalog():
    rng = random.Random(32)
    for entry_id in entry_ids():
        phi = real_form(parse_map(lookup(entry_id).definition))
        if not isinstance(phi, RealPolyMap):
            continue
        if phi.domain_dim % 2 == 0:
            _assert_same_as_the_antilift_by_partials(phi)
        lift = complete_lift_real(phi)
        assert isinstance(_assert_same_as_the_antilift_by_partials(lift),
                          RealPolyMap)
        if any(lift.components):
            _assert_same_as_the_antilift_by_partials(
                _with_one_coefficient_changed(rng, lift))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_antilift_matches_its_body_by_partials_on_seeded_lifts(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    maps = [random_real_map(rng, m, n),
            random_harmonic_map(rng, max(m, 2), n, max_degree=3),
            random_quadratic_map(rng, m, n),
            real_identification(random_complex_map(rng, rng.randint(1, 2), n))]
    for phi in maps:
        lift = complete_lift_real(phi)
        assert isinstance(_assert_same_as_the_antilift_by_partials(lift),
                          RealPolyMap)
        if any(lift.components):
            _assert_same_as_the_antilift_by_partials(
                _with_one_coefficient_changed(rng, lift))
    _assert_same_as_the_antilift_by_partials(_random_fiber_linear_map(rng, m, n))


@pytest.mark.parametrize("Phi,witness", [
    # M = (x2, 0): d M_11 / d x2 = 1 against d M_12 / d x1 = 0
    (parse_map("map f: R^4 -> R^1 { f1 = x2*x3; }"), (1, 1, 2, "1", "0")),
    # M = (0, x1): the first of the two mixed partials is the 0
    (parse_map("map f: R^4 -> R^1 { f1 = x1*x4; }"), (1, 1, 2, "0", "1")),
    (parse_map("map f: R^4 -> R^2 { f1 = x1*x3 + x2*x4; f2 = x1^2*x4; }"),
     (2, 1, 2, "0", "2*x1")),
    (real_form(parse_map(lookup("ex3.5-antilift-obstruction").definition)),
     (2, 3, 4, "-1", "1")),
], ids=["second-is-0", "first-is-0", "second-row", "ex3.5"])
def test_antilift_mixed_partial_witnesses(Phi, witness):
    outcome = _assert_same_as_the_antilift_by_partials(Phi)
    assert isinstance(outcome, MixedPartialObstruction)
    assert (outcome.component, outcome.var_j, outcome.var_k,
            render(outcome.value_jk), render(outcome.value_kj)) == witness
    assert f"= {witness[3]} differs" in outcome.describe()
