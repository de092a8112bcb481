import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from genmaps import (
    quaternionic_hopf,
    random_harmonic_map,
    random_rational_point,
)
from calculus_oracle import antiholomorphic_jacobian
from morphlift.analysis import (
    hessian_conditions,
    hwc_certificate,
    is_harmonic,
    is_harmonic_morphism,
    is_holomorphic,
    is_orthogonal_multiplication,
)
from morphlift.calculus import laplacian
from morphlift.catalog import lookup
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import (
    RealPolyMap,
    ShapeError,
    compose,
    real_identification,
)
from morphlift.poly import MultiPoly, render


def _hopf():
    return parse_map("map h: R^4 -> R^3 { h1 = x1^2 + x2^2 - x3^2 - x4^2; "
                     "h2 = 2*x1*x3 - 2*x2*x4; h3 = 2*x1*x4 + 2*x2*x3; }")


def _projection():
    return parse_map("map p: R^4 -> R^2 { p1 = x1; p2 = x2; }")


def _zw_real():
    return real_identification(parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }"))


# ---------------------------------------------------------------------------
# Harmonicity
# ---------------------------------------------------------------------------

def test_zw_real_form_is_harmonic():
    assert is_harmonic(_zw_real()).verdict


def test_square_is_not_harmonic():
    report = is_harmonic(parse_map("map f: R^2 -> R^1 { f1 = x1^2; }"))
    assert not report.verdict
    assert report.violation.component_k == 1
    assert report.violation.residual == MultiPoly.constant(2, 2)


def test_failing_first_component_computes_one_laplacian(monkeypatch):
    # the first nonzero residual ends the check: the second component's
    # Laplacian is never built
    from morphlift import analysis

    calls = []

    def counting(p):
        calls.append(p)
        return laplacian(p)

    monkeypatch.setattr(analysis, "laplacian", counting)
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1^2; f2 = x2^3; }")
    report = is_harmonic(phi)
    assert report.violation.component_k == 1
    assert calls == [phi.components[0]]


def test_complex_lift_real_form_is_harmonic(quaternion):
    from morphlift.lift import complete_lift_complex
    lift = complete_lift_complex(quaternion)
    assert is_harmonic(real_identification(lift)).verdict


# ---------------------------------------------------------------------------
# Horizontal weak conformality
# ---------------------------------------------------------------------------

def test_projection_hwc_with_unit_dilation():
    report = hwc_certificate(_projection())
    assert report.verdict
    assert report.dilation == MultiPoly.constant(4, 1)


def test_zw_real_form_dilation_is_norm_squared():
    report = hwc_certificate(_zw_real())
    assert report.verdict
    assert report.dilation == parse_poly("x1^2 + x2^2 + x3^2 + x4^2", 4)


def test_complex_lift_fails_hwc_with_residual(quaternion):
    from morphlift.lift import complete_lift_complex
    lift = real_identification(complete_lift_complex(quaternion))
    report = hwc_certificate(lift)
    assert not report.verdict
    assert report.violation is not None
    assert not report.violation.residual.is_zero
    # the residual really is an entry of the Gram matrix
    from morphlift.calculus import jacobian
    j = jacobian(lift)

    def gram(k, l):
        total = MultiPoly(lift.domain_dim, {})
        for a, b in zip(j.entries[k], j.entries[l]):
            total = total + a * b
        return total
    k, l = report.violation.component_k - 1, report.violation.component_l - 1
    if report.violation.kind == "off-diagonal":
        assert gram(k, l) == report.violation.residual
    else:
        assert gram(l, l) - gram(k, k) == report.violation.residual


def test_constant_map_reports_degenerate_note():
    constant = parse_map("map f: R^2 -> R^1 { f1 = 4; }")
    report = hwc_certificate(constant)
    assert report.verdict
    assert report.dilation.is_zero
    assert any("degenerate" in note for note in report.notes)


def test_anisotropic_linear_map_fails():
    phi = parse_map("map f: R^2 -> R^2 { f1 = x1; f2 = 2*x2; }")
    report = is_harmonic_morphism(phi)
    assert not report.verdict


@given(st.integers(2, 5))
def test_dilation_scales_quadratically(factor):
    phi = _zw_real()
    scaled = RealPolyMap(4, 2, [c.scale(factor) for c in phi.components])
    base = hwc_certificate(phi).dilation
    assert hwc_certificate(scaled).dilation == base.scale(factor * factor)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_dilation_is_nonnegative_at_rational_points(seed):
    rng = random.Random(seed)
    report = hwc_certificate(_hopf())
    point = random_rational_point(rng, 4)
    assert report.dilation.evaluate(point) >= 0


# ---------------------------------------------------------------------------
# Harmonic morphisms
# ---------------------------------------------------------------------------

def test_q_r_lift_is_harmonic_morphism(q_r_lift):
    report = is_harmonic_morphism(q_r_lift)
    assert report.verdict
    expected = MultiPoly(16, {})
    for j in range(16):
        v = MultiPoly.variable(16, j)
        expected = expected + v * v
    assert report.dilation == expected


def test_phi_r16_is_harmonic_morphism(phi_r16_real):
    assert is_harmonic_morphism(phi_r16_real).verdict


def test_dilation_of_composition_factorizes(phi_r16_real, q_r_lift):
    # chain rule for dilations: the squared dilation of zw o Q_r equals
    # (dilation of zw evaluated at Q_r) times the dilation of Q_r
    lam_phi = hwc_certificate(phi_r16_real).dilation
    lam_lift = hwc_certificate(q_r_lift).dilation
    image_norm = MultiPoly(16, {})
    for comp in q_r_lift.components:
        image_norm = image_norm + comp * comp
    assert lam_phi == image_norm * lam_lift


# ---------------------------------------------------------------------------
# Holomorphy
# ---------------------------------------------------------------------------

def test_zw_is_holomorphic():
    assert is_holomorphic(parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")).verdict


def test_quaternion_not_holomorphic(quaternion):
    report = is_holomorphic(quaternion)
    assert not report.verdict
    assert report.violation.entry == (1, 4)
    assert render(report.violation.residual, quaternion.names()) == "-z2"


def test_holomorphic_certificate_is_the_first_nonzero_partial(quaternion):
    anti = antiholomorphic_jacobian(quaternion)
    first = next((i + 1, j + 1) for i in range(anti.rows)
                 for j in range(anti.cols) if not anti[i, j].is_zero)
    v = is_holomorphic(quaternion).violation
    assert (v.kind, v.component_k, v.component_l) == ("antiholomorphic", *first)
    assert v.entry == first
    assert v.residual == anti[first[0] - 1, first[1] - 1]


@pytest.mark.parametrize("entry_id, partials, total", [
    ("ex2.4-complex-lift-Q", 4, 16),
    ("ex1.4.iii-quaternion", 4, 8),
])
def test_holomorphic_takes_only_the_partials_it_reads(monkeypatch, entry_id,
                                                      partials, total):
    # the certificate is at entry (1, 4): the first row's four partials
    phi = parse_map(lookup(entry_id).definition)
    assert phi.codomain_dim * phi.domain_dim == total
    taken = []
    partial = MultiPoly.partial

    def counted(self, index):
        taken.append(index)
        return partial(self, index)

    monkeypatch.setattr(MultiPoly, "partial", counted)
    report = is_holomorphic(phi)
    assert report.violation.entry == (1, 4)
    assert len(taken) == partials


def test_pure_conjugation_not_holomorphic():
    report = is_holomorphic(parse_map("map f: C^1 -> C^1 { f1 = conj(z1); }"))
    assert not report.verdict


# ---------------------------------------------------------------------------
# Hessian conditions (lift conformality transfer)
# ---------------------------------------------------------------------------

def test_hessian_conditions_for_zw():
    assert hessian_conditions(_zw_real()).verdict


def test_hessian_conditions_projection():
    assert hessian_conditions(_projection()).verdict


HWC_CATALOG_BUILDERS = [
    ("zw", lambda f: _zw_real()),
    ("zwbar", lambda f: real_identification(
        parse_map("map f: C^2 -> C^1 { f1 = z1*conj(z2); }"))),
    ("hopf", lambda f: _hopf()),
    ("projection", lambda f: _projection()),
    ("quaternion", "quaternion_real"),
    ("q-r-lift", "q_r_lift"),
    ("phi-r16", "phi_r16_real"),
]


@pytest.mark.parametrize("name,builder", HWC_CATALOG_BUILDERS,
                         ids=[n for n, _ in HWC_CATALOG_BUILDERS])
def test_hessian_conditions_match_lift_hwc(name, builder, request):
    # the transfer theorem: for an HWC map, the lift is HWC iff the
    # component Hessians share a square and pairwise anticommute
    phi = request.getfixturevalue(builder) if isinstance(builder, str) \
        else builder(None)
    assert hwc_certificate(phi).verdict  # hypothesis of the theorem
    conditions = hessian_conditions(phi).verdict
    lift_hwc = hwc_certificate(complete_lift_real(phi)).verdict
    assert conditions == lift_hwc


def test_degree_4_morphism_lift_fails_hwc(phi_r16_real):
    # unlike the quadratic examples, this degree-4 morphism does not lift
    # to a morphism: both sides of the transfer criterion are negative
    assert not hessian_conditions(phi_r16_real).verdict
    assert not hwc_certificate(complete_lift_real(phi_r16_real)).verdict


# The certificates the full-matrix computation gave: the first nonzero entry
# in row-major order, with its residual.  (kind, component pair, entry,
# residual term count, SHA-256 of the rendered residual)
R16_HESSIAN_CERTIFICATE = (
    "hessian-square", (1, 2), (1, 1), 40,
    "4adc8242d2e2a55dd89aded777fc45b4c46096b26c47c6fd9175eeeb52cf89dc")
R32_HESSIAN_CERTIFICATE = (
    "hessian-square", (1, 2), (1, 1), 256,
    "497428428674a7a713d5debc0ffe8d3d336e0142b0bf48dde62782eb02f2395f")
# The same note whether or not the input is HWC (the R^16 map is, its lift
# is not): hessian_conditions states the hypothesis and does not check it.
HESSIAN_NOTE = ("the lift equivalence is stated under the hypothesis that "
                "the input map is HWC; check it with --hwc",)


def _certificate(report):
    v = report.violation
    text = render(v.residual)
    return (v.kind, (v.component_k, v.component_l), v.entry,
            len(v.residual.terms), hashlib.sha256(text.encode()).hexdigest())


def test_hessian_certificates_on_the_lift_ladder(phi_r16_real):
    r16 = hessian_conditions(phi_r16_real)
    assert _certificate(r16) == R16_HESSIAN_CERTIFICATE
    assert r16.notes == HESSIAN_NOTE
    r32 = hessian_conditions(complete_lift_real(phi_r16_real))
    assert _certificate(r32) == R32_HESSIAN_CERTIFICATE
    assert r32.notes == HESSIAN_NOTE


@pytest.mark.parametrize("entry_id,certificate", [
    ("ex3.1.iii-quaternion-real-lift", None),
    ("ex2.4-complex-lift-Q", ("hessian-square", (1, 3), (13, 13), "-1")),
])
def test_hessian_certificates_on_catalog_maps(entry_id, certificate):
    phi = parse_map(lookup(entry_id).definition)
    if not isinstance(phi, RealPolyMap):
        phi = real_identification(phi)
    report = hessian_conditions(phi)
    if certificate is None:
        assert report.verdict and report.violation is None
    else:
        v = report.violation
        assert (v.kind, (v.component_k, v.component_l), v.entry,
                render(v.residual)) == certificate


def test_quaternionic_hopf_map_is_a_harmonic_morphism():
    phi = quaternionic_hopf()
    report = is_harmonic_morphism(phi)
    assert report.verdict
    squares = [MultiPoly.variable(8, j) ** 2 for j in range(8)]
    assert report.dilation == sum(squares, MultiPoly(8, {})).scale(4)


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_hessian_conditions_pass_on_the_quaternionic_hopf_lifts(hopf_lifts, dim):
    phi = hopf_lifts[dim]
    assert (phi.domain_dim, phi.codomain_dim) == (dim, 5)
    report = hessian_conditions(phi)
    assert report.verdict and report.violation is None
    assert report.notes == HESSIAN_NOTE


def test_hessian_conditions_fail_on_the_sign_flipped_hopf_map():
    v = hessian_conditions(quaternionic_hopf(flip=True)).violation
    assert (v.kind, v.component_k, v.component_l, v.entry) == \
        ("hessian-anticommute", 2, 3, (1, 2))
    assert v.residual == MultiPoly.constant(8, 8)


def test_hessian_anticommutator_certificate():
    # equal squares, so the first failure is the anticommutator 2*H^2
    report = hessian_conditions(parse_map(
        "map f: R^2 -> R^2 { f1 = x1*x2; f2 = x1*x2; }"))
    v = report.violation
    assert (v.kind, v.component_k, v.component_l, v.entry) == \
        ("hessian-anticommute", 1, 2, (1, 1))
    assert v.residual == MultiPoly.constant(2, 2)


# ---------------------------------------------------------------------------
# Quadratic morphisms lift to quadratic morphisms
# ---------------------------------------------------------------------------

QUADRATIC_MORPHISM_SOURCES = [
    "map f: C^2 -> C^1 { f1 = z1*z2; }",
    "map f: C^2 -> C^1 { f1 = z1*conj(z2); }",
]


def test_quadratic_morphism_lifts_pass(quaternion_real):
    maps = [real_identification(parse_map(s)) for s in QUADRATIC_MORPHISM_SOURCES]
    maps.append(_hopf())
    maps.append(quaternion_real)
    for phi in maps:
        assert all(sum(e) == 2 for c in phi.components for e in c.terms)
        assert is_harmonic_morphism(phi).verdict
        assert is_harmonic_morphism(complete_lift_real(phi)).verdict


# ---------------------------------------------------------------------------
# Composition of morphisms (desk scale)
# ---------------------------------------------------------------------------

def test_composition_of_morphisms_is_morphism(q_r_complex):
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    composition = real_identification(compose(zw, q_r_complex))
    assert is_harmonic_morphism(composition).verdict


def test_composition_equivalence_through_projection():
    # with a surjective morphism inside, the composite is a morphism
    # exactly when the outer map is
    projection = parse_map("map p: R^4 -> R^2 { p1 = x1; p2 = x2; }")
    morphism = parse_map("map f: R^2 -> R^2 { f1 = x1^2 - x2^2; f2 = 2*x1*x2; }")
    not_morphism = parse_map("map f: R^2 -> R^2 { f1 = x1^2; f2 = x2; }")
    assert is_harmonic_morphism(compose(morphism, projection)).verdict == \
        is_harmonic_morphism(morphism).verdict
    assert is_harmonic_morphism(compose(not_morphism, projection)).verdict == \
        is_harmonic_morphism(not_morphism).verdict


# ---------------------------------------------------------------------------
# Orthogonal multiplications
# ---------------------------------------------------------------------------

def test_quaternion_product_is_orthogonal_multiplication(quaternion_real):
    assert is_orthogonal_multiplication(quaternion_real, 4).verdict


def test_lift_of_orthogonal_multiplication_need_not_be_one(q_r_lift):
    report = is_orthogonal_multiplication(q_r_lift, 8)
    assert not report.verdict
    assert not report.violation.residual.is_zero


def test_scalar_multiplication_is_orthogonal():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1*x2; }")
    assert is_orthogonal_multiplication(phi, 1).verdict


def test_orthogonal_multiplication_rejects_nonbilinear():
    phi = parse_map("map f: R^2 -> R^1 { f1 = x1^2; }")
    with pytest.raises(ShapeError):
        is_orthogonal_multiplication(phi, 1)


# ---------------------------------------------------------------------------
# Harmonic morphisms from the harmonic generator
# ---------------------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_harmonic_maps_are_harmonic(seed):
    rng = random.Random(seed)
    phi = random_harmonic_map(rng, rng.randint(2, 4), rng.randint(1, 3))
    assert is_harmonic(phi).verdict
