import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expr_oracle import poly_to_expr, same_tree
from genmaps import random_real_poly
from morphlift.exact import GaussianRational
from morphlift.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Mul,
    NotPolynomial,
    Pow,
    SmoothMap,
    Sqrt,
    Var,
    derivative,
    eval_float,
    lower_to_poly,
)
from morphlift.mapfile import MapSyntaxError, parse_map, render_map_source
from morphlift.maps import ComplexPolyMap, RealPolyMap
from morphlift.numeric import numeric_check
from morphlift.poly import MultiPoly


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_quaternion_product():
    parsed = parse_map("map q: C^4 -> C^2 { q1 = z1*z3 - z2*conj(z4); "
                       "q2 = z1*z4 + z2*conj(z3); }")
    assert isinstance(parsed, ComplexPolyMap)
    assert (parsed.domain_dim, parsed.codomain_dim) == (4, 2)


def test_parse_projection():
    parsed = parse_map("map p: R^2 -> R^1 { p1 = x1; }")
    assert isinstance(parsed, RealPolyMap)
    assert parsed.components[0] == MultiPoly(2, {(1, 0): 1})


def test_parse_stereographic_with_local_binding_and_guard(stereographic):
    assert isinstance(stereographic, SmoothMap)
    assert stereographic.domain_dim == 3
    assert stereographic.codomain_dim == 2
    assert len(stereographic.guards) == 1


@pytest.mark.parametrize("source,fragment", [
    ("map f: R^2 -> R^1 { f1 = x3; }", "arity"),
    ("map f: R^2 -> R^1 { f1 = conj(x1); }", "complex syntax"),
    ("map f: R^2 -> R^1 { f1 = i*x1; }", "complex syntax"),
    ("map f: C^2 -> C^1 { f1 = x1; }", "real syntax"),
    ("map f: R^2 -> R^1 { f1 = y1; }", "unknown identifier"),
    ("map f: R^2 -> R^2 { f1 = x1; }", "missing component"),
    ("map f: R^2 -> R^1 { f1 = x1 + ; }", "expected an expression"),
    ("map f: R^2 -> C^1 { f1 = x1; }", "both be real or both complex"),
    ("map f: C^1 -> C^1 { f1 = z1/z1; }", "not supported"),
    ("map f: R^1 -> R^1 { f1 = 1.5*x1; }", "decimal"),
    ("map guard: R^1 -> R^1 { guard1 = x1; }", "reserved"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(MapSyntaxError) as excinfo:
        parse_map(source)
    assert fragment in str(excinfo.value)


def test_parse_error_carries_location():
    with pytest.raises(MapSyntaxError) as excinfo:
        parse_map("map f: R^2 -> R^1 {\n  f1 = x9;\n}")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 8


def test_duplicate_binding_rejected():
    with pytest.raises(MapSyntaxError):
        parse_map("map f: R^1 -> R^1 { a = x1; a = 2*x1; f1 = a; }")


def test_guard_forces_smooth_map():
    parsed = parse_map("map f: R^2 -> R^1 { f1 = x1*x2; guard x1; }")
    assert isinstance(parsed, SmoothMap)


def test_local_bindings_are_inlined():
    parsed = parse_map("map f: R^2 -> R^1 { s = x1 + x2; f1 = s*s; }")
    assert isinstance(parsed, RealPolyMap)
    expected = MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert parsed.components[0] == expected


def test_parse_render_parse_fixed_point(stereographic):
    sources = [
        "map q: C^4 -> C^2 { q1 = z1*z3 - z2*conj(z4); q2 = z1*z4 + z2*conj(z3); }",
        "map p: R^3 -> R^2 { p1 = x1^2 - x3; p2 = 1/2*x2; }",
        render_map_source(stereographic, "h"),
    ]
    for source in sources:
        first = parse_map(source)
        rendered = render_map_source(first, "g")
        second = parse_map(rendered)
        if isinstance(first, SmoothMap):
            assert render_map_source(second, "g") == rendered
        else:
            assert second == first


def test_a_deep_smooth_map_compares_hashes_and_prints_without_recursion():
    # nodes compare and hash by identity, so no operation walks the
    # 5000-deep sum
    source = ("map f: R^1 -> R^1 { f1 = " + " + ".join(["x1"] * 5000)
              + " + 1/x1; }")
    first, second = parse_map(source), parse_map(source)
    assert isinstance(first, SmoothMap)
    assert first == first and first != second
    assert len({first, second}) == 2
    assert repr(first) and str(first)


@pytest.mark.parametrize("value, expected", [
    (5, 5), (True, 1), (Fraction(4, 2), 2), (GaussianRational(3, 0), 3)])
def test_const_keeps_a_canonical_int(value, expected):
    held = Const(value).value
    assert type(held) is int and held == expected


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _radius():
    return Sqrt(Add(Add(Pow(Var(0), 2), Pow(Var(1), 2)), Pow(Var(2), 2)))


def test_sqrt_derivative_against_finite_difference():
    d = derivative(_radius(), 0)
    point = [1.0, 2.0, 2.0]
    assert abs(eval_float(d, point).real - 1.0 / 3.0) < 1e-8
    step = 1e-6
    fd = (eval_float(_radius(), [1 + step, 2, 2]).real
          - eval_float(_radius(), [1 - step, 2, 2]).real) / (2 * step)
    assert abs(eval_float(d, point).real - fd) < 1e-6


def test_quotient_rule():
    e = Div(Var(0), Var(1))
    d = derivative(e, 1)
    for point in [(2.0, 3.0), (-1.0, 0.5)]:
        expected = -point[0] / point[1] ** 2
        assert abs(eval_float(d, point).real - expected) < 1e-12


def test_constant_derivative_is_zero():
    assert same_tree(derivative(Const(7), 0), Const(0))


@given(st.integers(0, 10**6), st.integers(0, 2))
def test_derivative_matches_exact_partial_on_polynomials(seed, index):
    poly = random_real_poly(random.Random(seed), 3)
    tree = poly_to_expr(poly)
    derived = derivative(tree, index)
    lowered = lower_to_poly(derived, 3)
    assert lowered == poly.partial(index)


def test_smooth_map_derivative_cross_check(stereographic):
    rng = random.Random(11)
    for _ in range(100):
        point = [rng.uniform(-2, 2) for _ in range(3)]
        r = math.sqrt(sum(x * x for x in point))
        if r - point[2] < 1e-3:
            continue
        for k, comp in enumerate(stereographic.components):
            for j in range(3):
                sym = eval_float(derivative(comp, j), point).real
                step = 1e-6
                up = list(point)
                down = list(point)
                up[j] += step
                down[j] -= step
                fd = (eval_float(comp, up).real
                      - eval_float(comp, down).real) / (2 * step)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_stereographic_hand_value(stereographic):
    value = [eval_float(c, (1.0, 0.0, -1.0)) for c in stereographic.components]
    r = math.sqrt(2.0)
    assert abs(value[0].real - 1.0 / (r + 1.0)) < 1e-12
    assert abs(value[1].real) < 1e-15


def test_eval_square():
    assert eval_float(Pow(Var(0), 2), [3.0]) == 9.0


def test_eval_guard_violation(stereographic):
    with pytest.raises(EvalDomainError, match="^guard .* violated at sample point$"):
        numeric_check(stereographic, [(0.0, 0.0, 1.0)], 1e-8)


def test_eval_negative_sqrt_is_domain_error():
    with pytest.raises(EvalDomainError):
        eval_float(Sqrt(Var(0)), [-1.0])


def test_eval_division_by_zero():
    with pytest.raises(EvalDomainError):
        eval_float(Div(Const(1), Var(0)), [0.0])


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def test_lower_simple_product():
    tree = Add(Mul(Var(0), Var(1)), Const(1))
    poly = lower_to_poly(tree, 2)
    assert len(poly.terms) == 2


def test_lower_conj_maps_to_antiholomorphic_variable():
    from morphlift.expr import Conj
    tree = Mul(Var(0), Conj(Var(3)))
    poly = lower_to_poly(tree, 8, 4)
    assert poly == MultiPoly(8, {(1, 0, 0, 0, 0, 0, 0, 1): 1}, 4)


def test_lower_sqrt_fails_with_node():
    with pytest.raises(NotPolynomial) as excinfo:
        lower_to_poly(Sqrt(Var(0)), 1)
    assert "sqrt" in str(excinfo.value)


def test_lower_negative_power_fails():
    with pytest.raises(NotPolynomial):
        lower_to_poly(Pow(Var(0), -1), 1)


@given(st.integers(0, 10**6), st.data())
def test_float_eval_agrees_with_exact_on_polynomials(seed, data):
    poly = random_real_poly(random.Random(seed), 3)
    tree = poly_to_expr(poly)
    point = [data.draw(st.integers(-10, 10)) for _ in range(3)]
    exact = poly.evaluate(point)
    floated = eval_float(tree, [float(x) for x in point])
    scale = max(1.0, abs(float(exact)))
    assert abs(floated.real - float(exact)) <= 1e-12 * scale
    assert floated.imag == 0.0


def test_render_expr_round_trip():
    sources = ["x1/(x2 - x3)", "-x1^2*x2 + 1/2", "sqrt(x1^2 + x2^2) - x3"]
    env_source = "map f: R^3 -> R^1 {{ f1 = {}; guard x1 + 10; }}"
    for body in sources:
        first = parse_map(env_source.format(body))
        rendered = render_map_source(first, "f")
        second = parse_map(rendered)
        assert render_map_source(second, "f") == rendered
