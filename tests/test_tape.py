"""Differential tests of the float pipeline against ``expr_oracle``: the
compiled tape against recursive evaluation (one output and several), the
iterative derivative and renderer against the recursive ones, and
``numeric_check`` reports against the one-tree-at-a-time check."""

import gc
import io
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import expr_oracle as oracle
from test_cli_fuzz import expressions
from morphlift import cli
from morphlift.catalog import lookup
from morphlift.exact import GaussianRational
from morphlift.expr import (
    Add,
    Conj,
    Const,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Pow,
    SmoothMap,
    Sqrt,
    Sub,
    Var,
    _children,
    add,
    compile_tape,
    derivative,
    eval_float,
    mul,
    render_expr,
)
from morphlift.mapfile import parse_map
from morphlift.maps import real_identification
from morphlift.numeric import (
    GUARD_MARGIN,
    InternalConsistencyError,
    _derivatives,
    numeric_check,
    numeric_complete_lift,
    sample_points,
)

NUM_VARS = 3
NAMES = ("x1", "x2", "x3")
MAX_TREE_SIZE = 200     # nodes of the tree a DAG unfolds to; the oracle recurses

constants = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, 10 ** 400, -(3 ** 700)]),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.sampled_from([Fraction(10 ** 400, 3), Fraction(1, 10 ** 400)]),
    st.builds(GaussianRational,
              st.fractions(min_value=-3, max_value=3, max_denominator=4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
)
leaves = st.one_of(st.builds(Const, constants),
                   st.builds(Var, st.integers(0, NUM_VARS - 1)))
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0,
                     1e200, -1e200, 1e-200, 1e155, complex(0.0, 1.0)]),
    st.floats(-4.0, 4.0))
points = st.lists(coordinates, min_size=NUM_VARS, max_size=NUM_VARS)
batches = st.lists(points, min_size=1, max_size=40)


def _size(node) -> int:
    if isinstance(node, (Const, Var)):
        return 1
    if isinstance(node, (Add, Sub, Mul, Div)):
        return 1 + _size(node.left) + _size(node.right)
    if isinstance(node, Pow):
        return 1 + _size(node.base)
    return 1 + _size(node.arg)


def _rebuilt(node):
    """A structurally equal tree of new node objects."""
    kind = type(node)
    if kind is Const:
        return Const(node.value)
    if kind is Var:
        return Var(node.index)
    if kind in (Add, Sub, Mul, Div):
        return kind(_rebuilt(node.left), _rebuilt(node.right))
    if kind is Pow:
        return Pow(_rebuilt(node.base), node.exponent)
    return kind(_rebuilt(node.arg))


@st.composite
def dags(draw):
    """A pool of nodes built bottom up from earlier ones: every node kind,
    shared subtrees (one object used twice) and structurally equal distinct
    objects (rebuilt copies)."""
    pool = [draw(leaves) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 24))):
        small = [node for node in pool if _size(node) <= MAX_TREE_SIZE // 2]

        def pick():
            return draw(st.sampled_from(small))
        kind = draw(st.sampled_from(
            [Add, Sub, Mul, Div, Pow, Sqrt, Conj, Neg, "copy", "leaf"]))
        if kind in (Add, Sub, Mul, Div):
            node = kind(pick(), pick())
        elif kind is Pow:
            node = Pow(pick(), draw(st.integers(-3, 4)))
        elif kind in (Sqrt, Conj, Neg):
            node = kind(pick())
        elif kind == "copy":
            node = _rebuilt(pick())
        else:
            node = draw(leaves)
        pool.append(node)
    return pool


def _outcome(evaluate):
    """repr of the values, or the type and message of the first exception."""
    try:
        return "value", repr(evaluate())
    except (ArithmeticError, IndexError) as error:
        return "raises", type(error), str(error)


def _oracle_values(outputs, point):
    return [oracle.eval_float(node, point) for node in outputs]


def _at(tape, point):
    """The tape's output values at one point, each evaluated when taken."""
    return (column[0] for column in tape.run([point]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(dags(), points)
def test_single_output_matches_recursive_evaluation(pool, point):
    root = pool[-1]
    assert _outcome(lambda: eval_float(root, point)) \
        == _outcome(lambda: oracle.eval_float(root, point))


@settings(max_examples=300, deadline=None)
@given(dags(), st.data(), points)
def test_several_outputs_match_recursive_evaluation_in_order(pool, data, point):
    outputs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tape = compile_tape(outputs)
    assert _outcome(lambda: list(_at(tape, point))) \
        == _outcome(lambda: _oracle_values(outputs, point))


@settings(max_examples=100, deadline=None)
@given(dags(), st.data(), points)
def test_a_tape_stops_where_its_caller_stops(pool, data, point):
    # outputs after the first value the caller takes are not evaluated
    outputs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tail = Div(Const(1), Sub(Var(0), Var(0)))       # always divides by zero
    values = _at(compile_tape([*outputs, tail]), point)
    expected = _outcome(lambda: _oracle_values(outputs, point))
    assert _outcome(lambda: [next(values) for _ in outputs]) == expected


@settings(max_examples=200, deadline=None)
@given(dags(), st.data(), batches)
def test_columns_match_recursive_evaluation_point_by_point(pool, data, batch):
    outputs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tape = compile_tape(outputs)
    in_point_order = _outcome(lambda: [_oracle_values(outputs, point)
                                       for point in batch])
    try:
        columns = list(tape.run(batch))
    except (ArithmeticError, IndexError):
        # the run over all points raises one point's own first error ...
        assert _outcome(lambda: list(tape.run(batch))) in {
            _outcome(lambda: _oracle_values(outputs, point)) for point in batch}
        # ... and a replay one point at a time the first in point order
        assert in_point_order[0] == "raises"
        assert _outcome(lambda: [list(_at(tape, point)) for point in batch]) \
            == in_point_order
    else:
        assert in_point_order[0] == "value"
        assert repr(columns) == repr([[oracle.eval_float(node, point)
                                       for point in batch] for node in outputs])


def test_a_column_run_fails_at_its_first_failing_instruction():
    # the first point fails in the second output, the second point in the
    # first: over both points the division fails first, point by point the
    # square root does
    outputs = [Div(Const(1), Var(0)), Sqrt(Var(1))]
    batch = [[1.0, -1.0], [0.0, 1.0]]
    tape = compile_tape(outputs)
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        list(tape.run(batch))
    for replay in (lambda point: list(_at(tape, point)),
                   lambda point: _oracle_values(outputs, point)):
        with pytest.raises(EvalDomainError,
                           match="^square root of a negative real$"):
            for point in batch:
                replay(point)


@pytest.mark.parametrize("outputs, point, message", [
    # a Div evaluates and checks its denominator before its numerator
    ([Div(Sqrt(Var(0)), Var(1))], [-1.0, 0.0], "division by zero"),
    ([Div(Sqrt(Var(0)), Var(1))], [-1.0, 2.0], "square root of a negative real"),
    # a root is checked as soon as it is done, before a later output runs
    ([Mul(Var(0), Var(0)), Div(Const(1), Var(1))], [1e200, 0.0],
     "evaluation produced a non-finite value"),
    ([Div(Const(1), Var(1)), Mul(Var(0), Var(0))], [1e200, 0.0],
     "division by zero"),
    # a constant no float can hold raises where it is evaluated, not before
    ([Div(Const(1), Var(0)), Const(10 ** 400)], [0.0, 0.0], "division by zero"),
    ([Pow(Var(0), -1), Const(10 ** 400)], [0.0, 0.0],
     "zero raised to a negative power"),
])
def test_errors_come_in_evaluation_order(outputs, point, message):
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        list(_at(compile_tape(outputs), point))
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        _oracle_values(outputs, point)


def test_an_infinite_intermediate_with_a_finite_root_is_not_an_error():
    x = Var(0)
    (value,) = _at(compile_tape([Div(Const(1), Mul(x, x))]), [1e200])
    assert value == 0j == oracle.eval_float(Div(Const(1), Mul(x, x)), [1e200])


def test_constants_are_interned_by_exact_value():
    # one float, two exact values: two slots (plus nothing else)
    tape = compile_tape([Const(2 ** 53), Const(2 ** 53 + 1), Const(2 ** 53)])
    assert [len(code) for code, _ in tape.segments] == [1, 1, 0]
    assert [root for _, root in tape.segments] == [0, 1, 0]


def test_structurally_equal_subtrees_share_one_slot():
    def radius():
        return Sqrt(Add(Mul(Var(0), Var(0)), Mul(Var(1), Var(1))))
    tape = compile_tape([Div(radius(), Var(1)), Div(Var(0), radius())])
    # y, y != 0, x, x*x, y*y, sum, sqrt, quotient; then sqrt != 0, quotient
    assert [len(code) for code, _ in tape.segments] == [8, 2]


@pytest.mark.parametrize("catalog_map", [False, True], ids=["map", "lift"])
def test_stereographic_values_match_at_sampled_points(stereographic, catalog_map):
    phi = numeric_complete_lift(stereographic) if catalog_map else stereographic
    outputs = [*phi.guards, *phi.components,
               *(derivative(c, j) for c in phi.components
                 for j in range(phi.domain_dim))]
    tape = compile_tape(outputs)
    for point in sample_points(phi, 100, seed=7):
        assert repr(list(_at(tape, point))) == repr(_oracle_values(outputs, point))


# ---------------------------------------------------------------------------
# Differentiation and rendering
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(dags(), st.integers(0, NUM_VARS - 1))
def test_derivative_matches_recursive_derivative(pool, index):
    root = pool[-1]
    derived = derivative(root, index)
    expected = oracle.derivative(root, index)
    assert oracle.same_tree(derived, expected)
    assert render_expr(derived, NAMES) == oracle.render_expr(expected, NAMES)


@settings(max_examples=200, deadline=None)
@given(dags())
def test_render_matches_recursive_render(pool):
    for node in pool:
        assert render_expr(node, NAMES) == oracle.render_expr(node, NAMES)


def test_deep_sum_differentiates_and_renders_without_recursion():
    total = Var(0)
    for _ in range(20000):
        total = Add(total, Mul(Var(0), Var(1)))
    assert render_expr(derivative(total, 1), NAMES).count("x1") == 20000
    (value,) = _at(compile_tape([total]), [2.0, 3.0])
    assert value == 2.0 + 20000 * 6.0


# ---------------------------------------------------------------------------
# numeric_check reports
# ---------------------------------------------------------------------------

def _as_smooth(real_map) -> SmoothMap:
    return SmoothMap(real_map.domain_dim,
                     tuple(oracle.poly_to_expr(c) for c in real_map.components))


def _report_maps():
    stereographic = parse_map(lookup("ex1.4.iv-hyperbolic-stereographic").definition)
    linear = _as_smooth(parse_map(
        "map f: R^2 -> R^2 { f1 = x1 + x2; f2 = x1 - x2; }"))
    return {
        "stereographic": stereographic,
        "stereographic-lift": numeric_complete_lift(stereographic),
        "laplacian-fails": parse_map(
            "map f: R^2 -> R^2 { f1 = x1^2; f2 = x2; guard x1 + 10; }"),
        "projection": _as_smooth(parse_map(
            "map p: R^4 -> R^2 { p1 = x1; p2 = x2; }")),
        "zw": _as_smooth(real_identification(
            parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }"))),
        "linear-lift": numeric_complete_lift(linear),
        "quotient": parse_map("map f: R^3 -> R^2 { f1 = sqrt(x1^2 + x2^2 + 1)"
                              "/(x3 + 5); f2 = x1*x2/(x1^2 + 1); guard x3 + 5; }"),
    }


@pytest.mark.parametrize("name", list(_report_maps()))
def test_numeric_check_report_matches_the_recursive_check(name):
    phi = _report_maps()[name]
    for seed, tolerance in [(7, 1e-8), (3, 1e-12)]:
        points = sample_points(phi, 60, seed)
        report = numeric_check(phi, points, tolerance)
        expected = oracle.numeric_check(phi, points, tolerance)
        for field in report.__dataclass_fields__:
            assert repr(getattr(report, field)) == repr(getattr(expected, field))


@pytest.mark.parametrize("points, message", [
    # the first point fails its guard in the cross-check
    ([(0.0, 1.0)], "guard x1 violated at sample point"),
    # a later point fails its guard before any derivative, which would divide
    # by zero there, is evaluated
    ([(1.0, 1.0), (0.0, 1.0)], "guard x1 violated at sample point"),
    ([(1.0, 1.0), (-0.0, 1.0)], "guard x1 violated at sample point"),
    # the guard holds, the second derivative divides by zero
    ([(1.0, 1.0), (1.0, 0.0)], "division by zero"),
    # at the first point x1^2 is subnormal: the first derivative -x2/x1^2
    # overflows in the cross-check, while the second derivative, earlier on
    # the check's tape, divides by x1^4, which is 0
    ([(1e-160, 1.0)], "evaluation produced a non-finite value"),
    # the second point's second derivative divides by zero before the third
    # point's guard is checked
    ([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)], "division by zero"),
])
def test_numeric_check_errors_match_the_recursive_check(points, message):
    phi = parse_map("map f: R^2 -> R^1 { f1 = x2/x1 + 1/x2; guard x1; }")
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        numeric_check(phi, points, 1e-8)
    with pytest.raises(EvalDomainError, match=f"^{message}$"):
        oracle.numeric_check(phi, points, 1e-8)


def test_a_cross_check_mismatch_comes_before_a_later_difference_fails():
    # at (1e-7, 1e-6) the difference along x1 steps over the pole of x2/x1
    # and disagrees with -x2/x1^2; the one along x2 would divide by zero
    phi = parse_map("map f: R^2 -> R^1 { f1 = x2/x1 + 1/x2; guard x1; }")
    message = r"^d\(component 1\)/dx1: symbolic -1e\+08\+0j vs finite difference"
    for check in (numeric_check, oracle.numeric_check):
        with pytest.raises(InternalConsistencyError, match=message):
            check(phi, [(1e-7, 1e-6)], 1e-8)


def test_numeric_check_holds_only_live_columns(stereographic):
    # On the lift (592 slots, 25 outputs) at most 64 columns of 100 values
    # are live at once.  The traced peak of the check was 350 KiB when the
    # tape ran one point at a time and is 544 KiB over columns; keeping
    # every column would add about 2.3 MiB.
    lift = numeric_complete_lift(stereographic)
    points = sample_points(lift, 100, seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        numeric_check(lift, points, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 700 * 1024


def _unshared_check_tape(phi) -> list:
    """The segments of numeric_check's tape with a fresh derivative memo
    per call, as the check built its derivatives before they shared one."""
    m = phi.domain_dim
    first = [derivative(c, j) for c in phi.components for j in range(m)]
    second = [derivative(first[k * m + j], j)
              for k in range(phi.codomain_dim) for j in range(m)]
    return compile_tape([*phi.guards, *second, *first]).segments


def _check_tape(phi) -> list:
    first, second = _derivatives(phi)
    return compile_tape([*phi.guards, *second, *first]).segments


@pytest.mark.parametrize("lifted", [False, True], ids=["map", "lift"])
def test_shared_derivative_memos_leave_the_tape_as_it_was(stereographic,
                                                          lifted):
    phi = numeric_complete_lift(stereographic) if lifted else stereographic
    assert _check_tape(phi) == _unshared_check_tape(phi)


@st.composite
def smooth_map_sources(draw):
    """A real map file from the grammar of test_cli_fuzz.py, with sqrt and
    division and no mistakes."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    names = [f"x{j}" for j in range(1, m + 1)]
    lines = [f"map f: R^{m} -> R^{n} {{"]
    lines += [f"  f{k} = {draw(expressions(names, ['sqrt']))[0]};"
              for k in range(1, n + 1)]
    if draw(st.booleans()):
        lines.append(f"  guard {draw(expressions(names, ['sqrt']))[0]};")
    return "\n".join(lines + ["}"])


@settings(max_examples=40, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(smooth_map_sources())
def test_shared_derivative_memos_leave_fuzzed_tapes_as_they_were(source):
    try:
        phi = parse_map(source)
    except ValueError:
        assume(False)
    if not isinstance(phi, SmoothMap):
        phi = _as_smooth(phi)
    assert _check_tape(phi) == _unshared_check_tape(phi)


def _unshared_lift(phi) -> SmoothMap:
    """numeric_complete_lift as it was before its components shared one
    derivative memo per variable: a fresh memo per derivative."""
    m = phi.domain_dim
    components = []
    for comp in phi.components:
        total = None
        for j in range(m):
            term = mul(derivative(comp, j), Var(m + j))
            total = term if total is None else add(total, term)
        components.append(total)
    names = phi.names() + tuple(f"y{j + 1}" for j in range(m))
    return SmoothMap(2 * m, tuple(components), phi.guards, names)


def _assert_lift_as_it_was(phi) -> None:
    lift, unshared = numeric_complete_lift(phi), _unshared_lift(phi)
    assert lift.names() == unshared.names() and lift.guards == unshared.guards
    assert compile_tape(lift.components).segments == \
        compile_tape(unshared.components).segments
    assert _check_tape(lift) == _check_tape(unshared)
    names = lift.names()
    assert [render_expr(c, names) for c in lift.components] == \
        [render_expr(c, names) for c in unshared.components]


def _size_of_dag(roots) -> int:
    """The distinct node objects reachable from ``roots``."""
    seen = set()
    pending = list(roots)
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            pending.extend(_children(node))
    return len(seen)


def test_the_lift_shares_derivatives_and_keeps_its_tape(stereographic):
    _assert_lift_as_it_was(stereographic)
    # both components differentiate the shared denominator once per variable
    lift, unshared = numeric_complete_lift(stereographic), \
        _unshared_lift(stereographic)
    assert _size_of_dag(lift.components) < _size_of_dag(unshared.components)


@settings(max_examples=40, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(smooth_map_sources())
def test_the_lift_keeps_fuzzed_tapes_as_they_were(source):
    try:
        phi = parse_map(source)
    except ValueError:
        assume(False)
    if not isinstance(phi, SmoothMap):
        phi = _as_smooth(phi)
    _assert_lift_as_it_was(phi)


@pytest.mark.parametrize("json", [False, True], ids=["text", "json"])
def test_lift_renders_the_same_bytes_with_shared_memos(tmp_path, monkeypatch,
                                                       json):
    path = tmp_path / "stereographic.map"
    path.write_text(lookup("ex1.4.iv-hyperbolic-stereographic").definition)
    argv = (["--json"] if json else []) + ["lift", "--real", str(path)]
    shared = io.StringIO()
    assert cli.cli_main(argv, shared) == 0
    monkeypatch.setattr(cli, "numeric_complete_lift", _unshared_lift)
    unshared = io.StringIO()
    assert cli.cli_main(argv, unshared) == 0
    assert shared.getvalue().encode() == unshared.getvalue().encode()


def test_sampled_points_come_from_one_guard_tape(stereographic):
    # the same draws, kept where the recursive evaluation of every guard
    # succeeds and reaches the margin; the second map's guards reject about
    # three draws in four, one of them by a square root of a negative
    guarded = parse_map("map f: R^3 -> R^1 { f1 = x1/x2; guard x2; "
                        "guard sqrt(x1) - x3; }")
    for phi in (stereographic, guarded):
        rng = random.Random(5)
        expected = []
        while len(expected) < 200:
            point = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            try:
                values = [oracle.eval_float(g, point).real for g in phi.guards]
            except EvalDomainError:
                continue
            if all(value >= GUARD_MARGIN for value in values):
                expected.append(point)
        assert sample_points(phi, 200, 5) == expected
