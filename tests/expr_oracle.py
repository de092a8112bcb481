"""Test oracle for the float pipeline: expression evaluation, differentiation,
rendering and ``numeric_check`` as they were when each walked the trees by
recursion, one tree at a time, before evaluation moved to one compiled tape.

The bodies are the old functions' bodies, so the differential tests in
``test_tape.py`` compare the tape, the iterative derivative and the
iterative renderer with the code they replaced.  Two helpers serve the
tests as well: ``same_tree``, the structural comparison that the nodes,
which compare by identity, do not offer, and ``poly_to_expr``, which
writes a polynomial as a tree.

``lower_to_poly`` and ``accumulate_term`` are the exact lowering as it was
when it summed each summand's terms into one dict by hand, one term at a
time with its sign, before ``poly.accumulate_terms`` applied the sum rule
for every store.  The differential tests in ``test_sum_rule.py`` compare the
lowering and the reader of canonical text with them.  ``power_bits`` is
``expr._power_bits`` as it was when it took the lcm of the two
denominators itself, before ``exact.integer_parts``.  These functions are
not part of the package.

The oracle evaluates in Python ``complex``, as the package's tape did
before it became real, and differentiates ``conj`` nodes; ``to_complex``
and ``conj_node`` are the helpers of the package that this needs, kept
here since the package dropped them.  On a real tree whose powers have
|exponent| <= 100, every value it computes is real (CPython raises such
powers by repeated squaring), until an infinity meets a 0 imaginary part
and makes it nan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import fields
from fractions import Fraction

from morphlift.exact import (
    conjugate as conj_scalar,
    imag_part,
    real_part,
    render_scalar,
)
from morphlift.expr import (
    Add,
    Conj,
    Const,
    Div,
    EvalDomainError,
    Expr,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
    Var,
    ONE,
    ZERO,
    _check_ring_shape,
    _lower_summand,
    _monomial,
    add,
    div,
    mul,
    neg,
    power,
    sub,
)
from morphlift.numeric import InternalConsistencyError, ResidualReport
from morphlift.poly import MultiPoly


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def same_tree(a, b) -> bool:
    """Whether two trees are equal node by node: the same node kinds, equal
    payloads (constant values, variable indices, exponents) and equal
    children.  Pairs of nodes wait on a list, so depth costs no recursion."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        for field in fields(a):
            left, right = getattr(a, field.name), getattr(b, field.name)
            if isinstance(left, Expr):
                pending.append((left, right))
            elif left != right:
                return False
    return True


def poly_to_expr(p):
    """A tree that lowers back to the polynomial ``p``: its terms by
    descending total degree, each a constant times powers of variables."""
    total = ZERO
    for exponents in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        term = Const(p.terms[exponents])
        for j, e in enumerate(exponents):
            if e:
                term = mul(term, power(Var(j), e))
        total = add(total, term)
    return total


def to_complex(value) -> complex:
    return complex(float(real_part(value)), float(imag_part(value)))


def conj_node(arg):
    if isinstance(arg, Const):
        return Const(conj_scalar(arg.value))
    return Conj(arg)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_float(node, point) -> complex:
    value = _eval(node, point)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvalDomainError("evaluation produced a non-finite value")
    return value


def _eval(node, point) -> complex:
    if isinstance(node, Const):
        return to_complex(node.value)
    if isinstance(node, Var):
        return complex(point[node.index])
    if isinstance(node, Add):
        return _eval(node.left, point) + _eval(node.right, point)
    if isinstance(node, Sub):
        return _eval(node.left, point) - _eval(node.right, point)
    if isinstance(node, Mul):
        return _eval(node.left, point) * _eval(node.right, point)
    if isinstance(node, Div):
        denominator = _eval(node.right, point)
        if denominator == 0:
            raise EvalDomainError("division by zero")
        return _eval(node.left, point) / denominator
    if isinstance(node, Pow):
        base = _eval(node.base, point)
        if node.exponent < 0 and base == 0:
            raise EvalDomainError("zero raised to a negative power")
        return base ** node.exponent
    if isinstance(node, Sqrt):
        value = _eval(node.arg, point)
        if value.imag == 0 and value.real < 0:
            raise EvalDomainError("square root of a negative real")
        return cmath.sqrt(value)
    if isinstance(node, Conj):
        return _eval(node.arg, point).conjugate()
    if isinstance(node, Neg):
        return -_eval(node.arg, point)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def derivative(node, index: int):
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.index == index else ZERO
    if isinstance(node, Add):
        return add(derivative(node.left, index), derivative(node.right, index))
    if isinstance(node, Sub):
        return sub(derivative(node.left, index), derivative(node.right, index))
    if isinstance(node, Neg):
        return neg(derivative(node.arg, index))
    if isinstance(node, Mul):
        return add(mul(derivative(node.left, index), node.right),
                   mul(node.left, derivative(node.right, index)))
    if isinstance(node, Div):
        du = derivative(node.left, index)
        dv = derivative(node.right, index)
        numerator = sub(mul(node.right, du), mul(node.left, dv))
        return div(numerator, power(node.right, 2))
    if isinstance(node, Pow):
        inner = derivative(node.base, index)
        return mul(mul(Const(node.exponent), power(node.base, node.exponent - 1)),
                   inner)
    if isinstance(node, Sqrt):
        inner = derivative(node.arg, index)
        return div(inner, mul(Const(2), Sqrt(node.arg)))
    if isinstance(node, Conj):
        return conj_node(derivative(node.arg, index))
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def render_expr(node, names) -> str:
    text, _ = _render(node, names)
    return text


def _render_at(node, names, minimum: int) -> str:
    text, prec = _render(node, names)
    return f"({text})" if prec < minimum else text


def _render(node, names) -> tuple[str, int]:
    if isinstance(node, Const):
        text = render_scalar(node.value)
        if imag_part(node.value) != 0 or real_part(node.value) < 0 \
                or isinstance(real_part(node.value), Fraction):
            return text, _PREC_ADD  # forces parentheses in tighter contexts
        return text, _PREC_ATOM
    if isinstance(node, Var):
        return names[node.index], _PREC_ATOM
    if isinstance(node, Add):
        left, _ = _render(node.left, names)
        right = _render_at(node.right, names, _PREC_MUL)
        return f"{left} + {right}", _PREC_ADD
    if isinstance(node, Sub):
        left, _ = _render(node.left, names)
        right = _render_at(node.right, names, _PREC_MUL)
        return f"{left} - {right}", _PREC_ADD
    if isinstance(node, Mul):
        left = _render_at(node.left, names, _PREC_MUL)
        right = _render_at(node.right, names, _PREC_MUL)
        return f"{left}*{right}", _PREC_MUL
    if isinstance(node, Div):
        left = _render_at(node.left, names, _PREC_MUL)
        right = _render_at(node.right, names, _PREC_UNARY)
        return f"{left}/{right}", _PREC_MUL
    if isinstance(node, Neg):
        inner = _render_at(node.arg, names, _PREC_UNARY)
        return f"-{inner}", _PREC_UNARY
    if isinstance(node, Pow):
        base = _render_at(node.base, names, _PREC_ATOM)
        return f"{base}^{node.exponent}", _PREC_POW
    if isinstance(node, Sqrt):
        inner, _ = _render(node.arg, names)
        return f"sqrt({inner})", _PREC_ATOM
    if isinstance(node, Conj):
        inner, _ = _render(node.arg, names)
        return f"conj({inner})", _PREC_ATOM
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Sampled residuals
# ---------------------------------------------------------------------------

def check_guards(phi, point, margin: float = 0.0) -> None:
    for g in phi.guards:
        value = eval_float(g, point)
        if value.real <= margin:
            raise EvalDomainError(
                f"guard {render_expr(g, phi.names())} violated at sample point")


def _finite_difference(comp, point, j, step=1e-6):
    forward = list(point)
    backward = list(point)
    forward[j] += step
    backward[j] -= step
    return (eval_float(comp, forward) - eval_float(comp, backward)) / (2 * step)


def numeric_check(phi, points, tolerance: float) -> ResidualReport:
    m = phi.domain_dim
    n = phi.codomain_dim
    first = [[derivative(c, j) for j in range(m)] for c in phi.components]
    second = [[derivative(first[k][j], j) for j in range(m)]
              for k in range(n)]

    points = [tuple(p) for p in points]
    if points:
        # cross-check every symbolic first derivative at the first point
        p0 = points[0]
        check_guards(phi, p0)
        for k in range(n):
            for j in range(m):
                symbolic = eval_float(first[k][j], p0)
                numeric = _finite_difference(phi.components[k], p0, j)
                scale = max(1.0, abs(symbolic))
                if abs(symbolic - numeric) > 1e-4 * scale:
                    raise InternalConsistencyError(
                        f"d(component {k + 1})/dx{j + 1}: symbolic "
                        f"{symbolic:.6g} vs finite difference {numeric:.6g}")

    laplacian_max = [0.0] * n
    conformality_max = 0.0
    witness = None
    for point in points:
        check_guards(phi, point)
        for k in range(n):
            residual = abs(sum(eval_float(second[k][j], point).real
                               for j in range(m)))
            if residual > laplacian_max[k]:
                laplacian_max[k] = residual
            if residual > tolerance and witness is None:
                witness = point
        jac = [[eval_float(first[k][j], point).real for j in range(m)]
               for k in range(n)]
        g = [[sum(jac[k][i] * jac[l][i] for i in range(m)) for l in range(n)]
             for k in range(n)]
        dilation = sum(g[k][k] for k in range(n)) / n
        for k in range(n):
            for l in range(n):
                target = dilation if k == l else 0.0
                residual = abs(g[k][l] - target)
                if residual > conformality_max:
                    conformality_max = residual
                if residual > tolerance and witness is None:
                    witness = point
    verdict = witness is None
    return ResidualReport(tuple(points), tuple(laplacian_max),
                          conformality_max, tolerance, verdict, witness)


# ---------------------------------------------------------------------------
# Exact lowering
# ---------------------------------------------------------------------------

def lower_to_poly(node, num_vars: int, num_complex: int = 0) -> MultiPoly:
    _check_ring_shape(num_vars, num_complex)
    summands = []   # (node, sign), right to left
    sign = 1
    while True:
        kind = type(node)
        if kind is Add:
            summands.append((node.right, sign))
        elif kind is Sub:
            summands.append((node.right, -sign))
        elif kind is Neg:
            sign = -sign
            node = node.arg
            continue
        else:
            summands.append((node, sign))
            break
        node = node.left

    terms: dict = {}
    for node, sign in reversed(summands):
        while type(node) is Neg:
            node, sign = node.arg, -sign
        term = _monomial(node, num_vars)
        if term is None:
            items = _lower_summand(node, num_vars, num_complex).terms.items()
        else:
            items = (term,)
        for exponents, coeff in items:
            accumulate_term(terms, exponents, coeff, sign)
    return MultiPoly._trusted(num_vars, terms, num_complex)


def accumulate_term(terms: dict, exponents: tuple, coeff, sign: int) -> None:
    """Add ``coeff`` to ``terms[exponents]``, or subtract it when ``sign`` is
    negative: a term that cancels is dropped, and if it comes back it goes
    last.  An absent term takes ``coeff`` or ``-coeff`` as it is."""
    value = terms.get(exponents)
    if value is None:
        if coeff:
            terms[exponents] = coeff if sign > 0 else -coeff
        return
    value = value + coeff if sign > 0 else value - coeff
    if value:
        terms[exponents] = value
    else:
        terms.pop(exponents, None)


def power_bits(value, exponent: int) -> int:
    """About the bits of the numerator or the denominator of value ** exponent,
    whichever is larger, rounded down."""
    re, im = Fraction(real_part(value)), Fraction(imag_part(value))
    d = re.denominator * im.denominator // math.gcd(re.denominator,
                                                    im.denominator)
    norm = (re * d) ** 2 + (im * d) ** 2
    return exponent * max(norm.numerator.bit_length() - 1,
                          2 * d.bit_length() - 2) // 2
