"""Closed-form expression trees for non-polynomial maps.

Carries the maps the polynomial representation cannot (division, sqrt), with
symbolic differentiation and IEEE-double evaluation.  Polynomial trees lower
exactly to :class:`~morphlift.poly.MultiPoly`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact import (
    DimensionMismatch,
    GaussianRational,
    Scalar,
    conjugate as conj_scalar,
    imag_part,
    make_scalar,
    real_part,
    render_scalar,
    to_complex,
)
from .poly import MultiPoly, _check_ring_shape


class NotPolynomial(ValueError):
    """Raised by lowering when a tree contains a non-polynomial node."""

    def __init__(self, node: "Expr"):
        self.node = node
        super().__init__(f"not a polynomial: {describe(node)} node")


class EvalDomainError(ArithmeticError):
    """Square root of a negative real, division by zero, or non-finite value."""


class Expr:
    """Base class; construction goes through the dataclass nodes below."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __pow__(self, exponent: int):
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return Const(value)
    raise TypeError(f"cannot treat {value!r} as an expression")


@dataclass(frozen=True, eq=True)
class Const(Expr):
    value: Scalar

    def __post_init__(self):
        if type(self.value) is not int:     # a plain int is already canonical
            object.__setattr__(self, "value", make_scalar(real_part(self.value),
                                                          imag_part(self.value)))


@dataclass(frozen=True, eq=True)
class Var(Expr):
    index: int


@dataclass(frozen=True, eq=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class Conj(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


def describe(node: Expr) -> str:
    return type(node).__name__.lower()


ZERO = Const(0)
ONE = Const(1)


def _const_value(node: Expr):
    return node.value if isinstance(node, Const) else None


# Smart constructors: constant folding and neutral elements only; derivatives
# stay otherwise unsimplified so rendering is predictable.

def add(left: Expr, right: Expr) -> Expr:
    a, b = _const_value(left), _const_value(right)
    if a is not None and b is not None:
        return Const(a + b)
    if a == 0:
        return right
    if b == 0:
        return left
    return Add(left, right)


def sub(left: Expr, right: Expr) -> Expr:
    a, b = _const_value(left), _const_value(right)
    if a is not None and b is not None:
        return Const(a - b)
    if b == 0:
        return left
    if a == 0:
        return neg(right)
    return Sub(left, right)


def mul(left: Expr, right: Expr) -> Expr:
    a, b = _const_value(left), _const_value(right)
    if a is not None and b is not None:
        return Const(a * b)
    if a == 0 or b == 0:
        return ZERO
    if a == 1:
        return right
    if b == 1:
        return left
    return Mul(left, right)


def div(left: Expr, right: Expr) -> Expr:
    a, b = _const_value(left), _const_value(right)
    if b is not None and b != 0 and a is not None:
        if isinstance(a, int) and isinstance(b, int):
            return Const(Fraction(a, b))
        return Const(a / b)
    if a == 0 and (b is None or b != 0):
        return ZERO
    if b == 1:
        return left
    return Div(left, right)


def neg(arg: Expr) -> Expr:
    value = _const_value(arg)
    if value is not None:
        return Const(-value)
    return Neg(arg)


def power(base: Expr, exponent: int) -> Expr:
    value = _const_value(base)
    if value is not None and exponent >= 0:
        return Const(value ** exponent)
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    return Pow(base, exponent)


def conj_node(arg: Expr) -> Expr:
    value = _const_value(arg)
    if value is not None:
        return Const(conj_scalar(value))
    return Conj(arg)


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def derivative(node: Expr, index: int) -> Expr:
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
# Floating-point evaluation
# ---------------------------------------------------------------------------

def eval_float(node: Expr, point: Sequence[Union[float, complex]]) -> complex:
    value = _eval(node, point)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvalDomainError("evaluation produced a non-finite value")
    return value


def _eval(node: Expr, point) -> complex:
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
# Exact lowering to polynomials
# ---------------------------------------------------------------------------

def lower_to_poly(node: Expr, num_vars: int, num_complex: int = 0) -> MultiPoly:
    """Lower a polynomial tree to a MultiPoly in the stated ring.

    In complex rings Var(j) is the holomorphic variable z_{j+1} (j < k) or the
    formal conjugate zb (k <= j < 2k); ``conj`` maps subtrees through the ring
    involution.  Raises :class:`NotPolynomial` at the first offending node,
    visiting the tree left to right.

    The parser builds a sum of n terms as a left-leaning spine of ``Add``,
    ``Sub`` and ``Neg`` nodes n deep.  That spine is walked with a list and a
    sign, not by recursion, and every summand goes into one term dict, so a
    sum lowers in time linear in its size.  A summand that is a product of
    constants, variables and natural powers of variables becomes its
    (exponents, coefficient) pair directly; any other summand goes through
    the ring operations.  The result, and the order of its terms, is that of
    adding and subtracting the summands' polynomials one by one.
    """
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
    get = terms.get
    for node, sign in reversed(summands):
        while type(node) is Neg:
            node, sign = node.arg, -sign
        term = _monomial(node, num_vars)
        if term is None:
            items = _lower_summand(node, num_vars, num_complex).terms.items()
        else:
            items = (term,)
        for exponents, coeff in items:
            value = get(exponents, 0) + coeff if sign > 0 else get(exponents, 0) - coeff
            if value:
                terms[exponents] = value
            else:
                # as when the summands are added one by one: a term that
                # cancels is dropped, and if it comes back it goes last
                terms.pop(exponents, None)
    return MultiPoly._trusted(num_vars, terms, num_complex)


def _monomial(node: Expr, num_vars: int):
    """(exponents, coefficient) of a product of Const, Var and Pow(Var, e >= 0)
    factors, or None for any other tree."""
    exponents = [0] * num_vars
    coeff = 1
    factors = [node]
    while factors:
        node = factors.pop()
        kind = type(node)
        if kind is Mul:
            factors.append(node.right)
            factors.append(node.left)
            continue
        if kind is Const:
            coeff = coeff * node.value
            continue
        if kind is Var:
            index, e = node.index, 1
        elif (kind is Pow and type(node.base) is Var
              and type(node.exponent) is int and node.exponent >= 0):
            index, e = node.base.index, node.exponent
        else:
            return None
        # factors are visited left to right, so this is the first error the
        # ring operations would meet as well
        if not 0 <= index < num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        exponents[index] += e
    return tuple(exponents), coeff


def _lower_summand(node: Expr, num_vars: int, num_complex: int) -> MultiPoly:
    """A summand that is not a monomial, through the ring operations."""
    if isinstance(node, (Add, Sub)):
        return lower_to_poly(node, num_vars, num_complex)
    if isinstance(node, Mul):
        return (lower_to_poly(node.left, num_vars, num_complex)
                * lower_to_poly(node.right, num_vars, num_complex))
    if isinstance(node, Pow):
        if node.exponent < 0:
            raise NotPolynomial(node)
        return lower_to_poly(node.base, num_vars, num_complex) ** node.exponent
    if isinstance(node, Conj):
        if num_complex == 0:
            raise NotPolynomial(node)
        return lower_to_poly(node.arg, num_vars, num_complex).conjugate_poly()
    raise NotPolynomial(node)


def is_polynomial(node: Expr, allow_conj: bool) -> bool:
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, (Const, Var)):
            continue
        if isinstance(node, (Add, Sub, Mul)):
            pending.append(node.left)
            pending.append(node.right)
        elif isinstance(node, Neg):
            pending.append(node.arg)
        elif isinstance(node, Pow) and node.exponent >= 0:
            pending.append(node.base)
        elif isinstance(node, Conj) and allow_conj:
            pending.append(node.arg)
        else:
            return False
    return True


def poly_to_expr(p: MultiPoly) -> Expr:
    """Inverse of lowering, used to push exact maps through the float pipeline."""
    total: Expr = ZERO
    for exponents in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        term: Expr = Const(p.terms[exponents])
        for j, e in enumerate(exponents):
            if e:
                term = mul(term, power(Var(j), e))
        total = add(total, term)
    return total


# ---------------------------------------------------------------------------
# Rendering (parses back through the map grammar)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def render_expr(node: Expr, names: Sequence[str]) -> str:
    text, _ = _render(node, names)
    return text


def _render_at(node: Expr, names, minimum: int) -> str:
    text, prec = _render(node, names)
    return f"({text})" if prec < minimum else text


def _render(node: Expr, names) -> tuple[str, int]:
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
# Smooth maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothMap:
    """A map given by closed-form real expressions with domain guards.

    Each guard expression must be strictly positive at evaluation points;
    guards encode the excluded singular locus of the map.
    """

    domain_dim: int
    components: tuple
    guards: tuple = ()
    var_names: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "guards", tuple(self.guards))
        if self.var_names is not None:
            object.__setattr__(self, "var_names", tuple(self.var_names))

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    def names(self) -> tuple:
        if self.var_names is not None:
            return self.var_names
        return tuple(f"x{j + 1}" for j in range(self.domain_dim))

    def guard_values(self, point) -> list[float]:
        return [eval_float(g, point).real for g in self.guards]

    def check_guards(self, point, margin: float = 0.0) -> None:
        for g in self.guards:
            value = eval_float(g, point)
            if value.real <= margin:
                raise EvalDomainError(
                    f"guard {render_expr(g, self.names())} violated at sample point")

    def __call__(self, point) -> list[complex]:
        self.check_guards(point)
        return [eval_float(c, point) for c in self.components]
