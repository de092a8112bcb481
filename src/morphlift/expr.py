"""Closed-form expression trees for non-polynomial maps.

Carries the maps the polynomial representation cannot (division, sqrt), with
symbolic differentiation and IEEE-double evaluation.  Polynomial trees lower
exactly to :class:`~morphlift.poly.MultiPoly`.

Floats come from one evaluator.  :func:`compile_tape` interns the nodes of
the trees a caller needs, so structurally equal subtrees share one slot, and
lists the slots in the order a recursive evaluator would visit them;
:meth:`Tape.run` evaluates a sequence of points at once: each slot holds a
column of values, one per point, filled by one ``map`` per instruction, and
each output's column is yielded as soon as it is done.  A column that is
no output's is dropped after its last read.  :func:`eval_float` is a tape
of one output run at one point.  Differentiation, evaluation and rendering
walk the trees with explicit stacks, so a sum thousands of terms deep needs
no recursion.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Iterator, Sequence, Union

from .exact import (
    DimensionMismatch,
    IntegerTooLong,
    Scalar,
    conjugate as conj_scalar,
    imag_part,
    make_scalar,
    real_part,
    render_scalar,
    to_complex,
)
from .poly import MultiPoly, _check_ring_shape, default_names


class NotPolynomial(ValueError):
    """Raised by lowering when a tree contains a non-polynomial node."""

    def __init__(self, node: "Expr"):
        self.node = node
        super().__init__(f"not a polynomial: {describe(node)} node")


class EvalDomainError(ArithmeticError):
    """Square root of a negative real, division by zero, or non-finite value."""


# Bounds on a literal power, checked before a constant is raised to it or a
# polynomial is expanded to it: the coefficients' bits and the term count.
MAX_POWER_BITS = 1 << 16
MAX_POWER_TERMS = 2000


class PowerTooLarge(ValueError):
    """A literal power whose result would pass MAX_POWER_BITS or
    MAX_POWER_TERMS; ``node`` is the ``Pow`` node being expanded, or None
    for a constant that was to be folded."""

    def __init__(self, message: str, node: "Expr" = None):
        self.node = node
        super().__init__(message)


class Expr:
    """Base class; construction goes through the dataclass nodes below.

    Nodes compare and hash by identity and print as plain objects: a
    structural comparison would recurse once per level of a tree."""

    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: Scalar

    def __post_init__(self):
        if type(self.value) is not int:     # a plain int is already canonical
            object.__setattr__(self, "value", make_scalar(real_part(self.value),
                                                          imag_part(self.value)))


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=False, repr=False)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Conj(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr


_BINARY = (Add, Sub, Mul, Div)
_UNARY = (Sqrt, Conj, Neg)


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
        _check_power_bits(_power_bits(value, exponent))
        return Const(value ** exponent)
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    return Pow(base, exponent)


def _power_bits(value: Scalar, exponent: int) -> int:
    """About the bits of the numerator or the denominator of value ** exponent,
    whichever is larger, rounded down: exponent * log2 of the larger of
    |a + b*i| and d, where value = (a + b*i) / d.  Units cost none."""
    re, im = Fraction(real_part(value)), Fraction(imag_part(value))
    d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    norm = (re * d) ** 2 + (im * d) ** 2
    return exponent * max(norm.numerator.bit_length() - 1,
                          2 * d.bit_length() - 2) // 2


def _check_power_bits(bits: int, node: Expr = None) -> None:
    if bits > MAX_POWER_BITS:
        raise PowerTooLarge(f"power too large: its coefficients would take "
                            f"more than {MAX_POWER_BITS} bits", node)


def _check_power(node: Pow, base: MultiPoly) -> None:
    """Refuse to expand ``base ** node.exponent`` when the result would
    have more than MAX_POWER_TERMS terms, C(t + e - 1, t - 1) for t terms,
    or coefficients of more than MAX_POWER_BITS bits: the largest
    coefficient's power times t^e, which bounds the multinomials."""
    e = node.exponent
    t = len(base.terms)
    n, k = t + e - 1, min(t - 1, e)
    count = 1
    for i in range(1, k + 1):   # C(n - k + i, i) grows with i
        count = count * (n - k + i) // i
        if count > MAX_POWER_TERMS:
            raise PowerTooLarge(f"power too large: its expansion would have "
                                f"more than {MAX_POWER_TERMS} terms", node)
    _check_power_bits(max((_power_bits(c, e) for c in base.terms.values()),
                          default=0) + e * (t.bit_length() - 1), node)


def conj_node(arg: Expr) -> Expr:
    value = _const_value(arg)
    if value is not None:
        return Const(conj_scalar(value))
    return Conj(arg)


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def _children(node: Expr) -> tuple:
    kind = type(node)
    if kind in _BINARY:
        return (node.left, node.right)
    if kind is Pow:
        return (node.base,)
    if kind in _UNARY:
        return (node.arg,)
    if kind is Const or kind is Var:
        return ()
    raise TypeError(f"unknown node {node!r}")


def derivative(node: Expr, index: int) -> Expr:
    """d(node)/dx_index, built with the smart constructors above.

    The tree is walked with an explicit stack, so a long sum needs no
    recursion, and a node object reached twice is differentiated once.
    """
    done: dict = {}     # id(inner node) -> its derivative; the tree keeps ids alive
    results: list = []  # derivatives of the finished operands, the left one first
    pending = [node]
    while pending:
        item = pending.pop()
        kind = type(item)
        if kind is tuple:       # (node,): its operands' derivatives are on top
            top = item[0]
            if type(top) in _BINARY:
                right = results.pop()
                d = _derive(top, [results.pop(), right], index)
            else:
                d = _derive(top, [results.pop()], index)
            done[id(top)] = d
            results.append(d)
        elif kind is Const:
            results.append(ZERO)
        elif kind is Var:
            results.append(ONE if item.index == index else ZERO)
        elif id(item) in done:
            results.append(done[id(item)])
        else:
            pending.append((item,))
            pending.extend(reversed(_children(item)))
    return results[0]


def _derive(node: Expr, d: list, index: int) -> Expr:
    """The derivative of an inner node given those of its operands, ``d``."""
    kind = type(node)
    if kind is Add:
        return add(d[0], d[1])
    if kind is Sub:
        return sub(d[0], d[1])
    if kind is Neg:
        return neg(d[0])
    if kind is Mul:
        return add(mul(d[0], node.right), mul(node.left, d[1]))
    if kind is Div:
        numerator = sub(mul(node.right, d[0]), mul(node.left, d[1]))
        return div(numerator, power(node.right, 2))
    if kind is Pow:
        return mul(mul(Const(node.exponent), power(node.base, node.exponent - 1)),
                   d[0])
    if kind is Sqrt:
        return div(d[0], mul(Const(2), Sqrt(node.arg)))
    return conj_node(d[0])      # Conj


# ---------------------------------------------------------------------------
# Floating-point evaluation on a tape
# ---------------------------------------------------------------------------

# Tape instructions are (op, a, b, dead) tuples; slot i holds instruction i's
# column, and ``dead`` lists the slots whose last read is instruction i.  The
# binary operations come first, so one comparison tells them apart.
(_ADD, _SUB, _MUL, _DIV, _POW, _SQRT, _CONJ, _NEG, _NONZERO, _VAR, _CONST,
 _CONVERT) = range(12)
_BINARY_OPS = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
_UNARY_OPS = {Sqrt: _SQRT, Conj: _CONJ, Neg: _NEG}
_BINARY_MAPS = (operator.add, operator.sub, operator.mul, operator.truediv)
_EXPAND, _EMIT, _CHECK = range(3)


class Tape:
    """Expression trees compiled to one list of slots, run by a flat loop.

    Built by :func:`compile_tape`.  ``segments`` holds, per output, the
    instructions that output adds to the tape and the slot of its root.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list):
        self.segments = segments

    def run(self, points: Sequence[Sequence[Union[float, complex]]]
            ) -> Iterator[list]:
        """Yield each output's column, its values at ``points`` in order, as
        soon as its slots are done; a caller that stops early evaluates
        nothing of the later outputs.  Each instruction fills its slot's
        column with one ``map`` over the columns it reads, and a column
        that is no output's is dropped after its last read.

        Raises :class:`EvalDomainError` at the first instruction that fails
        at some point, or at a root that is not finite at some point.  At
        one point that is where the recursive reading of the trees would
        raise; at several, a caller that needs the first error in point
        order runs the points one at a time."""
        count = len(points)
        columns: list = []
        push = columns.append
        for code, root in self.segments:
            for op, a, b, dead in code:
                if op <= _DIV:
                    push(list(map(_BINARY_MAPS[op], columns[a], columns[b])))
                elif op == _VAR:
                    push(list(map(complex, map(operator.itemgetter(a), points))))
                elif op == _CONST:
                    push([a] * count)
                elif op == _POW:
                    column = columns[a]
                    if b < 0 and 0 in column:
                        raise EvalDomainError("zero raised to a negative power")
                    push(list(map(pow, column, repeat(b))))
                elif op == _NONZERO:
                    if 0 in columns[a]:
                        raise EvalDomainError("division by zero")
                    push(None)
                elif op == _NEG:
                    push(list(map(operator.neg, columns[a])))
                elif op == _SQRT:
                    column = columns[a]
                    for value in column:
                        if value.imag == 0 and value.real < 0:
                            raise EvalDomainError("square root of a negative real")
                    push(list(map(cmath.sqrt, column)))
                elif op == _CONJ:
                    push(list(map(complex.conjugate, columns[a])))
                else:   # _CONVERT: a constant no float can hold raises here
                    push([to_complex(a)] * count)
                for slot in dead:
                    columns[slot] = None
            column = columns[root]
            if not all(map(cmath.isfinite, column)):
                raise EvalDomainError("evaluation produced a non-finite value")
            yield column


def compile_tape(outputs: Sequence[Expr]) -> Tape:
    """Compile the trees ``outputs`` to one :class:`Tape`.

    Nodes are interned by (kind, child slots, payload), hash-consing in the
    way of Filliatre & Conchon (2006), so structurally equal subtrees share a
    slot even when they are different objects; constants are keyed by their
    exact value.  The slots follow the order in which a recursive evaluator
    visits the trees: post-order, left before right, except that ``Div``
    evaluates its denominator, checks it is nonzero, then its numerator.  A
    slot already on the tape is not evaluated again, so each distinct node
    costs one step per point (the tape of Griewank & Walther, *Evaluating
    Derivatives*, 2008) and the walk needs no recursion.  Each slot's last
    read, by an instruction or as an output, is recorded, so that a run
    drops every column but the outputs' once nothing reads it again.
    """
    slots: dict = {}        # (op, a, b) with exact payloads -> slot
    slot_of: dict = {}      # id(node) -> slot; the outputs keep ids alive
    last: dict = {}         # slot -> the dead list of its last reader so far
    segments = []
    for root in outputs:
        code = []
        stack = [(root, _EXPAND)]
        while stack:
            node, action = stack.pop()
            if action == _EXPAND:
                if id(node) in slot_of:
                    continue
                stack.append((node, _EMIT))
                if type(node) is Div:
                    stack += [(node.left, _EXPAND), (node.right, _CHECK),
                              (node.right, _EXPAND)]
                else:
                    stack.extend((child, _EXPAND)
                                 for child in reversed(_children(node)))
                continue
            if action == _CHECK:
                key = (_NONZERO, slot_of[id(node)], None)
            else:
                key = _instruction(node, slot_of)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(slots)
                op, a, b = key
                dead: list = []
                if op <= _DIV:
                    last[a] = last[b] = dead
                elif op <= _NONZERO:
                    last[a] = dead
                elif op == _CONST:
                    try:
                        a = to_complex(a)
                    except OverflowError:
                        op = _CONVERT
                code.append((op, a, b, dead))
            if action == _EMIT:
                slot_of[id(node)] = slot
        root_slot = slot_of[id(root)]
        segments.append((code, root_slot))
        last[root_slot] = []    # yielded here: no earlier reader may drop it
    for slot, dead in last.items():
        dead.append(slot)
    return Tape(segments)


def _instruction(node: Expr, slot_of: dict) -> tuple:
    """The interning key of a node whose children have slots: (op, a, b)
    with exact payloads."""
    kind = type(node)
    if kind is Const:
        return (_CONST, node.value, None)
    if kind is Var:
        return (_VAR, node.index, None)
    if kind is Pow:
        return (_POW, slot_of[id(node.base)], node.exponent)
    if kind in _BINARY_OPS:
        return (_BINARY_OPS[kind], slot_of[id(node.left)], slot_of[id(node.right)])
    return (_UNARY_OPS[kind], slot_of[id(node.arg)], None)


def eval_float(node: Expr, point: Sequence[Union[float, complex]]) -> complex:
    (column,) = compile_tape((node,)).run((point,))
    return column[0]


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
    negative, as adding the summands' polynomials one by one would: a term
    that cancels is dropped, and if it comes back it goes last.  An absent
    term takes ``coeff`` or ``-coeff`` as it is, which is what adding it to
    0 gives."""
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
        base = lower_to_poly(node.base, num_vars, num_complex)
        _check_power(node, base)
        return base ** node.exponent
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


# ---------------------------------------------------------------------------
# Rendering (parses back through the map grammar)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def render_expr(node: Expr, names: Sequence[str]) -> str:
    try:
        text, _ = _render(node, names)
    except ValueError as error:
        raise IntegerTooLong() from error
    return text


def _render(root: Expr, names) -> tuple[str, int]:
    """(text, precedence) of a tree, without recursion: the nodes are listed
    in pre-order, then joined in the reverse order, each node popping its
    operands' texts (the left one first) off a stack."""
    order = []
    pending = [root]
    while pending:
        node = pending.pop()
        order.append(node)
        kind = type(node)
        if kind in _BINARY:
            pending.append(node.right)
            pending.append(node.left)
        elif kind is Pow:
            pending.append(node.base)
        elif kind in _UNARY:
            pending.append(node.arg)
        elif kind is not Const and kind is not Var:
            raise TypeError(f"unknown node {node!r}")
    done: list = []
    push, pop = done.append, done.pop
    for node in reversed(order):
        kind = type(node)
        if kind is Var:
            push((names[node.index], _PREC_ATOM))
            continue
        if kind is Const:
            value = node.value
            text = render_scalar(value)
            if imag_part(value) != 0 or real_part(value) < 0 \
                    or isinstance(real_part(value), Fraction):
                push((text, _PREC_ADD))     # parenthesized in tighter contexts
            else:
                push((text, _PREC_ATOM))
            continue
        left, left_prec = pop()
        if kind in _BINARY:
            right, right_prec = pop()
            if kind is Mul:
                if left_prec < _PREC_MUL:
                    left = f"({left})"
                if right_prec < _PREC_MUL:
                    right = f"({right})"
                push((f"{left}*{right}", _PREC_MUL))
            elif kind is Add:
                if right_prec < _PREC_MUL:
                    right = f"({right})"
                push((f"{left} + {right}", _PREC_ADD))
            elif kind is Sub:
                if right_prec < _PREC_MUL:
                    right = f"({right})"
                push((f"{left} - {right}", _PREC_ADD))
            else:
                if left_prec < _PREC_MUL:
                    left = f"({left})"
                if right_prec < _PREC_UNARY:
                    right = f"({right})"
                push((f"{left}/{right}", _PREC_MUL))
        elif kind is Pow:
            if left_prec < _PREC_ATOM:
                left = f"({left})"
            push((f"{left}^{node.exponent}", _PREC_POW))
        elif kind is Neg:
            if left_prec < _PREC_UNARY:
                left = f"({left})"
            push((f"-{left}", _PREC_UNARY))
        elif kind is Sqrt:
            push((f"sqrt({left})", _PREC_ATOM))
        else:
            push((f"conj({left})", _PREC_ATOM))
    return done[0]


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
        return default_names(self.domain_dim)

    def check_guard_values(self, values: Iterator[complex]) -> None:
        """Take one value per guard from ``values``, in order, and raise at
        the first that is not positive, before taking the next."""
        for g, value in zip(self.guards, values):
            if value.real <= 0:
                raise EvalDomainError(
                    f"guard {render_expr(g, self.names())} violated at sample point")
