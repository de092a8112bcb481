"""Closed-form expression trees for non-polynomial maps.

Carries the maps the polynomial representation cannot (division, sqrt), with
symbolic differentiation and IEEE-double evaluation.  Polynomial trees lower
exactly to :class:`~morphlift.poly.MultiPoly`.

Floats come from one real evaluator, as smooth maps are real.
:func:`compile_tape` interns the nodes of the trees a caller needs, so
structurally equal subtrees share one slot, and lists the slots in the order
a recursive evaluator would visit them; :meth:`Tape.run` evaluates a
sequence of points at once: each slot holds a column of floats, one per
point, filled by one ``map`` per instruction, and each output's column is
yielded as soon as it is done.  A column that is no output's is dropped
after its last read.  :func:`eval_float` is a tape of one output run at one
point.  Differentiation, evaluation and rendering walk the trees with
explicit stacks, so a sum thousands of terms deep needs no recursion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import (
    DimensionMismatch,
    GaussianRational,
    IntegerTooLong,
    Scalar,
    imag_part,
    integer_parts,
    make_scalar,
    real_part,
    render_scalar,
)
from .poly import MultiPoly, _check_ring_shape, accumulate_terms, default_names


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
    [a], [b], d = integer_parts([real_part(value)], [imag_part(value)])
    return exponent * max((a * a + b * b).bit_length() - 1,
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


def derivative(node: Expr, index: int, memo: dict | None = None) -> Expr:
    """d(node)/dx_index, built with the smart constructors above.

    The tree is walked with an explicit stack, so a long sum needs no
    recursion, and a node object reached twice is differentiated once.
    ``memo`` maps the id of each inner node already differentiated in x_index
    to its derivative.  A caller may pass one dict to several calls in the
    same variable, so that a node they share is differentiated once, as long
    as it keeps every tree it differentiates alive while it holds the dict:
    the keys are ids.  A ``Conj`` node raises ``TypeError``.
    """
    done: dict = {} if memo is None else memo   # id(inner node) -> derivative
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
    raise TypeError(f"cannot differentiate a {describe(node)} node")


# ---------------------------------------------------------------------------
# Floating-point evaluation on a tape
# ---------------------------------------------------------------------------

# Tape instructions are (op, a, b, dead) tuples; slot i holds instruction i's
# column, and ``dead`` lists the slots whose last read is instruction i.  The
# binary operations come first, so one comparison tells them apart.
(_ADD, _SUB, _MUL, _DIV, _POW, _SQRT, _NEG, _NONZERO, _VAR, _CONST,
 _CONVERT) = range(11)
_BINARY_OPS = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
_UNARY_OPS = {Sqrt: _SQRT, Neg: _NEG}
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

    def run(self, points: Sequence[Sequence[float]]) -> Iterator[list]:
        """Yield each output's column, its values at ``points`` in order, as
        soon as its slots are done; a caller that stops early evaluates
        nothing of the later outputs.  Each instruction fills its slot's
        column with one ``map`` over the columns it reads, and a column
        that is no output's is dropped after its last read.

        Raises :class:`EvalDomainError` at the first instruction that fails
        at some point (a power that overflows fails), or at a root that is
        not finite at some point.  At one point that is where the recursive
        reading of the trees would raise; at several, a caller that needs
        the first error in point order runs the points one at a time."""
        count = len(points)
        columns: list = []
        push = columns.append
        for code, root in self.segments:
            for op, a, b, dead in code:
                if op <= _DIV:
                    push(list(map(_BINARY_MAPS[op], columns[a], columns[b])))
                elif op == _VAR:
                    push(list(map(float, map(operator.itemgetter(a), points))))
                elif op == _CONST:
                    push([a] * count)
                elif op == _POW:
                    push(_power(columns[a], b))
                elif op == _NONZERO:
                    if 0 in columns[a]:
                        raise EvalDomainError("division by zero")
                    push(None)
                elif op == _NEG:
                    push(list(map(operator.neg, columns[a])))
                elif op == _SQRT:
                    column = columns[a]
                    for value in column:
                        if value < 0:
                            raise EvalDomainError("square root of a negative real")
                    push(list(map(math.sqrt, column)))
                else:   # _CONVERT: a constant no float can hold raises here
                    push([float(a)] * count)
                for slot in dead:
                    columns[slot] = None
            column = columns[root]
            if not all(map(math.isfinite, column)):
                raise EvalDomainError("evaluation produced a non-finite value")
            yield column


def _power(column: list, exponent: int) -> list:
    """``column`` to the power ``exponent``: the product, lowest first, of
    the squares x, x^2, x^4, ... that the bits of |exponent| select (so x^2
    rounds as x*x does), or 1 over it if ``exponent`` < 0.  A 0 base under a
    negative exponent, or a power that overflows, raises EvalDomainError."""
    if exponent < 0 and 0 in column:
        raise EvalDomainError("zero raised to a negative power")
    result, square, n = [1.0] * len(column), column, abs(exponent)
    while n:
        if n & 1:
            result = list(map(operator.mul, result, square))
        n >>= 1
        if n:
            square = list(map(operator.mul, square, square))
    if exponent < 0:    # the base is not 0, so a 0 here has underflowed
        result = [1 / value if value else math.inf for value in result]
    if any(map(math.isinf, result)):
        raise EvalDomainError("evaluation produced a non-finite value")
    return result


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
    drops every column but the outputs' once nothing reads it again.  A
    ``Conj`` node or a non-real constant has no real value: ``TypeError``.
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
                        a = float(a)
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
    if kind is Const and not isinstance(node.value, GaussianRational):
        return (_CONST, node.value, None)
    if kind is Var:
        return (_VAR, node.index, None)
    if kind is Pow:
        return (_POW, slot_of[id(node.base)], node.exponent)
    if kind in _BINARY_OPS:
        return (_BINARY_OPS[kind], slot_of[id(node.left)], slot_of[id(node.right)])
    if kind in _UNARY_OPS:
        return (_UNARY_OPS[kind], slot_of[id(node.arg)], None)
    raise TypeError(f"{describe(node)} node has no real value")


def eval_float(node: Expr, point: Sequence[float]) -> float:
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
    sign, not by recursion, and the summands' terms are summed into one term
    dict by :func:`~morphlift.poly.accumulate_terms`, so a sum lowers in time
    linear in its size.  A summand that is a product of constants, variables
    and natural powers of variables becomes its (exponents, coefficient)
    pair directly; any other summand goes through the ring operations.  The result, and the order of its terms, is that of
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

    pairs = []      # (exponents, signed coefficient), in summand order
    for node, sign in reversed(summands):
        while type(node) is Neg:
            node, sign = node.arg, -sign
        term = _monomial(node, num_vars)
        if term is None:
            poly = _lower_summand(node, num_vars, num_complex)
            pairs.extend((poly if sign > 0 else -poly).terms.items())
        else:
            exponents, coeff = term
            pairs.append((exponents, coeff if sign > 0 else -coeff))
    return MultiPoly._trusted(num_vars, accumulate_terms({}, pairs), num_complex)


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
        # The parser builds a product of n factors as a left-leaning spine
        # of Mul nodes; prefixes[i] is the product of the first i + 1
        # factors, listed by a walk down the spine, not by recursion.
        prefixes = [node]
        while type(node) is Mul:
            node = node.left
            prefixes.append(node)
        prefixes.reverse()
        factors = [prefixes[0]] + [prefix.right for prefix in prefixes[1:]]
        # The factors before the first that is not a monomial lower as one
        # term, and the rest multiply in from left to right.
        first = next(i for i, factor in enumerate(factors)
                     if _monomial(factor, num_vars) is None)
        start = max(first - 1, 0)
        product = lower_to_poly(prefixes[start], num_vars, num_complex)
        for factor in factors[start + 1:]:
            product = product * lower_to_poly(factor, num_vars, num_complex)
        return product
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

    def check_guard_values(self, values: Iterator[float]) -> None:
        """Take one value per guard from ``values``, in order, and raise at
        the first that is not positive, before taking the next."""
        for g, value in zip(self.guards, values):
            if value <= 0:
                raise EvalDomainError(
                    f"guard {render_expr(g, self.names())} violated at sample point")
