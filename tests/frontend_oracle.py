"""Test oracles for the map-file front end: the per-character tokenizer and
the recursive lowering that ``mapfile._tokenize`` and
``expr.lower_to_poly`` replaced.

Both are kept as they were, apart from their names, so the differential
tests in ``test_frontend_differential.py`` can compare the current code with
them.  They are not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from morphlift.expr import Add, Conj, Const, Mul, Neg, NotPolynomial, Pow, Sub, Var
from morphlift.mapfile import MapSyntaxError
from morphlift.poly import MultiPoly


@dataclass(frozen=True)
class OldToken:
    kind: str  # ident, number, symbol, end
    text: str
    line: int
    column: int


_SYMBOLS = ("->", "+", "-", "*", "/", "^", "(", ")", "{", "}", ":", ";", "=", ",")


def old_tokenize(source: str) -> list[OldToken]:
    tokens = []
    line, column = 1, 1
    index = 0
    length = len(source)
    while index < length:
        ch = source[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if ch == "#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if ch.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            if index < length and source[index] == ".":
                raise MapSyntaxError("decimal literals are not supported; "
                                     "use exact fractions like 1/2", line, column)
            tokens.append(OldToken("number", source[start:index], line, column))
            column += index - start
            continue
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            tokens.append(OldToken("ident", source[start:index], line, column))
            column += index - start
            continue
        matched = None
        for symbol in _SYMBOLS:
            if source.startswith(symbol, index):
                matched = symbol
                break
        if matched is None:
            raise MapSyntaxError(f"unexpected character {ch!r}", line, column)
        tokens.append(OldToken("symbol", matched, line, column))
        index += len(matched)
        column += len(matched)
    tokens.append(OldToken("end", "", line, column))
    return tokens


def old_lower_to_poly(node, num_vars: int, num_complex: int = 0) -> MultiPoly:
    if isinstance(node, Const):
        return MultiPoly.constant(num_vars, node.value, num_complex)
    if isinstance(node, Var):
        return MultiPoly.variable(num_vars, node.index, num_complex)
    if isinstance(node, Add):
        return (old_lower_to_poly(node.left, num_vars, num_complex)
                + old_lower_to_poly(node.right, num_vars, num_complex))
    if isinstance(node, Sub):
        return (old_lower_to_poly(node.left, num_vars, num_complex)
                - old_lower_to_poly(node.right, num_vars, num_complex))
    if isinstance(node, Mul):
        return (old_lower_to_poly(node.left, num_vars, num_complex)
                * old_lower_to_poly(node.right, num_vars, num_complex))
    if isinstance(node, Neg):
        return -old_lower_to_poly(node.arg, num_vars, num_complex)
    if isinstance(node, Pow):
        if node.exponent < 0:
            raise NotPolynomial(node)
        return old_lower_to_poly(node.base, num_vars, num_complex) ** node.exponent
    if isinstance(node, Conj):
        if num_complex == 0:
            raise NotPolynomial(node)
        return old_lower_to_poly(node.arg, num_vars, num_complex).conjugate_poly()
    raise NotPolynomial(node)


def old_is_polynomial(node, allow_conj: bool) -> bool:
    if isinstance(node, (Const, Var)):
        return True
    if isinstance(node, (Add, Sub, Mul)):
        return (old_is_polynomial(node.left, allow_conj)
                and old_is_polynomial(node.right, allow_conj))
    if isinstance(node, Neg):
        return old_is_polynomial(node.arg, allow_conj)
    if isinstance(node, Pow):
        return node.exponent >= 0 and old_is_polynomial(node.base, allow_conj)
    if isinstance(node, Conj):
        return allow_conj and old_is_polynomial(node.arg, allow_conj)
    return False
