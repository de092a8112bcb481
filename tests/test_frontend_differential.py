"""Differential tests of the map-file front end against the code it replaced.

``mapfile._tokenize`` is checked against the per-character tokenizer, and
``expr.lower_to_poly`` and ``expr.is_polynomial`` against the recursive
versions, all kept in ``frontend_oracle``.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from frontend_oracle import old_is_polynomial, old_lower_to_poly, old_tokenize
from morphlift.exact import GaussianRational
from morphlift.expr import (
    Add,
    Conj,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
    Var,
    is_polynomial,
    lower_to_poly,
)
from morphlift.mapfile import MapSyntaxError, _position, _tokenize


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

def _outcome(tokenize, source):
    """Tokens as (kind, text, line, column), or the error as
    ("error", message, line, column)."""
    try:
        tokens = tokenize(source)
    except MapSyntaxError as error:
        return ("error", str(error), error.line, error.column)
    if tokenize is old_tokenize:
        return [(t.kind, t.text, t.line, t.column) for t in tokens]
    return [(kind, text, *_position(source, offset)) for kind, text, offset in tokens]


def _non_decimal_digit(ch: str) -> bool:
    """Characters the old tokenizer read as numbers and int() rejects."""
    return ch.isdigit() and not ch.isdecimal()


@pytest.mark.parametrize("prefix", ["", "x1 "], ids=["alone", "after-x1"])
def test_tokenizer_matches_oracle_on_every_bmp_code_point(prefix):
    column = len(prefix) + 1
    for code in range(0x10000):
        ch = chr(code)
        source = prefix + ch
        new = _outcome(_tokenize, source)
        old = _outcome(old_tokenize, source)
        if _non_decimal_digit(ch):
            # the only intended difference: a number token int() cannot read
            assert old[-2][:2] == ("number", ch)
            assert new == ("error", f"1:{column}: unexpected character {ch!r}",
                           1, column), hex(code)
        else:
            assert new == old, hex(code)


@pytest.mark.parametrize("source", [
    "",
    "# only a comment",
    "x1 # trailing comment",
    "x1 # comment\n",
    "x1\r\n+ x2\r\n",
    "x1\r\n# comment\r\n  - 3/4*x2 # c\r\n",
    "\tx1\t*\tx2\n\t\t^ 3",
    "map f: R^2 -> R^1 {\r\n\tf1 = x1*x2; # product\r\n}\r\n",
    "a->b - > c",
    "x1 #\n#\n\n   #x",
    "1.5",
    "x1 +\n  2.",
    "x1\r\n\t3.0",
    "__ _1 x_2 \u00e9t\u00e9 \u03b1\u03b2 x1\u00b2 x\u00bd",
    "x1 \u00bd",
    "x1\n  \u00b2",
    "12\u00b2",
    "\u0663\u0664 + x1",
    "x1 ? x2",
    "x1\x0bx2",
    "x1\u00a0x2",
    "f1 = x1; # \u00e9\u00b2 in a comment\n}",
])
def test_tokenizer_matches_oracle_on_crlf_tab_and_comment_inputs(source):
    _assert_agrees_with_oracle(source)


_FRAGMENTS = st.sampled_from([
    "x1", "x23", "zb2", "_a", "\u00e9", "12", "0", "3.", " ", "\t", "\r", "\n",
    "\r\n", "# c\n", "#", "->", "-", ">", "+", "*", "/", "^", "(", ")", "{",
    "}", ":", ";", "=", ",", "?", "\u00b2", "\u00bd", "\u0661", "\u00a0",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=20))
def test_tokenizer_matches_oracle_on_fragment_strings(fragments):
    _assert_agrees_with_oracle("".join(fragments))


def _assert_agrees_with_oracle(source):
    new = _outcome(_tokenize, source)
    old = _outcome(old_tokenize, source)
    if new == old:
        return
    # The only intended difference: the new tokenizer stops at a character
    # the old one put into a number token that int() cannot read.
    kind, message, line, column = new
    assert kind == "error"
    offset = sum(len(text) + 1 for text in source.split("\n")[:line - 1]) + column - 1
    ch = source[offset]
    assert _non_decimal_digit(ch)
    assert message == f"{line}:{column}: unexpected character {ch!r}"
    *_, last, end = old_tokenize(source[:offset + 1])
    assert last.kind == "number" and last.text.endswith(ch)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def _lowered(lower, node, num_vars, num_complex):
    """The terms in dict order with coefficient types, or the error."""
    try:
        poly = lower(node, num_vars, num_complex)
    except Exception as error:   # noqa: BLE001 - the error is the outcome
        return (type(error), str(error))
    items = list(poly.terms.items())
    return (poly.num_vars, poly.num_complex, items,
            [type(c) for _, c in items])


_REAL_CONSTANTS = st.sampled_from(
    [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
     Fraction(2, 3), Fraction(-4, 3)])
_GAUSSIAN_CONSTANTS = st.sampled_from(
    [GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, 1),
     GaussianRational(Fraction(1, 2), Fraction(-1, 2)),
     GaussianRational(-2, Fraction(1, 3))])


@lru_cache(maxsize=None)
def _trees(num_vars, complex_ring, with_errors=False):
    """Trees over the ring's variables; with_errors adds out-of-range
    variables and non-polynomial nodes."""
    constants = (st.one_of(_REAL_CONSTANTS, _GAUSSIAN_CONSTANTS)
                 if complex_ring else _REAL_CONSTANTS)
    leaves = [constants.map(Const)]
    if num_vars:
        leaves.append(st.integers(0, num_vars - 1).map(Var))
    if with_errors:
        leaves.append(st.sampled_from([-1, num_vars, num_vars + 5]).map(Var))
    leaf = st.one_of(*leaves)

    def extend(inner):
        nodes = [
            st.builds(Add, inner, inner),
            st.builds(Sub, inner, inner),
            st.builds(Mul, inner, inner),
            st.builds(Neg, inner),
            st.builds(Pow, inner, st.integers(0, 3)),
            # a sum of repeated summands, so terms cancel and come back
            st.lists(st.tuples(st.booleans(), inner), min_size=2, max_size=8)
              .map(_left_sum),
        ]
        if complex_ring:
            nodes.append(st.builds(Conj, inner))
        if with_errors:
            nodes.extend([st.builds(Div, inner, inner), st.builds(Sqrt, inner),
                          st.builds(Pow, inner, st.integers(-2, -1)),
                          st.builds(Conj, inner)])
        return st.one_of(*nodes)

    return st.recursive(leaf, extend, max_leaves=24)


def _left_sum(signed_summands):
    (_, node), *rest = signed_summands
    for plus, summand in rest:
        node = Add(node, summand) if plus else Sub(node, summand)
    return node


def _assert_same_lowering(node, num_vars, num_complex):
    new = _lowered(lower_to_poly, node, num_vars, num_complex)
    old = _lowered(old_lower_to_poly, node, num_vars, num_complex)
    assert new == old
    return new


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_lowering_matches_oracle_in_real_rings(data, num_vars):
    node = data.draw(_trees(num_vars, complex_ring=False))
    _assert_same_lowering(node, num_vars, 0)
    assert is_polynomial(node, False) == old_is_polynomial(node, False)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_lowering_matches_oracle_in_complex_rings(data, num_complex):
    node = data.draw(_trees(2 * num_complex, complex_ring=True))
    _assert_same_lowering(node, 2 * num_complex, num_complex)
    for allow_conj in (False, True):
        assert is_polynomial(node, allow_conj) == old_is_polynomial(node, allow_conj)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2), st.booleans())
def test_lowering_errors_match_oracle(data, num_vars, complex_ring):
    # out-of-range variables, division, square roots, negative powers, conj
    # in a real ring: the same exception with the same message
    ring = (2 * num_vars, num_vars) if complex_ring else (num_vars, 0)
    node = data.draw(_trees(ring[0], complex_ring, with_errors=True))
    _assert_same_lowering(node, *ring)
    for allow_conj in (False, True):
        assert is_polynomial(node, allow_conj) == old_is_polynomial(node, allow_conj)


def test_lowering_cancellation_and_reinsertion_order():
    x, y = Var(0), Var(1)
    half = Const(Fraction(1, 2))
    cases = [
        Sub(x, x),                                        # cancels to zero
        Add(Add(Mul(half, x), Mul(half, x)), y),          # 1/2 + 1/2 -> int 1
        Add(Sub(Add(x, y), x), x),                        # x leaves, comes back last
        Sub(Add(x, y), Sub(x, y)),                        # right-nested sum
        Neg(Add(Mul(Const(3), x), Neg(y))),
        Add(Mul(Const(0), Var(1)), x),                    # zero product
        Mul(Add(x, y), Sub(x, y)),                        # product of sums
        Pow(Add(x, Const(Fraction(1, 3))), 3),
    ]
    for node in cases:
        _assert_same_lowering(node, 2, 0)
    assert lower_to_poly(Add(Sub(Add(x, y), x), x), 2).terms == {(0, 1): 1, (1, 0): 1}
    assert list(lower_to_poly(Add(Sub(Add(x, y), x), x), 2).terms) == [(0, 1), (1, 0)]
    assert lower_to_poly(Sub(x, x), 2).terms == {}
    (coeff,) = lower_to_poly(Add(Mul(half, x), Mul(half, x)), 2).terms.values()
    assert type(coeff) is int


def test_lowering_is_iterative_over_deep_sums():
    depth = 20000
    node = Var(0)
    for k in range(depth):
        node = Sub(node, Var(k % 2)) if k % 3 else Add(node, Mul(Const(2), Var(1)))
    assert is_polynomial(node, False)
    poly = lower_to_poly(node, 2)
    plus = len(range(0, depth, 3))
    minus_x = len([k for k in range(depth) if k % 3 and k % 2 == 0])
    minus_y = len([k for k in range(depth) if k % 3 and k % 2 == 1])
    assert poly.terms == {(1, 0): 1 - minus_x, (0, 1): 2 * plus - minus_y}


def _left_product(factors):
    node = factors[0]
    for factor in factors[1:]:
        node = Mul(node, factor)
    return node


def test_long_products_lower_as_the_oracle_does():
    # the parser's left-leaning Mul spine, 150 factors deep: a prefix of
    # monomial factors, sums, negations and powers after it, and the first
    # error where the recursion meets it
    x, y = Var(0), Var(1)
    half = Const(Fraction(1, 2))
    shifted = Add(x, Const(1))
    cases = [
        [y] + [Sub(Add(x, Const(1)), x)] * 149,
        [shifted] * 150,
        [x, half, y] * 22 + [shifted, Neg(y), Pow(Sub(x, y), 2), half] * 21,
        [Neg(x)] + [x, shifted] * 74 + [Mul(x, Add(y, half))],
        [x] * 100 + [shifted] * 49 + [Div(x, y)],
        [x] * 100 + [Mul(Var(2), shifted)] + [Div(x, y)] * 49,
        [shifted] * 60 + [Var(5)] + [Sqrt(x)] * 89,
    ]
    for factors in cases:
        assert len(factors) == 150
        _assert_same_lowering(_left_product(factors), 2, 0)
