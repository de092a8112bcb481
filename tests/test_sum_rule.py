"""Every term store is summed by ``poly.accumulate_terms``; here each of its
callers is checked against the body it replaced.

The sum rule: a term whose running sum reaches 0 is deleted at once, and if
a later summand brings it back it goes last; a 0 summand at an absent key
leaves nothing.  ``+``, ``-``, ``laplacian`` and ``compose`` are compared
with their hand-written loops, kept in ``poly_oracle``, and the lowering and
the reader of canonical text with the lowering that called
``accumulate_term``, kept in ``expr_oracle``.  Results must agree in their
terms in dict order, their coefficient types, width and exponent bound.
"""

from fractions import Fraction
from operator import add, sub

from hypothesis import given, settings, strategies as st

import expr_oracle
import poly_oracle
from morphlift.exact import GaussianRational
from morphlift.expr import Add, Const, Mul, Neg, Pow, Sub, Var, lower_to_poly
from morphlift.mapfile import _Parser, _read_canonical_poly
from morphlift.poly import MultiPoly, accumulate_terms, default_names

RINGS = ((0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (4, 2))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(GaussianRational, rationals, rationals)
coefficients = st.one_of(st.integers(-3, 3), rationals, gaussians)
real_coefficients = st.one_of(st.integers(-3, 3), rationals)
# small exponents, so that terms meet, and some past a one-byte field
exponents = st.one_of(st.integers(0, 3), st.sampled_from((255, 256, 65536)))


def described(p: MultiPoly) -> tuple:
    """What must not change: terms in dict order with their types, the
    ring, the width and the exponent bound."""
    return ([(e, c, type(c)) for e, c in p.terms.items()],
            p.num_vars, p.num_complex, p._width, p._bound)


def polys_in(ring, coefficients=coefficients, exponents=exponents, max_size=5):
    num_vars, num_complex = ring
    return st.dictionaries(st.tuples(*[exponents] * num_vars), coefficients,
                           max_size=max_size).map(
        lambda terms: MultiPoly(num_vars, terms, num_complex))


@st.composite
def rings_and_polys(draw, **kwargs):
    ring = draw(st.sampled_from(RINGS))
    return ring, draw(polys_in(ring, **kwargs))


@st.composite
def echoes(draw, ring, p: MultiPoly):
    """A polynomial that takes some of p's terms with the opposite sign, so
    that they cancel, and some others."""
    terms = {e: -c for e, c in p.terms.items() if draw(st.booleans())}
    terms.update(draw(polys_in(ring, max_size=3)).terms)
    return MultiPoly(ring[0], terms, ring[1])


# ---------------------------------------------------------------------------
# The rule itself
# ---------------------------------------------------------------------------

KEYS = st.sampled_from([(0,), (1,), (2,), (3,)])


@given(st.lists(st.tuples(KEYS, st.one_of(st.just(0), coefficients),
                          st.sampled_from((1, -1))), max_size=12))
def test_accumulate_terms_sums_as_accumulate_term_did(summands):
    old: dict = {}
    for key, coeff, sign in summands:
        expr_oracle.accumulate_term(old, key, coeff, sign)
    new = accumulate_terms({}, [(key, coeff if sign > 0 else -coeff)
                                for key, coeff, sign in summands])
    assert [(k, c, type(c)) for k, c in new.items()] == \
        [(k, c, type(c)) for k, c in old.items()]
    assert all(new.values())


def test_a_term_that_cancels_and_comes_back_goes_last():
    store = accumulate_terms({"a": 1}, [("b", 2), ("a", -1), ("c", 3),
                                        ("a", Fraction(1, 2))])
    assert list(store.items()) == [("b", 2), ("c", 3), ("a", Fraction(1, 2))]


def test_a_zero_summand_leaves_an_absent_key_absent_and_a_present_one_in_place():
    store = accumulate_terms({"a": 1, "b": 2}, [("c", 0), ("a", 0),
                                                ("d", Fraction(0)), ("e", 5)])
    assert list(store.items()) == [("a", 1), ("b", 2), ("e", 5)]


def test_accumulate_terms_fills_the_store_it_is_given():
    store = {"a": 1}
    assert accumulate_terms(store, [("a", -1)]) is store and store == {}


# ---------------------------------------------------------------------------
# Sums and differences
# ---------------------------------------------------------------------------

@given(st.data())
def test_sum_and_difference_match_the_old_term_loop(data):
    ring, a = data.draw(rings_and_polys())
    for b in (data.draw(polys_in(ring)), data.draw(echoes(ring, a))):
        assert described(a + b) == described(poly_oracle.packed_combine(a, b, add))
        assert described(a - b) == described(poly_oracle.packed_combine(a, b, sub))
        assert (b - b).is_zero
    factor = data.draw(coefficients)
    assert described(a + factor) == described(
        poly_oracle.packed_combine(a, factor, add))
    assert described(a - factor) == described(
        poly_oracle.packed_combine(a, factor, sub))
    assert described(factor - a) == described(
        poly_oracle.packed_combine(-a, factor, add))


# ---------------------------------------------------------------------------
# The Laplacian's buckets
# ---------------------------------------------------------------------------

@given(rings_and_polys(exponents=st.one_of(st.integers(0, 4),
                                           st.sampled_from((255, 256)))))
def test_laplacian_matches_its_old_bucket_sum(ring_and_poly):
    _, q = ring_and_poly
    assert described(q.laplacian()) == described(poly_oracle.packed_laplacian(q))


def test_laplacian_puts_a_term_that_cancels_and_comes_back_last():
    # the constant runs 2, 0, 2 over the buckets of x1, x2 and x3
    q = MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): -1, (3, 0, 0): 1, (0, 0, 2): 1})
    lap = q.laplacian()
    assert list(lap.terms.items()) == [((1, 0, 0), 6), ((0, 0, 0), 2)]
    assert described(lap) == described(poly_oracle.packed_laplacian(q))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.data())
def test_compose_matches_its_old_store_loop(data):
    ring = data.draw(st.sampled_from(RINGS[1:]))
    outer = data.draw(st.sampled_from(RINGS[1:]))
    q = data.draw(polys_in(outer, exponents=st.integers(0, 2), max_size=4))
    values = [data.draw(polys_in(ring, max_size=3)) for _ in range(outer[0])]
    if data.draw(st.booleans()) and len(values) > 1:
        values[1] = -values[0]      # the first two variables cancel
    assert described(q.compose(values)) == described(
        poly_oracle.store_compose(q, values))


def test_compose_puts_a_term_that_cancels_and_comes_back_last():
    q = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    y1, y2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    values = [y1 + y2, -y1, y1]
    composed = q.compose(values)
    assert list(composed.terms) == [(0, 1), (1, 0)]
    assert described(composed) == described(poly_oracle.store_compose(q, values))


# ---------------------------------------------------------------------------
# Lowering and the reader of canonical text
# ---------------------------------------------------------------------------

def _monomials(num_vars):
    return st.lists(st.integers(0, num_vars - 1), max_size=3) if num_vars \
        else st.just([])


@st.composite
def signed_sums(draw, num_vars, complex_ring):
    """Sums whose summands repeat a few monomials, so that terms cancel and
    come back, with 0 coefficients, Fractions and, in a complex ring,
    Gaussian ones; some summands are products of sums or powers."""
    constants = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(1, 2),
                                           Fraction(-3, 2)]),
                          gaussians if complex_ring else st.nothing())
    pool = draw(st.lists(_monomials(num_vars), min_size=1, max_size=3))

    def monomial():
        node = Const(draw(constants))
        for index in draw(st.sampled_from(pool)):
            node = Mul(node, Var(index))
        return node

    node = monomial()
    for _ in range(draw(st.integers(0, 8))):
        summand = monomial()
        shape = draw(st.integers(0, 5))
        if shape == 0:
            summand = Neg(summand)
        elif shape == 1:
            summand = Mul(Add(summand, monomial()), Sub(monomial(), summand))
        elif shape == 2:
            summand = Pow(Add(summand, monomial()), 2)
        node = Add(node, summand) if draw(st.booleans()) else Sub(node, summand)
    return Neg(node) if draw(st.booleans()) else node


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lowering_matches_the_old_lowering(data):
    num_vars, num_complex = data.draw(st.sampled_from(RINGS))
    node = data.draw(signed_sums(num_vars, num_complex > 0))
    assert described(lower_to_poly(node, num_vars, num_complex)) == described(
        expr_oracle.lower_to_poly(node, num_vars, num_complex))


def _old_lowering_of_text(text, num_vars, num_complex):
    names = default_names(num_vars, num_complex)
    parser = _Parser(text, {name: Var(j) for j, name in enumerate(names)},
                     is_complex=num_complex > 0)
    node = parser.parse_expr()
    parser.expect("end")
    return expr_oracle.lower_to_poly(node, num_vars, num_complex)


def _read(text, num_vars, num_complex):
    names = default_names(num_vars, num_complex)
    read = _read_canonical_poly(text, {name: j for j, name in enumerate(names)},
                                num_vars, num_complex)
    assert read is not None, text
    return read


@st.composite
def canonical_texts(draw, names):
    monomials = draw(st.lists(st.lists(st.sampled_from(names), max_size=3)
                              if names else st.just([]), min_size=1, max_size=3))
    pieces = []
    for _ in range(draw(st.integers(1, 9))):
        factors = "*".join(draw(st.sampled_from(monomials)))
        coeff = draw(st.sampled_from(["0", "1", "2", "3", "1/2", "4/2", "3/4"]))
        sign = draw(st.sampled_from([" + ", " - "]))
        pieces.append(sign + (f"{coeff}*{factors}" if factors else coeff))
    first = pieces[0]
    return (first[3:] if first[1] == "+" else f"-{first[3:]}") + "".join(pieces[1:])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_canonical_reader_matches_the_old_lowering(data):
    num_vars, num_complex = data.draw(st.sampled_from(RINGS))
    text = data.draw(canonical_texts(default_names(num_vars, num_complex)))
    assert described(_read(text, num_vars, num_complex)) == described(
        _old_lowering_of_text(text, num_vars, num_complex))


CANCELLING_TEXTS = [
    "0",
    "0*x1 + x2",
    "x2 - 0*x1",
    "x1 - x1",
    "x1 - x1 + x1",
    "x1 + x2 - x1 + 1/2*x1",
    "1/2*x1 + 1/2*x1 + x2",
    "-x2 + 0 + x1*x2 - 0*x1*x2 + x2",
]


def test_lowering_and_the_reader_cancel_and_restore_as_before():
    for text in CANCELLING_TEXTS:
        old = described(_old_lowering_of_text(text, 2, 0))
        assert described(_read(text, 2, 0)) == old, text
        parser = _Parser(text, {"x1": Var(0), "x2": Var(1)}, is_complex=False)
        assert described(lower_to_poly(parser.parse_expr(), 2)) == old, text
    assert list(_read("x1 + x2 - x1 + 1/2*x1", 2, 0).terms.items()) == \
        [((0, 1), 1), ((1, 0), Fraction(1, 2))]
    assert _read("0*x1 + x2", 2, 0).terms == {(0, 1): 1}
