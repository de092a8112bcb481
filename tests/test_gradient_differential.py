"""``MultiPoly.partials`` and ``MultiPoly.laplacian`` take every nonzero
first partial, and the Laplacian, from one pass over a polynomial's packed
keys.  ``calculus.jacobian``, ``calculus.hessian`` (a function of the row
index) and ``calculus.laplacian`` are built on them.  Each must give what
the old bodies in ``calculus_oracle`` give, which took one
``MultiPoly.partial`` per derivative: the same terms in the same dict order,
with the same coefficient types, field width and exponent bound."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import calculus_oracle
import poly_oracle
from genmaps import (
    random_complex_map,
    random_harmonic_map,
    random_quadratic_map,
    random_real_map,
)
from morphlift.calculus import hessian, jacobian, laplacian
from morphlift.catalog import entry_ids, lookup
from morphlift.exact import GaussianRational
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map
from morphlift.maps import RealPolyMap, real_form, real_identification
from morphlift.poly import MultiPoly, _canonicalize, grouped_terms


def _packed(p):
    """Everything a polynomial holds: its ring, width, bound and packed
    terms in dict order, each with its coefficient's type."""
    return (p.num_vars, p.num_complex, p._width, p._bound,
            [(key, c, type(c)) for key, c in p._terms.items()])


def _assert_same_partials(p):
    """partials() against the nonzero ``partial(j)`` in increasing j, and
    against the nonzero entries of the dense one-pass oracle."""
    new = [(j, _packed(q)) for j, q in p.partials().items()]
    assert new == [(j, _packed(p.partial(j))) for j in range(p.num_vars)
                   if p.partial(j)]
    assert new == [(j, _packed(q))
                   for j, q in enumerate(calculus_oracle.gradient(p)) if q]


def _assert_same_derivatives(p, rows=None):
    """partials, Hessian rows (all, or ``rows`` in that order) and
    Laplacian of a real polynomial against the one-partial-at-a-time
    bodies."""
    _assert_same_partials(p)
    assert _packed(laplacian(p)) == \
        _packed(calculus_oracle.laplacian_by_partials(p))
    new, old = hessian(p), calculus_oracle.hessian_by_partials(p)
    for i in range(p.num_vars) if rows is None else rows:
        # a row keeps its nonzero entries, in increasing j
        assert [(j, _packed(q)) for j, q in new(i).items()] == \
            [(j, _packed(q)) for j, q in enumerate(old.row(i)) if q]


def _assert_same_map(phi, rows=None):
    new = jacobian(phi)
    old = calculus_oracle.jacobian_by_partials(phi)
    assert type(new) is tuple and all(type(row) is tuple for row in new)
    assert [list(map(_packed, row)) for row in new] == \
        [list(map(_packed, row)) for row in old]
    for component in phi.components:
        _assert_same_derivatives(component, rows)


def _catalog_maps():
    for entry_id in entry_ids():
        phi = real_form(parse_map(lookup(entry_id).definition))
        if isinstance(phi, RealPolyMap):
            yield entry_id, phi


CATALOG = list(_catalog_maps())


@pytest.mark.parametrize("entry_id,phi", CATALOG, ids=[e for e, _ in CATALOG])
def test_catalog_maps_match_the_oracle(entry_id, phi):
    _assert_same_map(phi)


@pytest.fixture(scope="module")
def rungs(phi_r16_real):
    r32 = complete_lift_real(phi_r16_real)
    return r32, complete_lift_real(r32)


def test_ladder_rungs_match_the_oracle(phi_r16_real, rungs):
    r32, r64 = rungs
    _assert_same_map(phi_r16_real)
    _assert_same_map(r32)
    # R^64: every first partial and the Laplacian, and the Hessian rows in
    # an order that reads some before and some after the ones they reuse
    _assert_same_map(r64, rows=[0, 63, 5, 32, 1, 0, 40])


@pytest.mark.parametrize("seed", range(8))
def test_seeded_maps_match_the_oracle(seed):
    rng = random.Random(seed)
    maps = [random_real_map(rng, 4, rng.randint(1, 3)),
            random_harmonic_map(rng, 3, rng.randint(1, 3)),
            random_quadratic_map(rng, 4, rng.randint(1, 3)),
            # Gaussian coefficients over real variables
            real_identification(random_complex_map(rng, 2, 1))]
    for phi in maps:
        _assert_same_map(phi)
        _assert_same_map(complete_lift_real(phi))


# Exponents on each side of the one-byte and two-byte field limits.
exponents = st.one_of(st.integers(0, 3),
                      st.sampled_from((254, 255, 256, 257, 65535, 65536)))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coefficients = st.one_of(st.integers(-3, 3), rationals,
                         st.builds(GaussianRational, rationals, rationals))


@given(st.data())
def test_polynomials_with_wide_fields_match_the_oracle(data):
    n = data.draw(st.integers(0, 4))
    terms = data.draw(st.dictionaries(st.tuples(*[exponents] * n),
                                      coefficients, max_size=6))
    p = MultiPoly(n, terms)
    if data.draw(st.booleans()):
        p = p - MultiPoly(n, dict(list(terms.items())[:2]))   # wider, fewer terms
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    _assert_same_derivatives(p, rows)


# Rings as (num_vars, num_complex), real and complex, and exponents that
# need fields of one, two and three bytes.
RINGS = ((0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (4, 2))
field_exponents = st.one_of(
    st.integers(0, 3),
    st.sampled_from((255, 256, 65535, 65536, 2**24 - 1)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_partials_match_the_nonzero_single_partials(data):
    n, k = data.draw(st.sampled_from(RINGS))
    terms = data.draw(st.dictionaries(st.tuples(*[field_exponents] * n),
                                      coefficients, max_size=6))
    p = MultiPoly(n, terms, k)
    if data.draw(st.booleans()):
        p = p - MultiPoly(n, dict(list(terms.items())[:2]), k)  # wider, fewer
    _assert_same_partials(p)
    # only the nonzero partials are keyed, so a variable is a key iff it occurs
    assert list(p.partials()) == [j for j in range(n)
                                  if any(e[j] for e in p.terms)]


@pytest.mark.parametrize("p", [
    MultiPoly(0, {}),
    MultiPoly.constant(0, 5),
    MultiPoly(3, {}),
    MultiPoly.constant(3, Fraction(1, 2)),
    MultiPoly(1, {(300,): 1}) - MultiPoly(1, {(300,): 1}),    # 0 at width 2
    MultiPoly(2, {(1, 1): 3, (1, 0): -1}),                  # no square
], ids=["zero-R0", "constant-R0", "zero-R3", "constant-R3", "wide-zero",
        "bilinear"])
def test_degenerate_polynomials_match_the_oracle(p):
    _assert_same_derivatives(p)


def test_laplacian_puts_a_term_that_cancels_and_returns_last():
    # x3's running sum is 2 after x1 (from x1^2*x3), 0 after x2 (from
    # -x2^2*x3), and 6 after x3 (from x3^3): it goes after x2, although
    # x3^3 comes before -x2^2*x3 in term order
    p = MultiPoly(3, {(2, 0, 1): 1, (2, 1, 0): 1, (0, 0, 3): 1, (0, 2, 1): -1})
    assert [(e, c, type(c)) for e, c in laplacian(p).terms.items()] == \
        [((0, 1, 0), 2, int), ((0, 0, 1), 6, int)]
    assert _packed(laplacian(p)) == \
        _packed(calculus_oracle.laplacian_by_partials(p))


def test_hessian_rows_reuse_the_entries_of_rows_already_built(rungs):
    r32, _ = rungs
    h = hessian(r32.components[0])
    order = [3, 0, 31, 3, 17]
    for i in order:
        h(i)
    for i in order:
        assert h(i) is h(i)
        for j in order:
            assert h(i).get(j) is h(j).get(i)
    assert sum(j in h(i) for i in order for j in order) > len(order)


def test_grouped_terms_list_the_nonzero_exponents_in_order():
    rng = random.Random(3)
    for n, top in ((64, 3), (3, 255), (3, 256), (2, 70000)):
        p = MultiPoly(n, {tuple(rng.choice((0, 0, 1, top)) for _ in range(n)):
                          t + 1 for t in range(6)})
        expected = [([(j, e) for j, e in enumerate(exps) if e], [(0, c)])
                    for exps, c in p.terms.items()]
        assert grouped_terms([p]) == expected
        # one-byte fields first: each monomial meets its twin at p's width
        q = MultiPoly(n, {exps: -1 for exps in p.terms if max(exps) < 256})
        assert q._width == 1
        uses = {}
        for slot, r in enumerate((q, p)):
            for exps, c in r.terms.items():
                uses.setdefault(exps, []).append((slot, c))
        assert grouped_terms([q, p]) == [
            ([(j, e) for j, e in enumerate(exps) if e], found)
            for exps, found in uses.items()]


# ---------------------------------------------------------------------------
# _canonicalize: C-level scans for a store of ints, today's path otherwise
# ---------------------------------------------------------------------------

int_values = st.integers(-2, 2)
mixed_values = st.one_of(
    int_values,
    st.integers(-2, 2).map(Fraction),           # integral Fractions, and 0
    rationals,
    st.builds(GaussianRational, rationals, rationals))


@given(st.one_of(st.dictionaries(st.integers(0, 50), int_values, max_size=12),
                 st.dictionaries(st.integers(0, 50), mixed_values, max_size=12)))
def test_canonicalize_matches_the_oracle(terms):
    new = _canonicalize(dict(terms))
    old = poly_oracle.canonicalize(dict(terms))
    assert [(k, c, type(c)) for k, c in new.items()] == \
        [(k, c, type(c)) for k, c in old.items()]
    assert all(new.values())
