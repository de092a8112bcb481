"""Test oracles for the real identification and complexification of maps.

``real_identification`` and ``complexify`` are the package's functions as
they were when each substituted the coordinate polynomials into every
component through ``MultiPoly.compose``: z_k = x_{2k-1} + i*x_{2k} and
zb_k = x_{2k-1} - i*x_{2k} one way, x_{2k-1} = (z_k + zb_k)/2 and x_{2k} =
(z_k - zb_k)/(2i) the other.  Their terms have the values and the
coefficient types of the package's, but their dict order is compose's.

``pairwise_real_identification`` and ``pairwise_complexify`` expand each
pair's factor by the double binomial sum, with ``GaussianRational``
coefficients and ``poly.accumulate_terms`` over exponent tuples, in the
order the package's kernel documents: the terms in order, then the pairs by
increasing k, the last pair varying fastest, then ascending power of the
second variable of the pair.  They share no code with the kernel's rows.

These functions are not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from morphlift.exact import (
    DimensionMismatch,
    GaussianRational,
    I,
    imag_part,
    make_scalar,
    real_part,
)
from morphlift.maps import ComplexPolyMap, RealPolyMap
from morphlift.poly import MultiPoly, accumulate_terms


def real_identification(phi: ComplexPolyMap) -> RealPolyMap:
    """The real identification through ``MultiPoly.compose``, with no
    bound on the pair degree."""
    m = phi.domain_dim
    real_vars = 2 * m
    x = [MultiPoly.variable(real_vars, j) for j in range(real_vars)]
    values = [x[2 * k] + x[2 * k + 1].scale(I) for k in range(m)]
    values += [x[2 * k] - x[2 * k + 1].scale(I) for k in range(m)]
    components = []
    for comp in phi.components:
        mixed = comp.compose(values)
        u_terms = {}
        v_terms = {}
        for exponents, coeff in mixed.terms.items():
            u_terms[exponents] = real_part(coeff)
            v_terms[exponents] = imag_part(coeff)
        components.append(MultiPoly(real_vars, u_terms))
        components.append(MultiPoly(real_vars, v_terms))
    return RealPolyMap(real_vars, 2 * phi.codomain_dim, components)


def complexify(phi_r: RealPolyMap) -> ComplexPolyMap:
    """The complexification through ``MultiPoly.compose``."""
    if phi_r.domain_dim % 2 or phi_r.codomain_dim % 2:
        raise DimensionMismatch(
            "complexification needs even domain and codomain dimensions")
    m = phi_r.domain_dim // 2
    n = phi_r.codomain_dim // 2
    num_vars = 2 * m
    half = Fraction(1, 2)
    values = []
    for k in range(m):
        z = MultiPoly.variable(num_vars, k, m)
        zb = MultiPoly.variable(num_vars, m + k, m)
        values.append((z + zb).scale(half))        # x_{2k-1} = (z + zb)/2
        values.append((z - zb).scale(-I * half))   # x_{2k}   = (z - zb)/(2i)
    components = []
    for l in range(n):
        u = phi_r.components[2 * l].compose(values)
        v = phi_r.components[2 * l + 1].compose(values)
        components.append(u + v.scale(I))
    return ComplexPolyMap(m, n, components)


def double_binomial(a: int, b: int) -> list[int]:
    """The coefficients of (1 + t)^a (1 - t)^b, each a sum over the ways to
    take s factors t from the first and j - s from the second."""
    return [sum(comb(a, s) * comb(b, j - s) * (-1) ** (j - s)
                for s in range(max(0, j - b), min(a, j) + 1))
            for j in range(a + b + 1)]


def _expand(terms, pair_fields, pair_factor, num_vars: int) -> dict:
    """The sum, in the documented order, of each term's coefficient times
    the product of its pairs' expansions.  ``pair_fields(k)`` gives the
    variables (first, second) of pair k in the input and in the output;
    ``pair_factor(j, a, b)`` the scalar of the output monomial with j in
    the second variable.  Returns exponent tuple -> scalar."""
    store: dict = {}
    for exponents, coeff in terms:
        pairs = [(k, exponents[first], exponents[second])
                 for k, (first, second, _) in enumerate(pair_fields)
                 if exponents[first] or exponents[second]]
        rows = []
        for k, a, b in pairs:
            _, _, (low, high) = pair_fields[k]
            rows.append([(low, high, a + b - j, j, c * pair_factor(j, a, b))
                         for j, c in enumerate(double_binomial(a, b)) if c])
        items = []
        for choice in product(*rows):
            out = [0] * num_vars
            value = coeff
            for low, high, e_low, e_high, factor in choice:
                out[low] = e_low
                out[high] = e_high
                value = value * factor
            items.append((tuple(out), value))
        accumulate_terms(store, items)
    return store


def pairwise_real_identification(phi: ComplexPolyMap) -> RealPolyMap:
    """The real identification by the double binomial sum, in the
    kernel's order."""
    m = phi.domain_dim
    fields = [(k, m + k, (2 * k, 2 * k + 1)) for k in range(m)]
    components = []
    for comp in phi.components:
        total = _expand(comp.terms.items(), fields,
                        lambda j, a, b: I ** j, 2 * m)
        components.append(MultiPoly(2 * m, {e: real_part(c)
                                            for e, c in total.items()}))
        components.append(MultiPoly(2 * m, {e: imag_part(c)
                                            for e, c in total.items()}))
    return RealPolyMap(2 * m, 2 * phi.codomain_dim, components)


def pairwise_complexify(phi_r: RealPolyMap) -> ComplexPolyMap:
    """The complexification by the double binomial sum, in the kernel's
    order: component l's input terms are u's, then v's new ones, each with
    coefficient u's + i*v's."""
    m = phi_r.domain_dim // 2
    fields = [(2 * k, 2 * k + 1, (k, m + k)) for k in range(m)]
    # 1/(2^(a+b) i^b) = (-i)^b / 2^(a+b)
    factor = (lambda j, a, b:
              GaussianRational(0, -1) ** b * Fraction(1, 2 ** (a + b)))
    components = []
    for l in range(phi_r.codomain_dim // 2):
        u, v = phi_r.components[2 * l], phi_r.components[2 * l + 1]
        merged = {e: (c, 0) for e, c in u.terms.items()}
        for e, c in v.terms.items():
            merged[e] = (merged.get(e, (0, 0))[0], c)
        terms = [(e, make_scalar(re, im)) for e, (re, im) in merged.items()]
        components.append(MultiPoly(2 * m, _expand(terms, fields, factor, 2 * m),
                                    m))
    return ComplexPolyMap(m, phi_r.codomain_dim // 2, components)
