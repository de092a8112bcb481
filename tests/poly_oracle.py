"""Test oracles for the polynomial store: the operations of ``MultiPoly`` as
they were when its terms were a dict keyed by exponent tuples, before packed
keys became the only store.

Each function but ``packed_compose`` and ``packed_accumulate_product``
takes and returns plain term dicts (exponent tuple -> coefficient).  The
bodies are the old methods' bodies, so a result has the terms, the dict
order and the coefficient types the old store produced, and the
differential tests in ``test_poly.py`` compare the packed store with them,
beside ``reference_product``.  The exception is the accumulation of
products: ``sum_of_products``, and ``product`` through it, delete a term as
soon as its running sum reaches 0, as the packed accumulator now does, so a
term that cancels and comes back goes last.  ``product`` keeps the old
one-term shortcut, so that it takes the old product's paths too.
``packed_accumulate_product`` is ``poly.accumulate_product`` as it was
before it deleted cancelled terms: it stores every zero sum and leaves the
zeros for the caller to drop.  ``packed_compose`` is ``MultiPoly.compose``
of the packed store as it was before it summed into one store; it takes and
returns ``MultiPoly`` objects.  ``packed_render`` is ``render`` of the
packed store as it was before it sorted and formatted from the key bytes: it
unpacks every term to its exponent tuple and formats every coefficient
through ``_render_coefficient``.  These functions are not part of the
package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile
from operator import add

from morphlift.exact import (
    conjugate,
    imag_part,
    make_scalar_like,
    real_part,
    render_scalar,
)
from morphlift.poly import MultiPoly, default_names


def canonicalize(terms: dict) -> dict:
    """Drop zero coefficients and demote integral Fractions, in place."""
    for key in [k for k, c in terms.items() if not c or type(c) is Fraction]:
        coeff = terms[key]
        if not coeff:
            del terms[key]
        elif coeff.denominator == 1:
            terms[key] = coeff.numerator
    return terms


def constant(num_vars: int, value) -> dict:
    value = make_scalar_like(value)
    return {(0,) * num_vars: value} if value != 0 else {}


def combine(left: dict, right: dict, op) -> dict:
    """left op right, for op in {add, sub}, applied term by term."""
    terms = dict(left)
    get = terms.get
    for exponents, coeff in right.items():
        terms[exponents] = op(get(exponents, 0), coeff)
    return canonicalize(terms)


def negate(terms: dict) -> dict:
    return canonicalize({e: -c for e, c in terms.items()})


def scale(terms: dict, factor) -> dict:
    factor = make_scalar_like(factor)
    return canonicalize({e: factor * c for e, c in terms.items()})


def product(left: dict, right: dict) -> dict:
    """left * right, with the one-term shortcut the old store took."""
    if len(left) == 1:
        return _monomial_product(left, right)
    if len(right) == 1:
        return _monomial_product(right, left)
    return sum_of_products([(left, right)])


def sum_of_products(pairs) -> dict:
    """The sum of left*right over the pairs of term dicts, in one
    accumulator that deletes a term as soon as its running sum is 0."""
    accumulator: dict = {}
    for left, right in pairs:
        for ea, ca in left.items():
            for eb, cb in right.items():
                key = tuple(map(add, ea, eb))
                c = accumulator.get(key, 0) + ca * cb
                if c:
                    accumulator[key] = c
                else:
                    del accumulator[key]
    return canonicalize(accumulator)


def packed_accumulate_product(accumulator: dict, p: MultiPoly, q: MultiPoly, *,
                              width: int) -> None:
    """accumulator += p*q over packed keys, storing every sum, 0 included."""
    if (p._bound + q._bound) >> (8 * width):
        raise OverflowError(f"exponent sums of p*q overflow {width}-byte fields")
    get = accumulator.get
    q_items = q._at(width).items()
    for kp, cp in p._at(width).items():
        for kq, cq in q_items:
            key = kp + kq
            accumulator[key] = get(key, 0) + cp * cq


def _monomial_product(monomial: dict, terms: dict) -> dict:
    (shift, factor), = monomial.items()
    return canonicalize({tuple(map(add, shift, e)): factor * c
                         for e, c in terms.items()})


def power(terms: dict, num_vars: int, exponent: int) -> dict:
    result = constant(num_vars, 1)
    base = terms
    k = exponent
    while k:
        if k & 1:
            result = product(result, base)
        base = product(base, base) if k > 1 else base
        k >>= 1
    return result


def partial(terms: dict, index: int) -> dict:
    out: dict = {}
    for exponents, coeff in terms.items():
        e = exponents[index]
        if e == 0:
            continue
        lowered = exponents[:index] + (e - 1,) + exponents[index + 1:]
        out[lowered] = out.get(lowered, 0) + e * coeff
    return canonicalize(out)


def conjugate_terms(terms: dict, num_complex: int) -> dict:
    k = num_complex
    out = {}
    for exponents, coeff in terms.items():
        out[exponents[k:] + exponents[:k]] = conjugate(coeff)
    return canonicalize(out)


def remap(terms: dict, num_vars: int, index_map: dict) -> dict:
    out = {}
    for exponents, coeff in terms.items():
        new_exp = [0] * num_vars
        for j, e in enumerate(exponents):
            if e:
                new_exp[index_map[j]] = e
        out[tuple(new_exp)] = coeff
    return canonicalize(out)


def evaluate(terms: dict, point):
    total = 0
    for exponents, coeff in terms.items():
        value = coeff
        for base, e in zip(point, exponents):
            if e:
                value = value * base ** e
        total = total + value
    return make_scalar_like(total) if not isinstance(total, int) else total


def compose(terms: dict, values: list, num_vars: int) -> dict:
    """Substitute the term dict values[j] for variable j; the values live in
    a ring of ``num_vars`` variables."""
    result: dict = {}
    power_cache: dict = {}
    for exponents, coeff in terms.items():
        term = constant(num_vars, coeff)
        for j, e in enumerate(exponents):
            if e == 0:
                continue
            key = (j, e)
            if key not in power_cache:
                power_cache[key] = power(values[j], num_vars, e)
            term = product(term, power_cache[key])
        result = combine(result, term, add)
    return result


def packed_compose(q: MultiPoly, values: list) -> MultiPoly:
    """``MultiPoly.compose`` on the packed store as it was before it summed
    the expanded monomials into one store: each monomial is added to the
    result with ``+``, which copies the result every time."""
    if not values:
        return q
    ring = (values[0].num_vars, values[0].num_complex)
    result = MultiPoly.zero(*ring)
    power_cache: dict = {}
    for exponents, coeff in q.terms.items():
        term = MultiPoly.constant(ring[0], coeff, ring[1])
        for j, e in enumerate(exponents):
            if e:
                if (j, e) not in power_cache:
                    power_cache[j, e] = values[j] ** e
                term = term * power_cache[j, e]
        result = result + term
    return result


def _graded_lex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


def _render_coefficient(coeff, has_vars: bool) -> tuple[str, str]:
    re, im = real_part(coeff), imag_part(coeff)
    if im == 0:
        sign = "-" if re < 0 else "+"
        magnitude = -re if re < 0 else re
        if has_vars and magnitude == 1:
            return sign, ""
        return sign, f"{magnitude}*" if has_vars else str(magnitude)
    if re == 0:
        sign = "-" if im < 0 else "+"
        magnitude = -im if im < 0 else im
        body = "i" if magnitude == 1 else f"{magnitude}*i"
        return sign, f"{body}*" if has_vars else body
    body = f"({render_scalar(coeff)})"
    return "+", f"{body}*" if has_vars else body


def render(terms: dict, num_vars: int, num_complex: int = 0, names=None) -> str:
    if names is None:
        names = default_names(num_vars, num_complex)
    if not terms:
        return "0"
    pieces = []
    for exponents in sorted(terms, key=_graded_lex_key, reverse=True):
        coeff = terms[exponents]
        factors = []
        for j, e in enumerate(exponents):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append(f"{names[j]}^{e}")
        sign, coeff_body = _render_coefficient(coeff, bool(factors))
        pieces.append((sign, coeff_body + "*".join(factors)))
    first_sign, first_body = pieces[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def _packed_graded(p: MultiPoly) -> list:
    terms = p.terms
    return sorted(zip(map(sum, terms), terms, terms.values()), reverse=True)


def _packed_pieces(graded: list, names):
    joined = False
    for _, exponents, coeff in graded:
        factors = [names[j] if e == 1 else f"{names[j]}^{e}"
                   for j, e in enumerate(exponents) if e]
        sign, body = _render_coefficient(coeff, bool(factors))
        body += "*".join(factors)
        if joined:
            yield f" {sign} {body}"
        else:
            yield body if sign == "+" else f"-{body}"
            joined = True


def packed_render(p: MultiPoly, names=None) -> str:
    if names is None:
        names = default_names(p.num_vars, p.num_complex)
    if not p:
        return "0"
    return "".join(_packed_pieces(_packed_graded(p), names))


def packed_render_leading(p: MultiPoly) -> tuple[int, str]:
    if not p:
        return 0, "0"
    graded = _packed_graded(p)
    pieces = _packed_pieces(graded, default_names(p.num_vars, p.num_complex))
    return graded[0][0], "".join(
        takewhile(lambda piece: not piece.startswith(" + "), pieces))
