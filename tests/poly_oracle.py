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
term that cancels and comes back goes last; and they square a pair of one
dict in one triangular pass, as the packed kernel now squares a pair of one
polynomial, so that ``power`` sums in the kernel's order.  ``product`` keeps
the old one-term shortcut, so that it takes the old product's paths too.
``packed_accumulate_product`` is ``poly.accumulate_product`` as it was
before it deleted cancelled terms: it stores every zero sum and leaves the
zeros for the caller to drop.  ``packed_compose`` is ``MultiPoly.compose``
of the packed store as it was before it summed into one store; it takes and
returns ``MultiPoly`` objects.  ``packed_render`` is ``render`` of the
packed store as it was before it sorted and formatted from the key bytes: it
unpacks every term to its exponent tuple and formats every coefficient
through ``_render_coefficient``.  ``squared_power`` is
``MultiPoly.__pow__`` as it was before a one-term base took its own path: it
squares every base through products.  ``fibered_render`` is how ``lift
--real`` wrote a lift's component and its coefficient matrix row before
``render_fibered``: ``render`` of the component, then ``render`` of each of
its fiber coefficients in the first half of the names, both through
``packed_render``.

Seven functions keep packed-store bodies that the package no longer has.
``packed_combine`` is ``MultiPoly.__add__`` and ``__sub__`` as they were
when both went through one term loop with ``op`` in {add, sub};
``packed_laplacian`` and ``store_compose`` are ``MultiPoly.laplacian`` and
``MultiPoly.compose`` as they were when each wrote its own running sum.
Those three are the sum rule written out by hand, before
``poly.accumulate_terms`` was its one home.  ``packed_remap`` and
``packed_fiber_coefficients`` are the methods ``MultiPoly.remap`` and
``MultiPoly.fiber_coefficients``, which moved packed keys between rings;
their results keep the width and exponent bound of the polynomial they came
from.  ``field_scan_complete_lift`` is ``MultiPoly.complete_lift`` as it was
when it read every field of every term, once per base variable, zero or
not.  ``product_loop`` is ``poly._sum_of_products`` as it was before it
squared a pair of one object in a triangular pass: every pair goes through
the full product loop of ``accumulate_product``.  ``triangular_products``
writes the square pass out as a stream of (key, coefficient) summands for
``accumulate_terms``, so its dict order is the sum rule's by definition.
Both also tell whether some running sum reached 0.  ``integral_parts`` is
``poly._integral_parts`` as it was before ``exact.integer_parts`` scaled
parts to integers for the whole package: it takes (re, im) pairs and hands
back an all-int list as it is.  These functions are not part of the
package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, takewhile
from math import lcm
from operator import add

from morphlift.exact import (
    DimensionMismatch,
    GaussianRational,
    conjugate,
    imag_part,
    make_scalar_like,
    real_part,
    render_scalar,
)
from morphlift.poly import (
    MultiPoly,
    _check_ring_shape,
    _field_width,
    _nonzero_fields,
    accumulate_terms,
    default_names,
)


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
    accumulator that deletes a term as soon as its running sum is 0.  A
    pair of one dict is squared: term a times itself, then twice term a
    times each term after it, row by row."""
    accumulator: dict = {}
    for left, right in pairs:
        if left is right:
            items = list(left.items())
            products = ((ea, eb, ca * cb if a == b else 2 * ca * cb)
                        for a, (ea, ca) in enumerate(items)
                        for b, (eb, cb) in enumerate(items[a:], a))
        else:
            products = ((ea, eb, ca * cb) for ea, ca in left.items()
                        for eb, cb in right.items())
        for ea, eb, product in products:
            key = tuple(map(add, ea, eb))
            c = accumulator.get(key, 0) + product
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


def _summed_products(pairs, summands) -> tuple[MultiPoly, bool]:
    """The ``summands(p, q, width)`` of every pair summed into one packed
    store under ``accumulate_terms``, at the width ``_sum_of_products``
    takes, and whether some running sum reached 0 on the way."""
    bound = max(p._bound + q._bound for p, q in pairs)
    width = max(_field_width(bound), *(max(p._width, q._width) for p, q in pairs))
    store: dict = {}
    cancelled = False
    for p, q in pairs:
        for key, coeff in summands(p, q, width):
            # a nonzero summand leaves its key absent only by a sum of 0
            accumulate_terms(store, [(key, coeff)])
            cancelled = cancelled or key not in store
    p = pairs[0][0]
    return MultiPoly._make(p.num_vars, p.num_complex, store, width,
                           bound), cancelled


def _full_products(p, q, width):
    q_items = q._at(width).items()
    return ((kp + kq, cp * cq) for kp, cp in p._at(width).items()
            for kq, cq in q_items)


def _triangular_products(p, q, width):
    if p is not q:
        return _full_products(p, q, width)
    items = list(p._at(width).items())
    return ((ka + kb, ca * cb if a == b else 2 * ca * cb)
            for a, (ka, ca) in enumerate(items)
            for b, (kb, cb) in enumerate(items) if b >= a)


def product_loop(pairs) -> tuple[MultiPoly, bool]:
    """The sum of p*q over the pairs of ``MultiPoly``, each pair of terms
    of each pair in turn, row by row, as a square was formed before it took
    its own pass; and whether some running sum reached 0."""
    return _summed_products(pairs, _full_products)


def triangular_products(pairs) -> tuple[MultiPoly, bool]:
    """The same sum with each pair (p, p) of one object squared in one
    triangular pass: row a gives c_a^2 at k_a + k_a, then 2*c_a*c_b at
    k_a + k_b for each b after a; and whether some running sum reached
    0."""
    return _summed_products(pairs, _triangular_products)


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
    result = MultiPoly(ring[0], {}, ring[1])
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


def squared_power(a: MultiPoly, exponent: int) -> MultiPoly:
    result = MultiPoly.constant(a.num_vars, 1, a.num_complex)
    base = a
    k = exponent
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def fibered_render(p: MultiPoly, names) -> tuple[str, list[str]]:
    base_names = names[:p.num_vars // 2]
    return (packed_render(p, names),
            [packed_render(entry, base_names)
             for entry in packed_fiber_coefficients(p)])


def packed_combine(a: MultiPoly, b, op) -> MultiPoly:
    """a op b, for op in {add, sub}, applied term by term.  A term that
    cancels is deleted at once; each key of ``b`` is visited only once, so
    none comes back and the order is a's, then b's new terms."""
    if isinstance(b, (int, Fraction, GaussianRational)):
        b = MultiPoly.constant(a.num_vars, b, a.num_complex)
    a._check_ring(b)
    width = max(a._width, b._width)
    terms = dict(a._at(width))
    get = terms.get
    for key, coeff in b._at(width).items():
        c = op(get(key, 0), coeff)
        if c:
            terms[key] = c
        else:
            del terms[key]
    return MultiPoly._make(a.num_vars, a.num_complex, terms, width,
                           max(a._bound, b._bound))


def packed_laplacian(p: MultiPoly) -> MultiPoly:
    """The sum of the second partials, its buckets summed j-major by hand."""
    bits = 8 * p._width
    twos = [2 << (bits * j) for j in range(p.num_vars)]
    high = ((1 << bits) - 2) * sum(twos) // 2
    squared = {key: c for key, c in p._terms.items() if key & high}
    buckets = [[] for _ in twos]
    decoded = _nonzero_fields(squared, p.num_vars, p._width)
    for (key, coeff), (exponents, variables) in zip(squared.items(), decoded):
        for j in variables:
            e = exponents[j]
            if e > 1:
                buckets[j].append((key - twos[j], e * (e - 1) * coeff))
    terms = {}
    get = terms.get
    for bucket in buckets:
        for key, c in bucket:
            c = get(key, 0) + c
            if c:
                terms[key] = c
            else:
                del terms[key]
    return p._with(terms)


def store_compose(q: MultiPoly, values: list) -> MultiPoly:
    """``MultiPoly.compose`` with its expanded monomials summed into one
    store by hand, at the widest width any of them takes."""
    if len(values) != q.num_vars:
        raise DimensionMismatch(
            f"need {q.num_vars} substitution values, got {len(values)}")
    if not values:
        return q
    ring = (values[0].num_vars, values[0].num_complex)
    terms = q.terms
    bound = max((sum(e * v._bound for e, v in zip(exponents, values))
                 for exponents in terms), default=0)
    width = max(_field_width(bound), *(v._width for v in values))
    result = {}
    get = result.get
    power_cache: dict = {}
    for exponents, coeff in terms.items():
        term = MultiPoly.constant(ring[0], coeff, ring[1])
        for j, e in enumerate(exponents):
            if e:
                if (j, e) not in power_cache:
                    power_cache[j, e] = values[j] ** e
                term = term * power_cache[j, e]
        for key, c in term._at(width).items():
            c = get(key, 0) + c
            if c:
                result[key] = c
            else:
                del result[key]
    return MultiPoly._make(*ring, result, width, bound)


def packed_remap(p: MultiPoly, num_vars: int, index_map: dict,
                 num_complex: int = 0) -> MultiPoly:
    """Embed into a larger ring, sending old variable j to index_map[j]."""
    _check_ring_shape(num_vars, num_complex)
    bits = 8 * p._width
    mask = (1 << bits) - 1
    moves = [(bits * j, bits * index_map[j]) for j in range(p.num_vars)]
    terms = {}
    for key, coeff in p._terms.items():
        moved = 0
        for old, new in moves:
            moved |= ((key >> old) & mask) << new
        terms[moved] = coeff
    return MultiPoly._make(num_vars, num_complex, terms, p._width, p._bound)


def packed_fiber_coefficients(p: MultiPoly) -> list:
    """M_1..M_m with p = sum_j M_j(x) * y_j, for a polynomial of a real ring
    on x_1..x_m, y_1..y_m that is linear in y.  Raises ValueError on a term
    of fiber degree other than 1."""
    m, odd = divmod(p.num_vars, 2)
    if odd or p.num_complex:
        raise DimensionMismatch("fiber coefficients need a real ring on "
                                "an even number of variables")
    bits = 8 * p._width
    half = bits * m
    low = (1 << half) - 1
    entries: list[dict] = [{} for _ in range(m)]
    for key, coeff in p._terms.items():
        fiber = key >> half
        j, offset = divmod(fiber.bit_length() - 1, bits)
        if offset or fiber != 1 << (bits * j):
            raise ValueError("a term's fiber degree is not 1")
        entries[j][key & low] = coeff
    return [MultiPoly._make(m, 0, terms, p._width, p._bound)
            for terms in entries]


def field_scan_complete_lift(p: MultiPoly) -> MultiPoly:
    m = p.num_complex or p.num_vars
    bound = p._bound + 1
    width = max(_field_width(bound), p._width)
    bits = 8 * width
    mask = (1 << bits) - 1
    items = p._at(width).items()
    if p.num_complex:
        half = bits * m
        low = (1 << half) - 1
        items = [((key & low) | (key >> half << 2 * half), coeff)
                 for key, coeff in items]
    terms = {}
    for shift in range(0, bits * m, bits):
        step = (1 << (shift + bits * m)) - (1 << shift)   # v_j -> w_j
        for key, coeff in items:
            e = (key >> shift) & mask
            if e:
                terms[key + step] = e * coeff
    if not terms:
        width, bound = 1, 0
    return MultiPoly._make(2 * p.num_vars, 2 * p.num_complex, terms,
                           width, bound)


def integral_parts(parts: list) -> tuple[list, int]:
    """``parts``, a list of (re, im) of rationals, times the lcm D of their
    denominators, as ints; and D."""
    values = list(chain.from_iterable(parts))
    if set(map(type, values)) <= {int}:
        return parts, 1
    scale = lcm(*(value.denominator for value in values))
    return [((re * scale).numerator if type(re) is Fraction else re * scale,
             (im * scale).numerator if type(im) is Fraction else im * scale)
            for re, im in parts], scale
