"""Exact multivariate polynomials over rationals or Gaussian rationals.

A polynomial maps monomials to nonzero coefficients.  :attr:`MultiPoly.terms`
shows them keyed by exponent tuples:

    x1^2*x2 + 3  ->  {(2, 1): 1, (0, 0): 3}     (num_vars=2)

The store behind that read-only view keys each monomial by one packed ``int``
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), with a little-endian field of ``width``
bytes per variable.  Multiplying monomials is one integer addition, a partial
derivative subtracts one unit from a field, and conjugation swaps the key's
halves.  A polynomial keeps an upper bound on its exponents beside its width.
A result takes its operands' widest width and widens only when a product's
bound outgrows it, so no field carries into the next.  Equality and hashing
do not depend on the width, and no other module sees a packed key.

Complex polynomial rings carry formal conjugate variables: a ring with
``num_complex = k`` has ``num_vars = 2k`` where variable ``j < k`` is the
holomorphic variable z_{j+1} and variable ``k + j`` is its conjugate partner
zb_{j+1}.  Formal (Wirtinger) partials treat all 2k variables as independent,
so :meth:`MultiPoly.partial` is the same operation for real and complex kinds.

Every sum follows one rule: a term whose running sum reaches 0 is deleted
from the store at once, and if a later summand brings it back it goes last.
:func:`accumulate_terms` is where the rule is written; sums, differences,
the Laplacian, substitution and the front end's lowering all go through
it.  Three inner loops have it inlined: :func:`accumulate_product` and
:func:`_accumulate_square`, which run once per pair of terms, and
:func:`_expand_pairs`, the pairwise substitution kernel of :func:`real_parts`
and :func:`from_real_parts`, which sums (re, im) pairs of ints.
No zero ever sits in a store while it accumulates, so a product whose
terms mostly cancel holds only the terms still alive.  Values, coefficient
types and rendered text do not depend on the rule; the dict order of a term
that cancels and comes back does.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from fractions import Fraction
from itertools import chain, compress, repeat, takewhile

from .exact import (
    DimensionMismatch,
    GaussianRational,
    IntegerTooLong,
    Scalar,
    _parts,
    conjugate,
    integer_parts,
    make_scalar,
    make_scalar_like,
    render_scalar,
)


class ConsistencyError(ValueError):
    """A complex evaluation point assigns zb a value other than conj(z)."""


_set = object.__setattr__


def _field_width(bound: int) -> int:
    """Bytes per exponent field that hold every exponent up to ``bound``."""
    return max(1, (bound.bit_length() + 7) // 8)


def _encode(exponent_tuples, width: int):
    """Exponent tuples -> keys with ``width``-byte little-endian fields."""
    if width == 1:
        raw = map(bytes, exponent_tuples)
    else:
        raw = (b"".join(x.to_bytes(width, "little") for x in e)
               for e in exponent_tuples)
    return map(int.from_bytes, raw, repeat("little"))


def _from_tuples(terms: dict, num_vars: int) -> tuple[dict, int, int]:
    """The packed terms, width and exponent bound of a dict keyed by tuples."""
    bound = max(map(max, terms), default=0) if num_vars else 0
    width = _field_width(bound)
    return dict(zip(_encode(terms, width), terms.values())), width, bound


def _canonicalize(terms: dict) -> dict:
    """Drop zero coefficients and demote integral Fractions, in place.  A
    Fraction is read by its denominator, not its truth, so a non-integral
    one costs no ``Fraction.__bool__`` call.  A store of ``int``s with no
    zero, found by C-level scans, has nothing to change."""
    values = terms.values()
    if set(map(type, values)) <= {int} and 0 not in values:
        return terms
    for key in [k for k, c in terms.items()
                if (c.denominator == 1 if type(c) is Fraction else not c)]:
        coeff = terms[key]
        if type(coeff) is Fraction:
            coeff = coeff.numerator
        if coeff:
            terms[key] = coeff
        else:
            del terms[key]
    return terms


def _nonzero_fields(keys, num_vars: int, width: int):
    """For each packed key in turn, (exponents, variables): the variables
    whose field is nonzero, in increasing order, and a table in which
    ``exponents[j]`` is the exponent of each.  One-byte fields are the
    key's bytes, which compress() sifts; wider fields are found lowest
    first by the key's lowest set bit."""
    if width == 1:
        raws = list(map(int.to_bytes, keys, repeat(num_vars),
                        repeat("little")))
        return zip(raws, map(compress, repeat(range(num_vars)), raws))
    return map(_wide_fields, keys, repeat(8 * width))


def _wide_fields(key: int, bits: int):
    mask = (1 << bits) - 1
    fields = {}
    while key:
        j = ((key & -key).bit_length() - 1) // bits
        e = fields[j] = (key >> (bits * j)) & mask
        key -= e << (bits * j)
    return fields, fields


def accumulate_terms(store: dict, items) -> dict:
    """Add each (key, coefficient) of ``items`` into ``store``, in order, and
    return ``store``: an absent key takes the coefficient as it is, a present
    one the sum, and a sum of 0 deletes the key.  A 0 summand at an absent
    key leaves nothing."""
    get = store.get
    for key, coeff in items:
        total = get(key)
        total = coeff if total is None else total + coeff
        if total:
            store[key] = total
        else:
            store.pop(key, None)
    return store


def _check_ring_shape(num_vars: int, num_complex: int) -> None:
    if num_complex and num_vars != 2 * num_complex:
        raise DimensionMismatch(
            f"complex ring with {num_complex} pairs needs {2 * num_complex} "
            f"variables, got {num_vars}")


class _TermItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class _TermView(Mapping):
    """A polynomial's terms keyed by exponent tuples, read-only.  It stores
    nothing: keys are unpacked as they are read, and ``len`` and ``values``
    read the packed store as it is."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self):
        return len(self._poly._terms)

    def __iter__(self):
        width = self._poly._width
        size = self._poly.num_vars * width
        raw = map(int.to_bytes, self._poly._terms, repeat(size), repeat("little"))
        if width == 1:
            return map(tuple, raw)
        return (tuple(int.from_bytes(b[i:i + width], "little")
                      for i in range(0, size, width)) for b in raw)

    def __getitem__(self, exponents):
        poly = self._poly
        if (not isinstance(exponents, tuple) or len(exponents) != poly.num_vars
                or not all(isinstance(e, int) and e >= 0 for e in exponents)
                or max(exponents, default=0) >> (8 * poly._width)):
            raise KeyError(exponents)
        (key,) = _encode((exponents,), poly._width)
        return poly._terms[key]

    def values(self):
        return self._poly._terms.values()

    def items(self):
        return _TermItems(self)


class MultiPoly:
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("num_vars", "num_complex", "_terms", "_width", "_bound")

    def __init__(self, num_vars: int, terms: dict, num_complex: int = 0):
        _check_ring_shape(num_vars, num_complex)
        clean = {}
        for exponents, coeff in terms.items():
            if len(exponents) != num_vars:
                raise DimensionMismatch(
                    f"exponent tuple {exponents} has length {len(exponents)}, "
                    f"expected {num_vars}")
            value = make_scalar_like(coeff)
            if value != 0:
                clean[tuple(exponents)] = value
        self._fill(num_vars, num_complex, *_from_tuples(clean, num_vars))

    def _fill(self, num_vars: int, num_complex: int, terms: dict, width: int,
              bound: int) -> None:
        _set(self, "num_vars", num_vars)
        _set(self, "num_complex", num_complex)
        _set(self, "_terms", terms)
        _set(self, "_width", width)
        _set(self, "_bound", bound)

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict, num_complex: int = 0) -> "MultiPoly":
        """Internal constructor from exponent tuples, for coefficients that
        exact arithmetic made from canonical scalars, under keys of the right
        length.  It only drops zeros and demotes integral Fractions."""
        return cls._make(num_vars, num_complex, *_from_tuples(terms, num_vars))

    @classmethod
    def _make(cls, num_vars: int, num_complex: int, terms: dict, width: int,
              bound: int) -> "MultiPoly":
        """Internal constructor from packed keys; it takes ownership of
        ``terms``, drops zeros and demotes integral Fractions."""
        poly = object.__new__(cls)
        poly._fill(num_vars, num_complex, _canonicalize(terms), width, bound)
        return poly

    def _with(self, terms: dict) -> "MultiPoly":
        """This ring, width and bound, with the packed ``terms``."""
        return MultiPoly._make(self.num_vars, self.num_complex, terms,
                               self._width, self._bound)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping:
        """The terms keyed by exponent tuples, as a read-only view."""
        return _TermView(self)

    def _at(self, width: int) -> dict:
        """The packed terms at ``width``, which must hold the bound."""
        if width == self._width:
            return self._terms
        return dict(zip(_encode(self.terms, width), self._terms.values()))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Scalar, num_complex: int = 0) -> "MultiPoly":
        _check_ring_shape(num_vars, num_complex)
        return cls._make(num_vars, num_complex, {0: make_scalar_like(value)}, 1, 0)

    @classmethod
    def variable(cls, num_vars: int, index: int, num_complex: int = 0) -> "MultiPoly":
        if not 0 <= index < num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        _check_ring_shape(num_vars, num_complex)
        return cls._make(num_vars, num_complex, {1 << 8 * index: 1}, 1, 1)

    # -- basic protocol --------------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if (self.num_vars, self.num_complex) != (other.num_vars, other.num_complex):
            raise DimensionMismatch(
                f"ring mismatch: ({self.num_vars},{self.num_complex}) vs "
                f"({other.num_vars},{other.num_complex})")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        width = max(self._width, other._width)
        return ((self.num_vars, self.num_complex) == (other.num_vars, other.num_complex)
                and self._at(width) == other._at(width))

    def __hash__(self):
        return hash((self.num_vars, self.num_complex,
                     frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self):
        return f"MultiPoly({render(self)!r})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        """The terms of self, then other's new ones; each key of ``other``
        is visited once, so none that cancels comes back."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(self.num_vars, other, self.num_complex)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        width = max(self._width, other._width)
        terms = accumulate_terms(dict(self._at(width)), other._at(width).items())
        return MultiPoly._make(self.num_vars, self.num_complex, terms, width,
                               max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return self._with({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    def scale(self, factor: Scalar) -> "MultiPoly":
        factor = make_scalar_like(factor)
        return self._with({k: factor * c for k, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take natural exponents")
        if len(self._terms) == 1:
            # (c*x^a)^n = c^n * x^(n*a): at a width that holds n times the
            # bound, n times the key multiplies each field with no carry
            bound = self._bound * exponent
            width = max(_field_width(bound), self._width)
            ((key, coeff),) = self._at(width).items()
            return MultiPoly._make(self.num_vars, self.num_complex,
                                   {key * exponent: coeff ** exponent},
                                   width, bound)
        result = MultiPoly.constant(self.num_vars, 1, self.num_complex)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------------

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative in variable ``index`` (Wirtinger for
        complex-kind variables: z and zb differentiate independently)."""
        if not 0 <= index < self.num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        shift = 8 * self._width * index
        mask = (1 << (8 * self._width)) - 1
        unit = 1 << shift
        terms = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & mask
            if e:
                terms[key - unit] = e * coeff
        return self._with(terms)

    def partials(self) -> dict[int, "MultiPoly"]:
        """``{j: self.partial(j)}`` for the nonzero partials only, in
        increasing j, from one pass over the terms: a term c*v^e puts e_j*c
        at the key of v^e / v_j into partial j for each variable v_j it
        contains, in term order."""
        units = [1 << (8 * self._width * j) for j in range(self.num_vars)]
        parts = [{} for _ in units]
        decoded = _nonzero_fields(self._terms, self.num_vars, self._width)
        for (key, coeff), (exponents, variables) in zip(self._terms.items(),
                                                        decoded):
            for j in variables:
                parts[j][key - units[j]] = exponents[j] * coeff
        return {j: self._with(terms) for j, terms in enumerate(parts) if terms}

    def laplacian(self) -> "MultiPoly":
        """The sum of the second partials by each variable in turn, from one
        pass over the terms.  A term c*v^e with e_j > 1 puts e_j(e_j - 1)*c
        at the key of v^e / v_j^2 into bucket j, in term order, and the
        buckets are summed j-major into one store under the module's rule,
        as adding the second partials one after another would.  Only the
        terms with an exponent above 1 are decoded: their keys meet the
        bits above each field's lowest."""
        bits = 8 * self._width
        twos = [2 << (bits * j) for j in range(self.num_vars)]
        high = ((1 << bits) - 2) * sum(twos) // 2
        squared = {key: c for key, c in self._terms.items() if key & high}
        buckets = [[] for _ in twos]
        decoded = _nonzero_fields(squared, self.num_vars, self._width)
        for (key, coeff), (exponents, variables) in zip(squared.items(),
                                                        decoded):
            for j in variables:
                e = exponents[j]
                if e > 1:
                    buckets[j].append((key - twos[j], e * (e - 1) * coeff))
        return self._with(accumulate_terms({}, chain.from_iterable(buckets)))

    def complete_lift(self) -> "MultiPoly":
        """sum_j (d self / d v_j) * w_j over the base variables v_1..v_m,
        which are all the variables of a real ring and z_1..z_m of a complex
        one.  The result lives in the ring with each block twice as wide: old
        variable j keeps its offset in its block (zb_j moves from m + j to
        2m + j), and w_j sits at m + j.

        No two (term, j) pairs meet, so there is nothing to accumulate: each
        term c*v^e with e_j > 0 becomes e_j*c at the key of v^e / v_j * w_j,
        j-major and then in term order.  Only the nonzero fields are read:
        each term is decoded once, and its pieces go into a bucket per j; a
        coefficient with e_j = 1 is kept as it is.  The width grows as a
        product's does when the bound, one more than this one, outgrows
        it."""
        m = self.num_complex or self.num_vars
        bound = self._bound + 1
        width = max(_field_width(bound), self._width)
        bits = 8 * width
        packed = self._at(width)
        base = lifted = packed          # base: the fields of v_1..v_m
        if self.num_complex:
            half = bits * m
            low = (1 << half) - 1
            base = [key & low for key in packed]
            lifted = [z | (key >> half << 2 * half)
                      for z, key in zip(base, packed)]
        # v_j -> w_j adds (1 << bits*(m + j)) - (1 << bits*j) = block << bits*j
        block = (1 << bits * m) - 1
        buckets = [[] for _ in range(m)]
        decoded = _nonzero_fields(base, m, width)
        for key, coeff, (exponents, variables) in zip(lifted, packed.values(),
                                                      decoded):
            for j in variables:
                e = exponents[j]
                buckets[j].append((key + (block << bits * j),
                                   coeff if e == 1 else coeff * e))
        terms = dict(chain.from_iterable(buckets))
        if not terms:
            width, bound = 1, 0
        return MultiPoly._make(2 * self.num_vars, 2 * self.num_complex, terms,
                               width, bound)

    def conjugate_poly(self) -> "MultiPoly":
        """Swap each z_k with zb_k and conjugate every coefficient."""
        if self.num_complex == 0:
            raise DimensionMismatch("conjugate_poly needs complex variable kinds")
        half = 8 * self._width * self.num_complex
        low = (1 << half) - 1
        return self._with({((key & low) << half) | (key >> half): conjugate(c)
                           for key, c in self._terms.items()})

    # -- evaluation / substitution -------------------------------------------------

    def evaluate(self, point) -> Scalar:
        """Exact evaluation, the sum of c * prod point[j] ** e over the
        terms.  For complex rings the point must be conjugation-consistent:
        value(zb_k) == conj(value(z_k))."""
        if len(point) != self.num_vars:
            raise DimensionMismatch(
                f"point length {len(point)} != arity {self.num_vars}")
        if self.num_complex:
            k = self.num_complex
            for j in range(k):
                if point[k + j] != conjugate(point[j]):
                    raise ConsistencyError(
                        f"value for zb{j + 1} is not the conjugate of z{j + 1}")
        total: Scalar = 0
        decoded = _nonzero_fields(self._terms, self.num_vars, self._width)
        for (exponents, variables), coeff in zip(decoded, self._terms.values()):
            for j in variables:
                coeff = coeff * point[j] ** exponents[j]
            total = total + coeff
        return make_scalar_like(total) if not isinstance(total, int) else total

    def compose(self, values: list["MultiPoly"]) -> "MultiPoly":
        """Substitute values[j] for variable j, for every variable at once.

        The expanded monomials are summed into one store, at the widest
        width any of them takes, under the module's rule: a term that
        cancels is dropped at once, and if it comes back it goes last."""
        if len(values) != self.num_vars:
            raise DimensionMismatch(
                f"need {self.num_vars} substitution values, got {len(values)}")
        if not values:
            return self
        ring = (values[0].num_vars, values[0].num_complex)
        for q in values:
            if (q.num_vars, q.num_complex) != ring:
                raise DimensionMismatch("substitution values live in mixed rings")
        terms = self.terms
        bound = max((sum(e * q._bound for e, q in zip(exponents, values))
                     for exponents in terms), default=0)
        width = max(_field_width(bound), *(q._width for q in values))
        result = {}
        power_cache: dict[tuple[int, int], MultiPoly] = {}
        for exponents, coeff in terms.items():
            term = MultiPoly.constant(ring[0], coeff, ring[1])
            for j, e in enumerate(exponents):
                if e:
                    if (j, e) not in power_cache:
                        power_cache[j, e] = values[j] ** e
                    term = term * power_cache[j, e]
            accumulate_terms(result, term._at(width).items())
        return MultiPoly._make(*ring, result, width, bound)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def accumulate_product(accumulator: dict, p: MultiPoly, q: MultiPoly, *,
                       width: int) -> None:
    """accumulator += p*q over packed keys with ``width``-byte fields (hot
    path for Gram matrices and polynomial matrix products).  The caller picks
    a width that holds every exponent sum, the same for every product that
    goes into one accumulator.

    A key whose running sum reaches 0 is deleted at once, so the accumulator
    never holds a zero and its size stays that of the terms still alive.
    No product ``cp*cq`` of two nonzero coefficients is 0, so a sum reaches
    0 only at a key that is present."""
    if (p._bound + q._bound) >> (8 * width):
        raise OverflowError(f"exponent sums of p*q overflow {width}-byte fields")
    get = accumulator.get
    q_items = q._at(width).items()
    # accumulate_terms inlined: a helper call per term pair costs too much here
    for kp, cp in p._at(width).items():
        for kq, cq in q_items:
            key = kp + kq
            c = get(key, 0) + cp * cq
            if c:
                accumulator[key] = c
            else:
                del accumulator[key]


def poly_dot(left: list[MultiPoly], right: list[MultiPoly]) -> MultiPoly:
    """Exact sum of products sum_j left[j]*right[j] with one accumulator."""
    if len(left) != len(right):
        raise DimensionMismatch("poly_dot length mismatch")
    if not left:
        raise DimensionMismatch("poly_dot of empty vectors")
    return _sum_of_products(list(zip(left, right)))


def _accumulate_square(accumulator: dict, p: MultiPoly, *, width: int) -> None:
    """accumulator += p*p, with the values and types of
    :func:`accumulate_product`, from n(n+1)/2 products of p's n terms
    c_a*x^k_a: row a puts c_a^2 at 2*k_a, then 2*c_a*c_b at k_a + k_b for
    each b after a.  A key first appears at the same pair a <= b as there,
    so only a key that cancels and comes back can land elsewhere."""
    if (2 * p._bound) >> (8 * width):
        raise OverflowError(f"exponent sums of p*p overflow {width}-byte fields")
    get = accumulator.get
    items = list(p._at(width).items())
    for a, (ka, ca) in enumerate(items, 1):
        key = ka + ka
        c = get(key, 0) + ca * ca
        if c:
            accumulator[key] = c
        else:
            del accumulator[key]
        twice = ca + ca
        for kb, cb in items[a:]:
            key = ka + kb
            c = get(key, 0) + twice * cb
            if c:
                accumulator[key] = c
            else:
                del accumulator[key]


def _sum_of_products(pairs: list) -> MultiPoly:
    """The sum of p*q over the pairs, in one accumulator at the widest
    operand width, or wider once the bound on the exponent sums outgrows it.
    A pair of one object (p, p) goes through :func:`_accumulate_square`."""
    bound = max(p._bound + q._bound for p, q in pairs)
    width = max(_field_width(bound), *(max(p._width, q._width) for p, q in pairs))
    accumulator: dict = {}
    for p, q in pairs:
        if p is q:
            _accumulate_square(accumulator, p, width=width)
        else:
            accumulate_product(accumulator, p, q, width=width)
    p = pairs[0][0]
    return MultiPoly._make(p.num_vars, p.num_complex, accumulator, width, bound)


def grouped_terms(polys: list) -> list:
    """For each distinct monomial of ``polys``, which share a ring, in order
    of first appearance: its nonzero (variable, exponent) pairs, decoded
    once, and its (index of the polynomial, coefficient) uses in order.
    All are read at the widest width, so equal monomials meet in one key."""
    width = max((p._width for p in polys), default=1)
    groups: dict = {}
    for slot, p in enumerate(polys):
        for key, coeff in p._at(width).items():
            groups.setdefault(key, []).append((slot, coeff))
    decoded = _nonzero_fields(groups, polys[0].num_vars, width) if polys else ()
    return [([(j, exponents[j]) for j in variables], uses)
            for (exponents, variables), uses in zip(decoded, groups.values())]


# ---------------------------------------------------------------------------
# Pairwise substitution: real identification and complexification
# ---------------------------------------------------------------------------

def _pair_row(a: int, b: int) -> list[int]:
    """The coefficients c_0 .. c_{a+b} of f = (1 + t)^a (1 - t)^b.  From
    (1 - t^2) f' = (a - b - (a + b) t) f comes the recurrence
    (j + 1) c_{j+1} = (a - b) c_j - (a + b - j + 1) c_{j-1}, whose
    division is exact."""
    n, d = a + b, a - b
    row = [1]
    previous = 0
    for j in range(n):
        current = row[-1]
        row.append((d * current - (n - j + 1) * previous) // (j + 1))
        previous = current
    return row


class _PairRows(dict):
    """``(k, a, b)`` -> the expansion of pair k's factor of degree (a, b),
    made on first use: (key, r, odd) for each nonzero c_j of
    :func:`_pair_row` in increasing j, meaning r * i^odd times the monomial
    ``key``, whose field ``low`` holds a + b - j and field ``high`` holds j.
    The power of i is ``turn(j, b)``; its factor -1 is folded into r, so
    odd is 0 or 1."""

    __slots__ = ("fields", "turn", "bits", "coefficients")

    def __init__(self, fields, turn, bits: int):
        self.fields = fields            # k -> (low, high) variable indices
        self.turn = turn
        self.bits = bits
        self.coefficients = {}          # (a, b) -> _pair_row(a, b)

    def __missing__(self, pair):
        k, a, b = pair
        coefficients = self.coefficients.get((a, b))
        if coefficients is None:
            coefficients = self.coefficients[a, b] = _pair_row(a, b)
        low, high = (self.bits * f for f in self.fields(k))
        n = a + b
        row = self[pair] = []
        for j, c in enumerate(coefficients):
            if c:
                power = self.turn(j, b) % 4
                row.append(((n - j) << low | j << high,
                            -c if power & 2 else c, power & 1))
        return row


def _pair_terms(keys, num_vars: int, width: int, slots, re: list, im: list
                ) -> tuple[list, int]:
    """For each packed key in turn, with its parts from ``re`` and ``im``, the
    term's pairs as (k, a, b) by increasing k and its parts, decoded once;
    and the largest degree a + b of a pair.  Variable j is the first (side
    0) or the second (side 1) member of pair k, where ``slots[j] = 2k +
    side``."""
    terms = []
    bound = 0
    decoded = _nonzero_fields(keys, num_vars, width)
    for (exponents, variables), x, y in zip(decoded, re, im):
        fields = {slots[j]: exponents[j] for j in variables}
        pairs = [(k, fields.get(2 * k, 0), fields.get(2 * k + 1, 0))
                 for k in sorted({slot >> 1 for slot in fields})]
        for _, a, b in pairs:
            if a + b > bound:
                bound = a + b
        terms.append((pairs, x, y))
    return terms, bound


def _expand_pairs(terms: list, rows: _PairRows) -> dict:
    """The sum over ``terms`` of (re + i*im) times the product of the rows
    of the term's pairs, as packed key -> (real part, imaginary part).

    The pairs of a term act on disjoint fields, so a term expands to the
    Cartesian product of its rows with no two keys alike: pairs by
    increasing k, each row in increasing j, the last pair varying fastest.
    The coefficient is turned and scaled once per entry of the product of
    the rows before the last, and the last row is read inline.  The
    expansions go into one store in term order under the module's rule,
    read on (re, im): a key is deleted once both parts are 0."""
    store: dict = {}
    get = store.get
    for pairs, re, im in terms:
        prefix = _CONSTANT
        for pair in pairs[:-1]:
            # r*i^odd * s*i^t with odd = t = 1 is -r*s
            prefix = [(key + step, -r * s if odd & t else r * s, odd ^ t)
                      for key, r, odd in prefix for step, s, t in rows[pair]]
        last = rows[pairs[-1]] if pairs else _CONSTANT
        for base, r, odd in prefix:
            cr, ci = (-r * im, r * re) if odd else (r * re, r * im)
            # accumulate_terms inlined, on (re, im) pairs
            for step, s, t in last:
                key = base + step
                if t:
                    x, y = -s * ci, s * cr
                else:
                    x, y = s * cr, s * ci
                old = get(key)
                if old is not None:
                    x += old[0]
                    y += old[1]
                    if not (x or y):
                        del store[key]
                        continue
                store[key] = (x, y)
    return store


_CONSTANT = ((0, 1, 0),)    # the expansion of no pair: the monomial 1


def _quotient(x: int, d: int):
    return x if d == 1 else Fraction(x, d)


def real_parts(p: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The real and the imaginary part of ``p``, in a ring of m complex
    pairs, under z_k = x_{2k-1} + i*x_{2k} and zb_k = x_{2k-1} - i*x_{2k}:
    two polynomials in the 2m real variables.

    Each pair's factor z^a zb^b is (x + iy)^a (x - iy)^b, which is
    sum_j c_j i^j x^(a+b-j) y^j with c_j the coefficients of (1 + t)^a
    (1 - t)^b.  Coefficients are carried as integer (re, im) parts over
    one denominator (:func:`~morphlift.exact.integer_parts`), and one
    scalar is made per output term.
    The terms come in the order of :func:`_expand_pairs`: p's terms in
    order, then pairs by increasing k, then ascending power of y."""
    m = p.num_complex
    if p.num_vars != 2 * m:
        raise DimensionMismatch("real_parts needs a complex ring")
    slots = [2 * j for j in range(m)] + [2 * j + 1 for j in range(m)]
    re, im, scale = integer_parts(*_parts(p._terms.values()))
    terms, bound = _pair_terms(p._terms, p.num_vars, p._width, slots, re, im)
    width = _field_width(bound)
    rows = _PairRows(lambda k: (2 * k, 2 * k + 1), lambda j, b: j, 8 * width)
    store = _expand_pairs(terms, rows)
    if not store:
        width, bound = 1, 0
    re = {key: _quotient(x, scale) for key, (x, _) in store.items() if x}
    im = {key: _quotient(y, scale) for key, (_, y) in store.items() if y}
    return (MultiPoly._make(p.num_vars, 0, re, width, bound),
            MultiPoly._make(p.num_vars, 0, im, width, bound))


def from_real_parts(u: MultiPoly, v: MultiPoly) -> MultiPoly:
    """u + i*v, for ``u`` and ``v`` in the same real ring of 2m variables,
    in the complex ring of m pairs under x_{2k-1} = (z_k + zb_k)/2 and
    x_{2k} = (z_k - zb_k)/(2i): the inverse of :func:`real_parts`.

    The kernel is that of :func:`real_parts`: x^a y^b is (z + zb)^a
    (z - zb)^b / (2^(a+b) i^b), which is sum_j c_j i^-b z^(a+b-j) zb^j /
    2^(a+b).  The input terms are u's, then v's new ones, each with
    coefficient (u's, v's).  A term of total degree n is carried times
    2^(N - n), N the largest total degree, so that every output term has
    the one denominator 2^N; the output terms come in the order of
    :func:`_expand_pairs`, ascending power of zb within a pair."""
    u._check_ring(v)
    m, odd = divmod(u.num_vars, 2)
    if odd or u.num_complex:
        raise DimensionMismatch("from_real_parts needs a real ring on an "
                                "even number of variables")
    width = max(u._width, v._width)
    u_terms, v_terms = u._at(width), v._at(width)
    keys = [*u_terms, *(key for key in v_terms if key not in u_terms)]
    re, im, scale = integer_parts([u_terms.get(key, 0) for key in keys],
                                  [v_terms.get(key, 0) for key in keys])
    terms, bound = _pair_terms(keys, u.num_vars, width, range(u.num_vars),
                               re, im)
    degrees = [sum(a + b for _, a, b in pairs) for pairs, _, _ in terms]
    top = max(degrees, default=0)
    terms = [(pairs, re << top - n, im << top - n)
             for (pairs, re, im), n in zip(terms, degrees)]
    width = _field_width(bound)
    rows = _PairRows(lambda k: (k, m + k), lambda j, b: -b, 8 * width)
    store = _expand_pairs(terms, rows)
    if not store:
        width, bound = 1, 0
    scale <<= top
    terms = {key: make_scalar(_quotient(x, scale), _quotient(y, scale))
             if y else _quotient(x, scale) for key, (x, y) in store.items()}
    return MultiPoly._make(u.num_vars, m, terms, width, bound)


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def default_names(num_vars: int, num_complex: int = 0) -> tuple[str, ...]:
    if num_complex:
        k = num_complex
        return tuple(f"z{j + 1}" for j in range(k)) + tuple(f"zb{j + 1}" for j in range(k))
    return tuple(f"x{j + 1}" for j in range(num_vars))


def lift_names(names: tuple, fiber: str) -> tuple | None:
    """The variable names of a complete lift: the base's m ``names``, then
    ``fiber``1..m; None, for canonical names, when two of them would clash,
    as on lifting a lift."""
    lifted = names + tuple(f"{fiber}{j + 1}" for j in range(len(names)))
    return lifted if len(set(lifted)) == len(lifted) else None


def _graded(p: MultiPoly) -> list:
    """(total degree, exponents, coefficient) for each term of ``p``, in
    graded-lex order, highest first.  With one-byte fields the exponents are
    the key's bytes, which compare as the exponent tuples do (x1 first);
    wider fields give the tuples themselves."""
    if p._width == 1:
        exponents = list(map(int.to_bytes, p._terms, repeat(p.num_vars),
                             repeat("little")))
    else:
        exponents = list(p.terms)
    # (degree, exponents) is unique per term, so no coefficient is compared
    return sorted(zip(map(sum, exponents), exponents, p._terms.values()),
                  reverse=True)


class _PowerText(dict):
    """``(name, e)`` -> the text of the factor name^e, made on first use."""

    __slots__ = ()

    def __missing__(self, factor):
        name, e = factor
        text = self[factor] = name if e == 1 else f"{name}^{e}"
        return text


def _signed_body(coeff: Scalar, factors: str) -> tuple[str, str]:
    """The sign of the term coeff * ``factors`` and the rest of its text:
    the coefficient's magnitude, then ``*`` and the factors, where a
    magnitude of 1 before factors is left out.  A rational coefficient is
    written from its numerator and denominator.  A Gaussian one, whose
    imaginary part is never 0 in a store, is ``i`` or ``N*i`` with N the
    imaginary part's magnitude when its real part is 0, and ``(a+b*i)``
    otherwise."""
    kind = type(coeff)
    if kind is int or kind is Fraction:
        numerator, denominator = coeff.numerator, coeff.denominator
        sign = "-" if numerator < 0 else "+"
        body = str(-numerator if numerator < 0 else numerator)
        if denominator != 1:
            body = f"{body}/{denominator}"
        if factors:
            body = factors if body == "1" else f"{body}*{factors}"
        return sign, body
    if coeff.re:
        sign, body = "+", f"({render_scalar(coeff)})"
    else:
        sign = "-" if coeff.im < 0 else "+"
        magnitude = abs(coeff.im)
        body = "i" if magnitude == 1 else f"{magnitude}*i"
    return sign, f"{body}*{factors}" if factors else body


def _pieces(graded: list, names):
    """The text of each term, given a polynomial's :func:`_graded` terms,
    as `` + term`` or `` - term``.  A term is rendered only when it is
    read."""
    factor_text = _PowerText().__getitem__
    for _, exponents, coeff in graded:
        sign, body = _signed_body(coeff, "*".join(map(
            factor_text, zip(compress(names, exponents),
                             compress(exponents, exponents)))))
        yield f" {sign} {body}"


def _sum_text(pieces: list) -> str:
    """The text of a sum from its pieces, each `` + term`` or `` - term``,
    in order: the first loses its joint but keeps a minus.  ``0`` for none."""
    if not pieces:
        return "0"
    first = pieces[0]
    pieces[0] = first[3:] if first[1] == "+" else f"-{first[3:]}"
    return "".join(pieces)


def _check_names(p: MultiPoly, names) -> None:
    if len(names) < p.num_vars:
        raise DimensionMismatch(
            f"{len(names)} names for {p.num_vars} variables")


def render(p: MultiPoly, names=None) -> str:
    """Canonical text form: graded-lex order, explicit ``*`` and ``^``.
    Raises DimensionMismatch when ``names`` has fewer names than ``p``
    has variables."""
    if names is None:
        names = default_names(p.num_vars, p.num_complex)
    _check_names(p, names)
    try:
        return _sum_text(list(_pieces(_graded(p), names)))
    except ValueError as error:
        raise IntegerTooLong() from error


def render_leading(p: MultiPoly) -> tuple[int, str]:
    """The total degree of ``p``, read from its leading term, and
    ``render(p).split(' + ')[0]``, rendering no term past it: the leading
    term and the run of terms after it that join with `` - ``.  No rendered
    term contains a space, so the split falls only between terms."""
    if not p:
        return 0, "0"
    graded = _graded(p)
    pieces = _pieces(graded, default_names(p.num_vars, p.num_complex))
    return graded[0][0], _sum_text([next(pieces), *takewhile(
        lambda piece: piece[1] == "-", pieces)])


def render_fibered(p: MultiPoly, names) -> tuple[str, list[str]]:
    """``render(p, names)`` and the text of each fiber coefficient M_j of
    ``p = sum_j M_j(x) * y_j`` in ``names[:m]``, from one sort of p's terms.

    Each term c*x^a*y_j is written once as M_j's piece, and p's piece
    appends ``*y_j`` to it.  M_j's terms come in p's graded order, which is
    M_j's own: for a fixed j, (|a| + 1, a, e_j) and (|a|, a) sort alike.
    Raises ValueError on a term of fiber degree other than 1, and
    IntegerTooLong and DimensionMismatch where render does."""
    m, odd = divmod(p.num_vars, 2)
    if odd or p.num_complex:
        raise DimensionMismatch("fiber coefficients need a real ring on "
                                "an even number of variables")
    _check_names(p, names)
    x_names, fiber_names = names[:m], names[m:]
    factor_text = _PowerText().__getitem__
    units: dict = {}        # the fiber exponents of y_j -> j, as they are met
    # p's pieces are joined 64 at a time, so that few are alive at once
    pieces: list[str] = []
    chunks: list[str] = []
    entries: list[list[str]] = [[] for _ in range(m)]
    try:
        for _, exponents, coeff in _graded(p):
            fiber = exponents[m:]
            j = units.get(fiber)
            if j is None:
                if sum(fiber) != 1:
                    break
                j = units[fiber] = fiber.index(1)
            # zip stops when the m x names run out, before any fiber exponent
            sign, body = _signed_body(coeff, "*".join(map(
                factor_text, zip(compress(x_names, exponents),
                                 compress(exponents, exponents)))))
            y = fiber_names[j]
            piece = f" {sign} {body}"
            pieces.append(f" {sign} {y}" if body == "1" else f"{piece}*{y}")
            if len(pieces) == 64:
                chunks.append("".join(pieces))
                pieces.clear()
            entries[j].append(piece)
        else:
            if pieces:
                chunks.append("".join(pieces))
            return _sum_text(chunks), [_sum_text(entry) for entry in entries]
    except ValueError as error:
        raise IntegerTooLong() from error
    raise ValueError("a term's fiber degree is not 1")
