"""Exact multivariate polynomials over rationals or Gaussian rationals.

A polynomial is a mapping from exponent tuples to nonzero coefficients:

    x1^2*x2 + 3  ->  {(2, 1): 1, (0, 0): 3}     (num_vars=2)

That dict, :attr:`MultiPoly.terms`, is the whole public representation.

Products run on packed keys instead (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  An
exponent tuple becomes one ``int`` whose little-endian fields of ``width``
bytes hold the exponents, so multiplying two monomials is one integer
addition.  The width is chosen per product from the operands' largest
exponents, so no field can carry into the next: one byte while the sums stay
below 256, then 2, 4 or 8 bytes, then as many bytes as the largest sum needs.
A polynomial packs its terms on first use and caches them for the width last
used, and a product keeps its result's packed terms, so a chain of products
packs each operand once.  A product with a single-term factor shifts the
other factor's exponent tuples instead and packs nothing.  Nothing outside
the kernel sees packed keys.

Complex polynomial rings carry formal conjugate variables: a ring with
``num_complex = k`` has ``num_vars = 2k`` where variable ``j < k`` is the
holomorphic variable z_{j+1} and variable ``k + j`` is its conjugate partner
zb_{j+1}.  Formal (Wirtinger) partials treat all 2k variables as independent,
so :meth:`MultiPoly.partial` is the same operation for real and complex kinds.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, starmap
from operator import add, sub

from .exact import (
    DimensionMismatch,
    GaussianRational,
    Scalar,
    conjugate,
    imag_part,
    make_scalar_like,
    real_part,
    render_scalar,
)


class ConsistencyError(ValueError):
    """A complex evaluation point assigns zb a value other than conj(z)."""


_set = object.__setattr__


def _canonicalize(terms: dict) -> dict:
    """Drop zero coefficients and demote integral Fractions, in place."""
    for key in [k for k, c in terms.items() if not c or type(c) is Fraction]:
        coeff = terms[key]
        if not coeff:
            del terms[key]
        elif coeff.denominator == 1:
            terms[key] = coeff.numerator
    return terms


def _check_ring_shape(num_vars: int, num_complex: int) -> None:
    if num_complex and num_vars != 2 * num_complex:
        raise DimensionMismatch(
            f"complex ring with {num_complex} pairs needs {2 * num_complex} "
            f"variables, got {num_vars}")


class MultiPoly:
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("num_vars", "num_complex", "terms", "_max_exp", "_packed")

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
        self._fill(num_vars, clean, num_complex)

    def _fill(self, num_vars: int, terms: dict, num_complex: int,
              packed=None) -> None:
        _set(self, "num_vars", num_vars)
        _set(self, "num_complex", num_complex)
        _set(self, "terms", terms)
        _set(self, "_max_exp", None)
        _set(self, "_packed", packed)

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict, num_complex: int = 0) -> "MultiPoly":
        """Internal constructor for coefficients that exact arithmetic made
        from canonical scalars, under keys of the right length.  It only
        drops zeros and demotes integral Fractions, and it takes ownership of
        ``terms``: callers pass a dict they built for it."""
        poly = object.__new__(cls)
        poly._fill(num_vars, _canonicalize(terms), num_complex)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, num_complex: int = 0) -> "MultiPoly":
        return cls(num_vars, {}, num_complex)

    @classmethod
    def constant(cls, num_vars: int, value: Scalar, num_complex: int = 0) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: value}, num_complex)

    @classmethod
    def variable(cls, num_vars: int, index: int, num_complex: int = 0) -> "MultiPoly":
        if not 0 <= index < num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        exponents = [0] * num_vars
        exponents[index] = 1
        return cls(num_vars, {tuple(exponents): 1}, num_complex)

    # -- basic protocol --------------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if (self.num_vars, self.num_complex) != (other.num_vars, other.num_complex):
            raise DimensionMismatch(
                f"ring mismatch: ({self.num_vars},{self.num_complex}) vs "
                f"({other.num_vars},{other.num_complex})")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.num_complex == other.num_complex
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.num_complex,
                     frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"MultiPoly({render(self)!r})"

    # -- ring operations --------------------------------------------------------

    def _combine(self, other, op):
        """self op other, for op in {add, sub}, applied term by term."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(self.num_vars, other, self.num_complex)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        get = terms.get
        for exponents, coeff in other.terms.items():
            terms[exponents] = op(get(exponents, 0), coeff)
        return MultiPoly._trusted(self.num_vars, terms, self.num_complex)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.num_vars,
                                  {e: -c for e, c in self.terms.items()},
                                  self.num_complex)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        if len(self.terms) == 1:
            return _monomial_product(self, other)
        if len(other.terms) == 1:
            return _monomial_product(other, self)
        width = _field_width(self._max_exponent() + other._max_exponent())
        accumulator: dict = {}
        accumulate_product(accumulator, self, other, width=width)
        # Products are chained (powers, composition, lowering), so the result
        # keeps its packed terms for the next one.
        return _from_packed(accumulator, width, self.num_vars, self.num_complex,
                            keep_packed=True)

    __rmul__ = __mul__

    def scale(self, factor: Scalar) -> "MultiPoly":
        factor = make_scalar_like(factor)
        return MultiPoly._trusted(self.num_vars,
                                  {e: factor * c for e, c in self.terms.items()},
                                  self.num_complex)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take natural exponents")
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
        terms = {}
        for exponents, coeff in self.terms.items():
            e = exponents[index]
            if e == 0:
                continue
            lowered = exponents[:index] + (e - 1,) + exponents[index + 1:]
            terms[lowered] = terms.get(lowered, 0) + e * coeff
        return MultiPoly._trusted(self.num_vars, terms, self.num_complex)

    def conjugate_poly(self) -> "MultiPoly":
        """Swap each z_k with zb_k and conjugate every coefficient."""
        if self.num_complex == 0:
            raise DimensionMismatch("conjugate_poly needs complex variable kinds")
        k = self.num_complex
        terms = {}
        for exponents, coeff in self.terms.items():
            swapped = exponents[k:] + exponents[:k]
            terms[swapped] = conjugate(coeff)
        return MultiPoly._trusted(self.num_vars, terms, self.num_complex)

    # -- evaluation / substitution -------------------------------------------------

    def evaluate(self, point) -> Scalar:
        """Exact evaluation.  For complex rings the point must be
        conjugation-consistent: value(zb_k) == conj(value(z_k))."""
        if len(point) != self.num_vars:
            raise DimensionMismatch(
                f"point length {len(point)} != arity {self.num_vars}")
        if self.num_complex:
            k = self.num_complex
            for j in range(k):
                if point[k + j] != conjugate(point[j]):
                    raise ConsistencyError(
                        f"value for zb{j + 1} is not the conjugate of z{j + 1}")
        return self._evaluate_raw(point)

    def _evaluate_raw(self, point) -> Scalar:
        total: Scalar = 0
        for exponents, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, exponents):
                if e:
                    value = value * base ** e
            total = total + value
        return make_scalar_like(total) if not isinstance(total, int) else total

    def evaluate_complex(self, zpoint) -> Scalar:
        """Evaluate a complex-ring polynomial at z-values; zb gets conj(z)."""
        if self.num_complex == 0:
            raise DimensionMismatch("evaluate_complex needs a complex ring")
        if len(zpoint) != self.num_complex:
            raise DimensionMismatch(
                f"expected {self.num_complex} complex coordinates, got {len(zpoint)}")
        full = tuple(zpoint) + tuple(conjugate(z) for z in zpoint)
        return self._evaluate_raw(full)

    def compose(self, values: list["MultiPoly"]) -> "MultiPoly":
        """Substitute values[j] for variable j, for every variable at once."""
        if len(values) != self.num_vars:
            raise DimensionMismatch(
                f"need {self.num_vars} substitution values, got {len(values)}")
        if not values:
            return self
        ring = (values[0].num_vars, values[0].num_complex)
        for q in values:
            if (q.num_vars, q.num_complex) != ring:
                raise DimensionMismatch("substitution values live in mixed rings")
        result = MultiPoly.zero(*ring)
        power_cache: dict[tuple[int, int], MultiPoly] = {}
        for exponents, coeff in self.terms.items():
            term = MultiPoly.constant(ring[0], coeff, ring[1])
            for j, e in enumerate(exponents):
                if e == 0:
                    continue
                key = (j, e)
                if key not in power_cache:
                    power_cache[key] = values[j] ** e
                term = term * power_cache[key]
            result = result + term
        return result

    def substitute(self, index: int, value: "MultiPoly") -> "MultiPoly":
        """Substitute ``value`` for variable ``index``.  The value may live
        in a different ring only when no other variable occurs."""
        if not 0 <= index < self.num_vars:
            raise DimensionMismatch(f"variable index {index} out of range")
        same_ring = (value.num_vars, value.num_complex) == \
            (self.num_vars, self.num_complex)
        if same_ring:
            filler = [MultiPoly.variable(self.num_vars, j, self.num_complex)
                      for j in range(self.num_vars)]
        else:
            for exponents in self.terms:
                if any(e and j != index for j, e in enumerate(exponents)):
                    raise DimensionMismatch(
                        "cross-ring substitution needs a polynomial in the "
                        "substituted variable only")
            # untouched slots are never raised to a positive power
            filler = [MultiPoly.zero(value.num_vars, value.num_complex)
                      for _ in range(self.num_vars)]
        filler[index] = value
        return self.compose(filler)

    def remap(self, num_vars: int, index_map: dict[int, int],
              num_complex: int = 0) -> "MultiPoly":
        """Embed into a larger ring, sending old variable j to index_map[j]."""
        _check_ring_shape(num_vars, num_complex)
        terms = {}
        for exponents, coeff in self.terms.items():
            new_exp = [0] * num_vars
            for j, e in enumerate(exponents):
                if e:
                    new_exp[index_map[j]] = e
            terms[tuple(new_exp)] = coeff
        return MultiPoly._trusted(num_vars, terms, num_complex)

    # -- inspection -------------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- packed terms (product kernel only) ----------------------------------------

    def _max_exponent(self) -> int:
        """The largest exponent of any variable in any term (0 if none)."""
        if self._max_exp is None:
            value = max(map(max, self.terms), default=0) if self.num_vars else 0
            _set(self, "_max_exp", value)
        return self._max_exp

    def _packed_items(self, width: int):
        """The terms as (packed key, coefficient) pairs at ``width`` bytes a
        field, packed on first use and cached for the last width asked."""
        cached = self._packed
        if cached is None or cached[0] != width:
            keys = _pack_all(self.terms, self.num_vars, width)
            cached = (width, list(zip(keys, self.terms.values())))
            _set(self, "_packed", cached)
        return cached[1]


# ---------------------------------------------------------------------------
# Packed-key product kernel
# ---------------------------------------------------------------------------

_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_width(max_exponent_sum: int) -> int:
    """Bytes per exponent field that hold every exponent sum up to the bound."""
    needed = max(1, (max_exponent_sum.bit_length() + 7) // 8)
    for width in _STRUCT_CODES:
        if needed <= width:
            return width
    return needed


@lru_cache(maxsize=64)
def _fields(num_vars: int, width: int) -> struct.Struct:
    return struct.Struct(f"<{num_vars}{_STRUCT_CODES[width]}")


def _pack_all(exponent_tuples, num_vars: int, width: int) -> list[int]:
    """Exponent tuples -> ints with ``width``-byte little-endian fields."""
    if width in _STRUCT_CODES:
        raw = starmap(_fields(num_vars, width).pack, exponent_tuples)
    else:
        raw = (b"".join(x.to_bytes(width, "little") for x in e)
               for e in exponent_tuples)
    return list(map(int.from_bytes, raw, repeat("little")))


def _unpack_all(keys, num_vars: int, width: int):
    """The inverse of :func:`_pack_all`, as an iterator of tuples."""
    size = num_vars * width
    raw = map(int.to_bytes, keys, repeat(size), repeat("little"))
    if width in _STRUCT_CODES:
        return map(_fields(num_vars, width).unpack, raw)
    return (tuple(int.from_bytes(b[i:i + width], "little")
                  for i in range(0, size, width)) for b in raw)


def _from_packed(accumulator: dict, width: int, num_vars: int,
                 num_complex: int, keep_packed: bool = False) -> MultiPoly:
    """The polynomial whose packed terms ``accumulator`` holds; it takes
    ownership of the dict."""
    _canonicalize(accumulator)
    terms = dict(zip(_unpack_all(accumulator, num_vars, width),
                     accumulator.values()))
    poly = object.__new__(MultiPoly)
    poly._fill(num_vars, terms, num_complex,
               (width, accumulator.items()) if keep_packed else None)
    return poly


def _monomial_product(monomial: MultiPoly, p: MultiPoly) -> MultiPoly:
    """monomial * p.  The product shifts each term of p by one exponent
    tuple, so no two terms collide and nothing needs packing: parsing and
    lowering multiply monomials far more often than anything else."""
    (shift, factor), = monomial.terms.items()
    return MultiPoly._trusted(
        p.num_vars,
        {tuple(map(add, shift, e)): factor * c for e, c in p.terms.items()},
        p.num_complex)


def accumulate_product(accumulator: dict, p: MultiPoly, q: MultiPoly, *,
                       width: int) -> None:
    """accumulator += p*q over packed keys with ``width``-byte fields (hot
    path for Gram matrices and polynomial matrix products).  The caller picks
    a width that holds every exponent sum, the same for every product that
    goes into one accumulator."""
    if (p._max_exponent() + q._max_exponent()) >> (8 * width):
        raise OverflowError(f"exponent sums of p*q overflow {width}-byte fields")
    get = accumulator.get
    q_items = q._packed_items(width)
    for kp, cp in p._packed_items(width):
        for kq, cq in q_items:
            key = kp + kq
            accumulator[key] = get(key, 0) + cp * cq


def poly_dot(left: list[MultiPoly], right: list[MultiPoly]) -> MultiPoly:
    """Exact sum of products sum_j left[j]*right[j] with one accumulator."""
    if len(left) != len(right):
        raise DimensionMismatch("poly_dot length mismatch")
    if not left:
        raise DimensionMismatch("poly_dot of empty vectors")
    num_vars, num_complex = left[0].num_vars, left[0].num_complex
    width = _field_width(max(p._max_exponent() + q._max_exponent()
                             for p, q in zip(left, right)))
    accumulator: dict = {}
    for p, q in zip(left, right):
        accumulate_product(accumulator, p, q, width=width)
    return _from_packed(accumulator, width, num_vars, num_complex)


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def default_names(num_vars: int, num_complex: int = 0) -> tuple[str, ...]:
    if num_complex:
        k = num_complex
        return tuple(f"z{j + 1}" for j in range(k)) + tuple(f"zb{j + 1}" for j in range(k))
    return tuple(f"x{j + 1}" for j in range(num_vars))


def _graded_lex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


def _render_coefficient(coeff: Scalar, has_vars: bool) -> tuple[str, str]:
    """Return (sign, body) where body omits the leading sign."""
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


def render(p: MultiPoly, names=None) -> str:
    """Canonical text form: graded-lex order, explicit ``*`` and ``^``."""
    if names is None:
        names = default_names(p.num_vars, p.num_complex)
    if not p.terms:
        return "0"
    pieces = []
    for exponents in sorted(p.terms, key=_graded_lex_key, reverse=True):
        coeff = p.terms[exponents]
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
