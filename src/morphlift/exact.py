"""Exact scalar arithmetic and exact dense linear algebra.

Scalars are Python ints, ``fractions.Fraction`` or :class:`GaussianRational`
(a + b*i with rational a, b).  All arithmetic is exact; there is no tolerance
anywhere in this module.  Values normalize aggressively: a Fraction with
denominator 1 becomes an int, a Gaussian rational with zero imaginary part
becomes its real part.  This keeps structural equality meaningful and makes
the common all-integer case fast.

A rank is decided in two steps, neither of which samples.  Each row is
scaled by the lcm of its denominators, which leaves the rank over Q(i)
unchanged, and held as two lists of plain ints: its real and its imaginary
parts.  :meth:`ExactMatrix.rank` first ranks the rows' image in F_p, for a
prime p = 1 (mod 4) in which i maps to a square root of -1.  That map
Z[i] -> F_p is a ring homomorphism, so a minor that is nonzero mod p is
nonzero in Z[i]: the rank mod p is a lower bound, and when it is
min(rows, cols) it is the rank.  Every other matrix goes to
:class:`Echelon`, fraction-free Bareiss elimination (E. Bareiss, Math.
Comp. 22, 1968) over the Gaussian integers Z[i], a row at a time, in which
every division by the previous pivot is exact; it alone can show that a
rank falls short.  ``kaehler.search_points`` keeps one echelon across its
candidate gradients, so each candidate is reduced once.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Union


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or arities."""


class IntegerTooLong(ValueError):
    """An integer to print has more digits than Python turns into text; the
    parser refuses literals that long, so such output could not be read back."""

    def __init__(self):
        super().__init__(f"the output holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, too long to print")


def normalize_rational(value) -> Union[int, Fraction]:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"not a rational value: {value!r}")


class GaussianRational:
    """A Gaussian rational a + b*i, with exact Fraction components.

    Construction normalizes components; use :func:`make_scalar` if the result
    should demote to a plain rational when the imaginary part vanishes.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational takes exact components, not floats")
        object.__setattr__(self, "re", re if type(re) is int
                           else normalize_rational(Fraction(re)))
        object.__setattr__(self, "im", im if type(im) is int
                           else normalize_rational(Fraction(im)))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _parts(other):
        if isinstance(other, GaussianRational):
            return other.re, other.im
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return make_scalar(self.re + parts[0], self.im + parts[1])

    __radd__ = __add__

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return make_scalar(self.re - parts[0], self.im - parts[1])

    def __rsub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return make_scalar(parts[0] - self.re, parts[1] - self.im)

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = parts
        return make_scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.re, self.im
        return make_scalar(Fraction(a * c + b * d, 1) / norm,
                           Fraction(b * c - a * d, 1) / norm)

    def __rtruediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return GaussianRational(*parts) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = 1
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self.re == parts[0] and self.im == parts[1]

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


Scalar = Union[int, Fraction, GaussianRational]

I = GaussianRational(0, 1)


def make_scalar(re, im=0) -> Scalar:
    """Build a scalar from rational parts, demoting to int/Fraction if real."""
    if im == 0:
        return re if type(re) is int else normalize_rational(Fraction(re))
    return GaussianRational(re, im)


def conjugate(value: Scalar) -> Scalar:
    if isinstance(value, GaussianRational):
        return value.conjugate()
    return value


def real_part(value: Scalar) -> Union[int, Fraction]:
    if isinstance(value, GaussianRational):
        return value.re
    return value


def imag_part(value: Scalar) -> Union[int, Fraction]:
    if isinstance(value, GaussianRational):
        return value.im
    return 0


def render_scalar(value: Scalar) -> str:
    """Canonical text form: ``a/b``, ``c/d*i`` or ``a/b+c/d*i``."""
    re, im = real_part(value), imag_part(value)
    try:
        if im == 0:
            return str(re)
        if im == 1:
            im_text = "i"
        elif im == -1:
            im_text = "-i"
        else:
            im_text = f"{im}*i"
        if re == 0:
            return im_text
        joiner = "" if im_text.startswith("-") else "+"
        return f"{re}{joiner}{im_text}"
    except ValueError as error:
        raise IntegerTooLong() from error


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Immutable dense matrix over exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __repr__(self):
        body = "; ".join(", ".join(render_scalar(x) for x in row)
                         for row in self.entries)
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"

    def rank(self) -> int:
        """Rank over Q(i): the rank mod p when that is min(rows, cols),
        else what a fresh :class:`Echelon` makes of the rows."""
        rows = [integer_parts(*_parts(row))[:2] for row in self.entries]
        full = min(self.rows, self.cols)
        if _rank_mod_p(rows) == full:
            return full
        echelon = Echelon()
        return sum(echelon.add(re, im) for re, im in rows)


# A prime p = 1 (mod 4) below 2^30, and a square root of -1 mod p: the image
# of i under Z[i] -> F_p.
_PRIME = 1073741789
_IOTA = 933053945


def _rank_mod_p(rows) -> int:
    """The rank in F_p of rows of Gaussian integers, given as pairs (real
    parts, imaginary parts), each a + b*i mapped to a + b*_IOTA.

    Each pivot row is kept reduced mod p and scaled so that its pivot is 1,
    with the pivot's position deleted, as :class:`Echelon` keeps its rows.
    A row being reduced is taken mod p when it comes in and then only where
    a cell is read; a step changes each cell by less than p^2."""
    pivots = []
    for re, im in rows:
        row = [(x + _IOTA * y) % _PRIME for x, y in zip(re, im)]
        for j, top in pivots:
            h = row.pop(j) % _PRIME
            if h:
                row = [x - h * t for x, t in zip(row, top)]
        for j, x in enumerate(row):
            x %= _PRIME
            if x:
                del row[j]
                inverse = pow(x, -1, _PRIME)
                pivots.append((j, [t * inverse % _PRIME for t in row]))
                break
    return len(pivots)


class Echelon:
    """Fraction-free (Bareiss) echelon over Z[i], built a row at a time.

    A pivot row is kept as it was reduced, with its pivot (its first nonzero
    cell) taken out.  Each step deletes the pivot's position, whose cell is 0
    from then on, so a row reduced through k pivot rows has k cells fewer and
    lines up with pivot row k + 1.  Every cell is a minor of the rows kept so
    far (Sylvester's identity), so each division by the previous pivot is
    exact.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        # (position, pivot p + q*i, multipliers a + b*i and divisor, the rest
        # of the row as real parts and imaginary parts), in the order kept
        self.pivots = []

    def add(self, re, im) -> bool:
        """Reduce a row, given as its real parts and its imaginary parts
        (ints or Fractions), through the pivot rows and keep a nonzero
        remainder as the next one; whether it was kept."""
        re, im, _ = integer_parts(re, im)
        r, s = 1, 0             # the previous pivot r + s*i
        for j, p, q, a, b, divisor, top_re, top_im in self.pivots:
            # Each new cell is ((p + q*i) * cell - (h + k*i) * top cell)
            # over r + s*i.  Over a non-real r + s*i that is the numerator
            # times r - s*i, over the norm r^2 + s^2, so r - s*i joins both
            # multipliers: a + b*i once per pivot, h + k*i here.
            h, k = re.pop(j), im.pop(j)
            if s:
                h, k = h * r + k * s, k * r - h * s
            re, im = ([(a * x - b * y - h * u + k * v) // divisor
                       for x, y, u, v in zip(re, im, top_re, top_im)],
                      [(a * y + b * x - h * v - k * u) // divisor
                       for x, y, u, v in zip(re, im, top_re, top_im)])
            r, s = p, q
        for j, (p, q) in enumerate(zip(re, im)):
            if p or q:
                del re[j], im[j]
                if s:
                    a, b, divisor = p * r + q * s, q * r - p * s, r * r + s * s
                else:
                    a, b, divisor = p, q, r
                self.pivots.append((j, p, q, a, b, divisor, re, im))
                return True
        return False


def _parts(row) -> tuple[list, list]:
    """The real parts and the imaginary parts of a row of scalars."""
    row = tuple(row)
    return ([x.re if type(x) is GaussianRational else x for x in row],
            [x.im if type(x) is GaussianRational else 0 for x in row])


def integer_parts(re, im) -> tuple[list, list, int]:
    """Real parts and imaginary parts (ints or Fractions) times the lcm D of
    their denominators, as two new lists of ints; and D."""
    re, im = list(re), list(im)
    if {int}.issuperset(map(type, re + im)):
        return re, im, 1
    scale = lcm(*(v.denominator for v in re + im))
    return ([(v * scale).numerator for v in re],
            [(v * scale).numerator for v in im], scale)


def make_scalar_like(value) -> Scalar:
    """Normalize an arbitrary exact value into canonical scalar form."""
    if isinstance(value, GaussianRational):
        return make_scalar(value.re, value.im)
    return normalize_rational(Fraction(value))
