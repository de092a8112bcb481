"""Exact scalar arithmetic and exact dense linear algebra.

Scalars are Python ints, ``fractions.Fraction`` or :class:`GaussianRational`
(a + b*i with rational a, b).  All arithmetic is exact; there is no tolerance
anywhere in this module.  Values normalize aggressively: a Fraction with
denominator 1 becomes an int, a Gaussian rational with zero imaginary part
becomes its real part.  This keeps structural equality meaningful and makes
the common all-integer case fast.

:meth:`ExactMatrix.rank` builds no scalar objects.  It scales each row by the
lcm of its denominators, which leaves the rank over Q(i) unchanged, and runs
fraction-free Bareiss elimination (E. Bareiss, Math. Comp. 22, 1968) over the
Gaussian integers Z[i], each entry a pair of plain ints (real, imaginary).
Every division by the previous pivot is exact in Z[i].
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
        a, b = parts
        c, d = self.re, self.im
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return make_scalar(Fraction(a * c + b * d, 1) / norm,
                           Fraction(b * c - a * d, 1) / norm)

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
            base = base * base
            k >>= 1
        return result

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        parts = self._parts(other)
        if parts is None:
            if isinstance(other, complex):
                return complex(self) == other
            return NotImplemented
        return self.re == parts[0] and self.im == parts[1]

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

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


def to_complex(value: Scalar) -> complex:
    if isinstance(value, GaussianRational):
        return complex(value)
    return complex(float(value), 0.0)


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

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(", ".join(render_scalar(x) for x in row)
                         for row in self.entries)
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination over Z[i], first-nonzero
        pivots, on rows scaled to Gaussian integers."""
        # Each row still to be eliminated is a pair (real parts, imaginary
        # parts) of int lists that starts at the current column.
        active = [_gaussian_integer_row(row) for row in self.entries]
        rank = 0
        r, s = 1, 0             # the previous pivot r + s*i
        for _ in range(self.cols):
            for index, (re, im) in enumerate(active):
                if re[0] or im[0]:
                    break
            else:
                active = [(re[1:], im[1:]) for re, im in active]
                continue
            active[0], active[index] = active[index], active[0]
            top_re, top_im = active[0]
            p, q = top_re[0], top_im[0]
            norm = r * r + s * s
            rows = []
            for re, im in active[1:]:
                # (p + q*i) * row - (h + k*i) * top, from the next column on
                h, k = re[0], im[0]
                parts = list(zip(re, im, top_re, top_im))[1:]
                new_re = [p * x - q * y - h * u + k * v for x, y, u, v in parts]
                new_im = [p * y + q * x - h * v - k * u for x, y, u, v in parts]
                if s == 0:
                    rows.append(([a // r for a in new_re], [b // r for b in new_im]))
                else:           # times the conjugate r - s*i, over the norm
                    rows.append(([(a * r + b * s) // norm
                                  for a, b in zip(new_re, new_im)],
                                 [(b * r - a * s) // norm
                                  for a, b in zip(new_re, new_im)]))
            active = rows
            r, s = p, q
            rank += 1
            if not active:
                break
        return rank


def _gaussian_integer_row(row) -> tuple[list, list]:
    """The real and imaginary parts of a row, times the lcm of their
    denominators, as two lists of ints."""
    re = [x.re if type(x) is GaussianRational else x for x in row]
    im = [x.im if type(x) is GaussianRational else 0 for x in row]
    if any(type(v) is not int for v in re + im):
        scale = lcm(*(v.denominator for v in re + im))
        re = [(v * scale).numerator for v in re]
        im = [(v * scale).numerator for v in im]
    return re, im


def make_scalar_like(value) -> Scalar:
    """Normalize an arbitrary exact value into canonical scalar form."""
    if isinstance(value, GaussianRational):
        return make_scalar(value.re, value.im)
    return normalize_rational(Fraction(value))
