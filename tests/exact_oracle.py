"""Test oracles for exact linear algebra.

``rank`` is ``ExactMatrix.rank`` as it was when it ran Bareiss elimination
on ``Fraction`` and ``GaussianRational`` objects, before the kernel moved to
Gaussian integers held as pairs of plain ints.  ``gaussian_integer_rank`` is
the Z[i] kernel as it was before the conjugate of a non-real previous pivot
moved into the row multipliers: it formed each new cell's numerator first
and then multiplied it by the conjugate and divided by the norm.  Both Z[i]
kernels scale rows to Gaussian integers with ``gaussian_integer_row``, the
package's own scaling as it was before ``exact`` split a row into its real
and imaginary parts once, for the rank mod p and ``Echelon`` to share.
``column_sweep_rank`` is the Z[i] kernel with the conjugate folded in, as it
was before ``exact.Echelon`` took the rows one at a time: it swept the whole
matrix a column at a time, taking the first row nonzero in the column as
the pivot row.
``bilinear_dot`` is the complex-bilinear product that ``kaehler`` took on
gradients before it tested isotropy on the real Jacobian rows.
``split_row_to_integers`` is ``exact._gaussian_integer_row`` as it was
before ``exact.integer_parts`` scaled parts to integers for the whole
package: it takes a row's real parts and imaginary parts.  ``rtruediv`` is
``GaussianRational.__rtruediv__`` as it was when it wrote the division
formula out itself.

The bodies are the old functions' bodies, so the differential tests in
``test_exact.py`` compare the integer kernel with the elimination it
replaced.  These functions are not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from morphlift.exact import (
    DimensionMismatch,
    GaussianRational,
    Scalar,
    make_scalar,
)


def bilinear_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """The complex-bilinear product sum(u_i * v_i); no conjugation."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    total: Scalar = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def gaussian_integer_row(row) -> tuple[list, list]:
    """The real and imaginary parts of a row, times the lcm of their
    denominators, as two lists of ints."""
    re = [x.re if type(x) is GaussianRational else x for x in row]
    im = [x.im if type(x) is GaussianRational else 0 for x in row]
    if not {int}.issuperset(map(type, re + im)):
        scale = lcm(*(v.denominator for v in re + im))
        re = [(v * scale).numerator for v in re]
        im = [(v * scale).numerator for v in im]
    return re, im


def split_row_to_integers(re, im) -> tuple[list, list]:
    """A row's real parts and imaginary parts, times the lcm of their
    denominators, as two new lists of ints."""
    re, im = list(re), list(im)
    if not {int}.issuperset(map(type, re + im)):
        scale = lcm(*(v.denominator for v in re + im))
        re = [(v * scale).numerator for v in re]
        im = [(v * scale).numerator for v in im]
    return re, im


def rtruediv(value: GaussianRational, other):
    """``other / value``, for an int or Fraction ``other``."""
    a, b = GaussianRational._parts(other)
    c, d = value.re, value.im
    norm = c * c + d * d
    if norm == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return make_scalar(Fraction(a * c + b * d, 1) / norm,
                       Fraction(b * c - a * d, 1) / norm)


def rank(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination, first-nonzero pivots.

    Divisions in the Bareiss update are exact over any integral domain;
    with Fraction-backed entries they are exact field divisions.
    """
    work = [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in matrix.entries]
    n_rows, n_cols = matrix.rows, matrix.cols
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for i in range(rank + 1, n_rows):
            head = work[i][col]
            for j in range(col, n_cols):
                numerator = pivot * work[i][j] - head * work[rank][j]
                if isinstance(numerator, int):
                    numerator = Fraction(numerator)
                work[i][j] = numerator / prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def gaussian_integer_rank(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination over Z[i], first-nonzero
    pivots, on rows scaled to Gaussian integers."""
    # Each row still to be eliminated is a pair (real parts, imaginary
    # parts) of int lists that starts at the current column.
    active = [gaussian_integer_row(row) for row in matrix.entries]
    rank = 0
    r, s = 1, 0             # the previous pivot r + s*i
    for _ in range(matrix.cols):
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


def column_sweep_rank(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination over Z[i], first-nonzero
    pivots, on rows scaled to Gaussian integers."""
    # Each row still to be eliminated is a pair (real parts, imaginary
    # parts) of int lists that starts at the current column.
    active = [gaussian_integer_row(row) for row in matrix.entries]
    rank = 0
    r, s = 1, 0             # the previous pivot r + s*i
    for _ in range(matrix.cols):
        for index, (re, im) in enumerate(active):
            if re[0] or im[0]:
                break
        else:
            active = [(re[1:], im[1:]) for re, im in active]
            continue
        active[0], active[index] = active[index], active[0]
        top_re, top_im = active[0]
        p, q = top_re[0], top_im[0]
        # Each new cell is ((p + q*i) * cell - (h + k*i) * top cell)
        # over the previous pivot r + s*i.  Over a non-real pivot that
        # is the numerator times r - s*i, over the norm r^2 + s^2, so
        # r - s*i joins both multipliers here, once per pivot and row.
        if s:
            a, b = p * r + q * s, q * r - p * s
            divisor = r * r + s * s
        else:
            a, b = p, q
            divisor = r
        rows = []
        for re, im in active[1:]:
            h, k = re[0], im[0]
            if s:
                h, k = h * r + k * s, k * r - h * s
            parts = list(zip(re, im, top_re, top_im))[1:]
            rows.append(([(a * x - b * y - h * u + k * v) // divisor
                          for x, y, u, v in parts],
                         [(a * y + b * x - h * v - k * u) // divisor
                          for x, y, u, v in parts]))
        active = rows
        r, s = p, q
        rank += 1
        if not active:
            break
    return rank
