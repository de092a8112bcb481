"""Test oracles for exact linear algebra.

``rank`` is ``ExactMatrix.rank`` as it was when it ran Bareiss elimination
on ``Fraction`` and ``GaussianRational`` objects, before the kernel moved to
Gaussian integers held as pairs of plain ints.  ``bilinear_dot`` is the
complex-bilinear product that ``kaehler`` took on gradients before it
tested isotropy on the real Jacobian rows.

The bodies are the old functions' bodies, so the differential tests in
``test_exact.py`` compare the integer kernel with the elimination it
replaced.  These functions are not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from morphlift.exact import DimensionMismatch, Scalar


def bilinear_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """The complex-bilinear product sum(u_i * v_i); no conjugation."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    total: Scalar = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


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
