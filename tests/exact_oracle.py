"""Test oracle for exact rank: ``ExactMatrix.rank`` as it was when it ran
Bareiss elimination on ``Fraction`` and ``GaussianRational`` objects, before
the kernel moved to Gaussian integers held as pairs of plain ints.

The body is the old method's body, so the differential tests in
``test_exact.py`` compare the integer kernel with the elimination it
replaced.  This function is not part of the package.
"""

from __future__ import annotations

from fractions import Fraction


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
