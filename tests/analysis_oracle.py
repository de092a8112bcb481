"""Test oracle for the Gram and Hessian checks: ``hwc_certificate`` as it was
when it built the dilation before deciding any other Gram entry;
``hessian_conditions`` as it was when it built every component's full
Hessian, with ``hessian`` the symmetric matrix of second partials, and
negated all of H_1 before deciding any cell; and
``dense_hessian_conditions`` as it was when its Hessian rows were dense
lists, with ``dense_hessian`` the ``calculus.hessian`` of that time (its
rows from ``calculus_oracle.gradient``, every second partial zero or not), and
each cell on and above the diagonal was one dot product over all 2m
stacked entries, zero or not.

The bodies are the old functions' bodies, so the differential tests in
``test_analysis_differential.py`` compare the checks that build only what
their certificate reads with the code they replaced.  These functions are
not part of the package.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import calculus_oracle
from morphlift.analysis import CheckReport, Violation, _decide
from morphlift.calculus import jacobian
from morphlift.maps import RealPolyMap
from morphlift.poly import MultiPoly, poly_dot


def hessian(p: MultiPoly) -> tuple:
    """The rows of every second partial; entry (j, i) with j > i is entry
    (i, j) itself, equal term for term, so that cell (i, i) of H_a^2
    multiplies each entry by itself, as ``calculus.hessian``'s rows do, and
    squares it in the kernel's triangular pass."""
    firsts = [p.partial(i) for i in range(p.num_vars)]
    entries = [[firsts[i].partial(j) for j in range(p.num_vars)]
               for i in range(p.num_vars)]
    for i, row in enumerate(entries):
        for j in range(i + 1, p.num_vars):
            entries[j][i] = row[j]
    return tuple(map(tuple, entries))


def hwc_certificate(phi: RealPolyMap) -> CheckReport:
    rows = [list(r) for r in jacobian(phi)]
    n = phi.codomain_dim
    dilation = poly_dot(rows[0], rows[0])
    for k in range(n):
        for l in range(k, n):
            if k == 0 and l == 0:
                continue
            entry = poly_dot(rows[k], rows[l])
            if k == l:
                residual = entry - dilation
                if not residual.is_zero:
                    return CheckReport(
                        "hwc", False,
                        violation=Violation("diagonal", 1, k + 1, residual))
            else:
                if not entry.is_zero:
                    return CheckReport(
                        "hwc", False,
                        violation=Violation("off-diagonal", k + 1, l + 1, entry))
    notes = ()
    if dilation.is_zero:
        notes = ("constant/degenerate map: dilation is identically zero",)
    return CheckReport("hwc", True, dilation=dilation, notes=notes)


def hessian_conditions(phi: RealPolyMap) -> CheckReport:
    notes = ("the lift equivalence is stated under the hypothesis that the "
             "input map is HWC; check it with --hwc",)
    hessians = [hessian(c) for c in phi.components]
    rows = [[list(row) for row in h] for h in hessians]
    cols = [[list(col) for col in zip(*h)] for h in hessians]
    negated_rows = [[-p for p in row] for row in rows[0]]
    cells = [(i, j) for i in range(phi.domain_dim) for j in range(phi.domain_dim)]
    n = phi.codomain_dim
    for alpha in range(1, n):
        for i, j in cells:
            residual = poly_dot(rows[alpha][i] + negated_rows[i],
                                cols[alpha][j] + cols[0][j])
            if not residual.is_zero:
                return CheckReport(
                    "hessian_conditions", False, notes=notes,
                    violation=Violation("hessian-square", 1, alpha + 1,
                                        residual, entry=(i + 1, j + 1)))
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            for i, j in cells:
                residual = poly_dot(rows[alpha][i] + rows[beta][i],
                                    cols[beta][j] + cols[alpha][j])
                if not residual.is_zero:
                    return CheckReport(
                        "hessian_conditions", False, notes=notes,
                        violation=Violation("hessian-anticommute", alpha + 1,
                                            beta + 1, residual,
                                            entry=(i + 1, j + 1)))
    return CheckReport("hessian_conditions", True, notes=notes)


def dense_hessian(p: MultiPoly):
    firsts = calculus_oracle.gradient(p)
    rows: dict[int, list[MultiPoly]] = {}

    def row(i: int) -> list[MultiPoly]:
        built = rows.get(i)
        if built is None:
            built = calculus_oracle.gradient(firsts[i])
            for j, other in rows.items():
                built[j] = other[i]
            rows[i] = built
        return built

    return row


def dense_hessian_conditions(phi: RealPolyMap) -> CheckReport:
    notes = ("the lift equivalence is stated under the hypothesis that the "
             "input map is HWC; check it with --hwc",)
    hessians = [dense_hessian(c) for c in phi.components]
    first = hessians[0]
    negated_row = cache(lambda i: [-p for p in first(i)])
    products = [("hessian-square", 1, a + 1, h, negated_row, h, first)
                for a, h in enumerate(hessians) if a] + [
        ("hessian-anticommute", a + 1, b + 1, ha, hb, hb, ha)
        for (a, ha), (b, hb) in combinations(enumerate(hessians), 2)]

    def cells():
        for kind, k, l, left, right, top, bottom in products:
            for i in range(phi.domain_dim):
                stacked_row = left(i) + right(i)
                for j in range(i, phi.domain_dim):
                    yield (kind, k, l, (i + 1, j + 1),
                           poly_dot(stacked_row, top(j) + bottom(j)))

    return _decide("hessian_conditions", cells(), notes)
