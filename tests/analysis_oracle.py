"""Test oracle for the Gram and Hessian checks: ``hwc_certificate`` as it was
when it built the dilation before deciding any other Gram entry, and
``hessian_conditions`` as it was when it built every component's full
Hessian and negated all of H_1 before deciding any cell.

The bodies are the old functions' bodies, so the differential tests in
``test_analysis_differential.py`` compare the checks that build only what
their certificate reads with the code they replaced.  These functions are
not part of the package.
"""

from __future__ import annotations

from morphlift.analysis import CheckReport, Violation
from morphlift.calculus import PolyMatrix, jacobian
from morphlift.maps import RealPolyMap
from morphlift.poly import MultiPoly, poly_dot


def hessian(p: MultiPoly) -> PolyMatrix:
    firsts = [p.partial(i) for i in range(p.num_vars)]
    return PolyMatrix([[firsts[i].partial(j) for j in range(p.num_vars)]
                       for i in range(p.num_vars)])


def hwc_certificate(phi: RealPolyMap) -> CheckReport:
    j = jacobian(phi)
    rows = [list(r) for r in j.entries]
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
    rows = [[list(row) for row in h.entries] for h in hessians]
    cols = [[list(col) for col in zip(*h.entries)] for h in hessians]
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
