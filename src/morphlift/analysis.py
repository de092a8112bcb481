"""Exact decision procedures with machine-checkable certificates.

Every verdict here is a polynomial identity decided in exact arithmetic:

* harmonic: each component has identically zero Laplacian;
* horizontally weakly conformal (HWC): the Gram matrix of Jacobian rows is a
  single polynomial multiple of the identity, and that multiple is the
  squared dilation certificate;
* harmonic morphism: both of the above (the Fuglede-Ishihara criterion at
  polynomial scale);
* holomorphic: the antiholomorphic Wirtinger Jacobian vanishes identically;
* Hessian conditions: the component Hessians share a common square and
  pairwise anticommute, which transfers HWC from a map to its complete lift;
* orthogonal multiplication: |phi(x, y)|^2 = |x|^2 |y|^2 for a bilinear map.

A failed check always carries a re-checkable residual polynomial, never just
a point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    antiholomorphic_jacobian,
    hessian,
    jacobian,
    laplacian,
)
from .maps import ComplexPolyMap, RealPolyMap, ShapeError
from .poly import MultiPoly, poly_dot


@dataclass(frozen=True)
class Violation:
    """A failed polynomial identity: the residual should have been zero."""

    kind: str
    component_k: int        # 1-based indices into the components
    component_l: int
    residual: MultiPoly
    entry: tuple = None     # optional matrix position for matrix identities


@dataclass(frozen=True)
class CheckReport:
    check: str
    verdict: bool
    dilation: MultiPoly = None
    violation: Violation = None
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict and self.violation is not None:
            raise ValueError("a passing report cannot carry a violation")
        if not self.verdict and self.violation is None:
            raise ValueError("a failing report must carry a violation")


def is_harmonic(phi: RealPolyMap) -> CheckReport:
    for index, comp in enumerate(phi.components, start=1):
        residual = laplacian(comp)
        if not residual.is_zero:
            return CheckReport(
                "harmonic", False,
                violation=Violation("laplacian", index, index, residual))
    return CheckReport("harmonic", True)


def hwc_certificate(phi: RealPolyMap) -> CheckReport:
    """Decide Eq.-style horizontal weak conformality symbolically.

    Computes the Gram matrix G = J J^t of Jacobian rows.  The map is HWC iff
    every off-diagonal entry is the zero polynomial and all diagonal entries
    agree; the common diagonal is the squared dilation.
    """
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


def is_harmonic_morphism(phi: RealPolyMap) -> CheckReport:
    harmonic = is_harmonic(phi)
    if not harmonic.verdict:
        return CheckReport("harmonic_morphism", False,
                           violation=harmonic.violation,
                           notes=("harmonicity fails",))
    conformal = hwc_certificate(phi)
    if not conformal.verdict:
        return CheckReport("harmonic_morphism", False,
                           violation=conformal.violation,
                           notes=("horizontal weak conformality fails",))
    return CheckReport("harmonic_morphism", True,
                       dilation=conformal.dilation, notes=conformal.notes)


def is_holomorphic(phi: ComplexPolyMap) -> CheckReport:
    anti = antiholomorphic_jacobian(phi)
    for i in range(anti.rows):
        for j in range(anti.cols):
            if not anti[i, j].is_zero:
                return CheckReport(
                    "holomorphic", False,
                    violation=Violation("antiholomorphic", i + 1, j + 1,
                                        anti[i, j], entry=(i + 1, j + 1)))
    return CheckReport("holomorphic", True)


def hessian_conditions(phi: RealPolyMap) -> CheckReport:
    """The transfer conditions for HWC of the complete lift: all component
    Hessians have equal squares and pairwise anticommute.

    The equivalence with HWC of the lift holds under the hypothesis that phi
    itself is HWC; that status is recorded in the report notes rather than
    required, so the check stays a total function.
    """
    hwc_status = hwc_certificate(phi).verdict
    notes = (f"input map is {'HWC' if hwc_status else 'NOT HWC'} "
             "(the lift equivalence is stated under the HWC hypothesis)",)
    hessians = [hessian(c) for c in phi.components]
    rows = [[list(row) for row in h.entries] for h in hessians]
    cols = [[list(col) for col in zip(*h.entries)] for h in hessians]
    negated_rows = [[-p for p in row] for row in rows[0]]
    cells = [(i, j) for i in range(phi.domain_dim) for j in range(phi.domain_dim)]
    n = phi.codomain_dim
    # Each matrix identity is decided entry by entry in row-major order, and
    # the first nonzero entry is the certificate: (H_a^2 - H_1^2)[i, j] and
    # (H_a H_b + H_b H_a)[i, j] are each one dot product of stacked vectors.
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


def is_orthogonal_multiplication(phi: RealPolyMap, first_block: int,
                                 second_block: int) -> CheckReport:
    """Check |phi(x, y)|^2 = |x|^2 |y|^2 for a bilinear map on R^p x R^q."""
    if first_block + second_block != phi.domain_dim:
        raise ShapeError(
            f"blocks {first_block}+{second_block} do not cover "
            f"{phi.domain_dim} variables")
    for index, comp in enumerate(phi.components, start=1):
        for exponents in comp.terms:
            if (sum(exponents[:first_block]) != 1
                    or sum(exponents[first_block:]) != 1):
                raise ShapeError(
                    f"component {index} is not bilinear in the "
                    f"({first_block}, {second_block}) block split")
    m = phi.domain_dim
    norm_image = poly_dot(list(phi.components), list(phi.components))
    first_norm = MultiPoly.zero(m)
    for j in range(first_block):
        v = MultiPoly.variable(m, j)
        first_norm = first_norm + v * v
    second_norm = MultiPoly.zero(m)
    for j in range(first_block, m):
        v = MultiPoly.variable(m, j)
        second_norm = second_norm + v * v
    residual = norm_image - first_norm * second_norm
    if residual.is_zero:
        return CheckReport("orthogonal_multiplication", True)
    return CheckReport("orthogonal_multiplication", False,
                       violation=Violation("norm-product", 0, 0, residual))
