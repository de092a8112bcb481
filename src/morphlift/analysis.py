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
    """A failed polynomial identity: the residual should have been zero.

    ``component_k`` and ``component_l`` are 1-based, and what they index
    depends on ``kind``:

    * ``laplacian``: (k, k), the component that is not harmonic;
    * ``off-diagonal``: (k, l), the Gram entry <grad phi_k, grad phi_l>;
    * ``diagonal``: (1, k), the Gram entry |grad phi_k|^2 against the
      dilation |grad phi_1|^2;
    * ``hessian-square``: (1, a), the Hessian square H_a^2 against H_1^2,
      with ``entry`` the matrix cell;
    * ``hessian-anticommute``: (a, b), the anticommutator H_a H_b + H_b H_a,
      with ``entry`` the matrix cell;
    * ``antiholomorphic``: (row, variable), the component and the zb
      variable of the nonzero Wirtinger partial, also given as ``entry``;
    * ``norm-product``: (0, 0), since the identity is about the whole map.
    """

    kind: str
    component_k: int
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
    # The dilation is built only once a diagonal entry or a passing verdict
    # reads it: a map refuted off the diagonal first never pays for it.
    dilation = None
    for k in range(n):
        for l in range(k, n):
            if k == 0 and l == 0:
                continue
            entry = poly_dot(rows[k], rows[l])
            if k == l:
                if dilation is None:
                    dilation = poly_dot(rows[0], rows[0])
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
    if dilation is None:
        dilation = poly_dot(rows[0], rows[0])
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
    itself is HWC.  The report notes that hypothesis rather than checking it,
    so the check stays a total function; :func:`hwc_certificate` decides it.
    """
    notes = ("the lift equivalence is stated under the hypothesis that the "
             "input map is HWC; check it with --hwc",)
    # Each Hessian forms its rows and columns on first use, and -H_1 is
    # formed one row at a time, so a certificate at an early entry reads
    # O(m) second partials of the m^2.
    hessians = [hessian(c) for c in phi.components]
    first = hessians[0]
    negated_rows = {}

    def negated_row(i):
        if i not in negated_rows:
            negated_rows[i] = [-p for p in first.row(i)]
        return negated_rows[i]

    m, n = phi.domain_dim, phi.codomain_dim
    # Each matrix identity is decided entry by entry in row-major order, and
    # the first nonzero entry is the certificate: (H_a^2 - H_1^2)[i, j] and
    # (H_a H_b + H_b H_a)[i, j] are each one dot product of stacked vectors.
    for alpha in range(1, n):
        h = hessians[alpha]
        for i in range(m):
            stacked_row = h.row(i) + negated_row(i)
            for j in range(m):
                residual = poly_dot(stacked_row, h.column(j) + first.column(j))
                if not residual.is_zero:
                    return CheckReport(
                        "hessian_conditions", False, notes=notes,
                        violation=Violation("hessian-square", 1, alpha + 1,
                                            residual, entry=(i + 1, j + 1)))
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            a, b = hessians[alpha], hessians[beta]
            for i in range(m):
                stacked_row = a.row(i) + b.row(i)
                for j in range(m):
                    residual = poly_dot(stacked_row, b.column(j) + a.column(j))
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
    if first_block < 1 or second_block < 1:
        raise ShapeError(f"block sizes {first_block},{second_block} must be positive")
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
