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

from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, combinations_with_replacement

from .calculus import hessian, jacobian, laplacian
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


def _decide(check: str, identities, notes: tuple = ()) -> CheckReport:
    """The report of a check that holds iff every identity in a stream does.

    ``identities`` yields (kind, k, l, entry, residual) in the order that
    defines the certificate, building each residual only when it is asked
    for.  The first nonzero residual becomes the violation and ends the
    stream, so no later residual is built; a stream of zeros is a pass."""
    for kind, k, l, entry, residual in identities:
        if not residual.is_zero:
            return CheckReport(check, False, notes=notes,
                               violation=Violation(kind, k, l, residual, entry))
    return CheckReport(check, True, notes=notes)


def is_harmonic(phi: RealPolyMap) -> CheckReport:
    return _decide("harmonic", (("laplacian", k, k, None, laplacian(c))
                                for k, c in enumerate(phi.components, start=1)))


def hwc_certificate(phi: RealPolyMap) -> CheckReport:
    """Decide Eq.-style horizontal weak conformality symbolically.

    Computes the Gram matrix G = J J^t of Jacobian rows.  The map is HWC iff
    every off-diagonal entry is the zero polynomial and all diagonal entries
    agree; the common diagonal is the squared dilation.  Each diagonal entry
    |grad phi_k|^2 is a sum of squares, which the kernel forms as such.
    """
    rows = [list(r) for r in jacobian(phi).entries]
    # The dilation is built only once a diagonal entry or a passing verdict
    # reads it: a map refuted off the diagonal first never pays for it.
    squared_dilation = cache(lambda: poly_dot(rows[0], rows[0]))

    def gram():
        for k, l in combinations_with_replacement(range(phi.codomain_dim), 2):
            if k != l:
                yield "off-diagonal", k + 1, l + 1, None, poly_dot(rows[k], rows[l])
            elif k:
                entry = poly_dot(rows[k], rows[k])
                yield "diagonal", 1, k + 1, None, entry - squared_dilation()

    report = _decide("hwc", gram())
    if not report.verdict:
        return report
    dilation = squared_dilation()
    notes = (("constant/degenerate map: dilation is identically zero",)
             if dilation.is_zero else ())
    return replace(report, dilation=dilation, notes=notes)


def is_harmonic_morphism(phi: RealPolyMap) -> CheckReport:
    harmonic = is_harmonic(phi)
    if not harmonic.verdict:
        return replace(harmonic, check="harmonic_morphism",
                       notes=("harmonicity fails",))
    conformal = hwc_certificate(phi)
    notes = conformal.notes if conformal.verdict else (
        "horizontal weak conformality fails",)
    return replace(conformal, check="harmonic_morphism", notes=notes)


def is_holomorphic(phi: ComplexPolyMap) -> CheckReport:
    # each partial by zb_j is taken only when `_decide` reads it
    m = phi.domain_dim
    return _decide("holomorphic", (
        ("antiholomorphic", i + 1, j + 1, (i + 1, j + 1), c.partial(m + j))
        for i, c in enumerate(phi.components) for j in range(m)))


def hessian_conditions(phi: RealPolyMap) -> CheckReport:
    """The transfer conditions for HWC of the complete lift: all component
    Hessians have equal squares and pairwise anticommute.

    The equivalence with HWC of the lift holds under the hypothesis that phi
    itself is HWC.  The report notes that hypothesis rather than checking it,
    so the check stays a total function; :func:`hwc_certificate` decides it.
    """
    notes = ("the lift equivalence is stated under the hypothesis that the "
             "input map is HWC; check it with --hwc",)
    # Each Hessian and -H_1 form a sparse row, {t: nonzero entry}, on first
    # use, so a certificate at an early entry reads O(m) second partials of
    # the m^2.
    hessians = [hessian(c) for c in phi.components]
    first = hessians[0]
    negated_row = cache(lambda i: {t: -p for t, p in first(i).items()})
    # Row j of a Hessian is also its column j, so cell (i, j) of each
    # identity is one dot product [left | right]_i . [top | bottom]_j:
    # (H_a^2 - H_1^2)[i, j] = [H_a | -H_1]_i . [H_a | H_1]_j and
    # (H_a H_b + H_b H_a)[i, j] = [H_a | H_b]_i . [H_b | H_a]_j.
    products = [("hessian-square", 1, a + 1, h, negated_row, h, first)
                for a, h in enumerate(hessians) if a] + [
        ("hessian-anticommute", a + 1, b + 1, ha, hb, hb, ha)
        for (a, ha), (b, hb) in combinations(enumerate(hessians), 2)]

    def cells():
        # the squares, then the anticommutators, each cell in row-major
        # order.  Both identities are symmetric matrices, and cell (j, i)
        # comes before cell (i, j) for j < i, so the first nonzero cell lies
        # on or above the diagonal and only those cells are visited.  A cell
        # sums only the pairs whose two entries are nonzero, the left half
        # and then the right, each in increasing t, as a dense dot product
        # would add them; a cell with no such pair is 0 and is not formed.
        for kind, k, l, left, right, top, bottom in products:
            for i in range(phi.domain_dim):
                left_row, right_row = left(i), right(i)
                for j in range(i, phi.domain_dim):
                    top_row, bottom_row = top(j), bottom(j)
                    pairs = [(p, top_row[t]) for t, p in left_row.items()
                             if t in top_row]
                    pairs += [(p, bottom_row[t]) for t, p in right_row.items()
                              if t in bottom_row]
                    if pairs:
                        yield (kind, k, l, (i + 1, j + 1),
                               poly_dot(*zip(*pairs)))

    return _decide("hessian_conditions", cells(), notes)


def is_orthogonal_multiplication(phi: RealPolyMap, first_block: int) -> CheckReport:
    """Check |phi(x, y)|^2 = |x|^2 |y|^2 for a bilinear map on R^p x R^q,
    where p = first_block and q is the rest of phi's variables."""
    m = phi.domain_dim
    if not 0 < first_block < m:
        raise ShapeError(f"first block {first_block} must lie in 1..{m - 1} on R^{m}")
    for index, comp in enumerate(phi.components, start=1):
        for exponents in comp.terms:
            if (sum(exponents[:first_block]) != 1
                    or sum(exponents[first_block:]) != 1):
                raise ShapeError(
                    f"component {index} is not bilinear in the "
                    f"({first_block}, {m - first_block}) block split")
    x = [MultiPoly.variable(m, j) for j in range(first_block)]
    y = [MultiPoly.variable(m, j) for j in range(first_block, m)]
    components = list(phi.components)
    residual = (poly_dot(components, components)
                - poly_dot(x, x) * poly_dot(y, y))
    return _decide("orthogonal_multiplication",
                   [("norm-product", 0, 0, None, residual)])
