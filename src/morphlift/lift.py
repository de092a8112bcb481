"""Complete lifts of maps and the inverse (anti-lift) problem.

The real complete lift of phi: R^m -> R^n doubles the variables and contracts
the Jacobian against the new block:

    Phi(x_1..x_m, y_1..y_m)^k = sum_j (d phi^k / d x_j)(x) * y_j

The complex complete lift uses only the holomorphic Wirtinger partials and
fresh fiber variables w_1..w_m.  The anti-lift decides whether a given map of
doubled variables arises this way and reconstructs the base map when it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import DimensionMismatch
from .maps import ComplexPolyMap, PolyMap, RealPolyMap, ShapeError
from .poly import MultiPoly, lift_names, render


@dataclass(frozen=True)
class NotPartialLinear:
    """A component has a monomial whose fiber degree is not exactly one."""

    component: int          # 1-based
    monomial: tuple
    fiber_degree: int

    def describe(self) -> str:
        return (f"component {self.component} has a monomial of degree "
                f"{self.fiber_degree} in the fiber block (needs exactly 1)")


@dataclass(frozen=True)
class MixedPartialObstruction:
    """The coefficient matrix M(x) is not a Jacobian: two mixed partials differ."""

    component: int          # 1-based
    var_j: int              # 1-based
    var_k: int              # 1-based
    value_jk: MultiPoly     # d M[component][j] / d x_k
    value_kj: MultiPoly     # d M[component][k] / d x_j

    def describe(self) -> str:
        return (f"component {self.component}: d^2/dx{self.var_k}dx{self.var_j} = "
                f"{render(self.value_jk)} differs from "
                f"d^2/dx{self.var_j}dx{self.var_k} = {render(self.value_kj)}")


Obstruction = NotPartialLinear | MixedPartialObstruction


def _complete_lift(phi: PolyMap, fiber: str) -> PolyMap:
    """sum_j (d phi^k / d v_j) * w_j over the m base variables v_j, one
    component at a time (:meth:`MultiPoly.complete_lift`), on twice the
    domain dimension, with the fiber variables named ``fiber``1..m."""
    m = phi.domain_dim
    components = [comp.complete_lift() for comp in phi.components]
    return type(phi)(2 * m, phi.codomain_dim, components,
                     lift_names(phi.names()[:m], fiber))


def complete_lift_real(phi: RealPolyMap) -> RealPolyMap:
    """The real complete lift, on the variables x_1..x_m, y_1..y_m."""
    return _complete_lift(phi, "y")


def complete_lift_complex(phi: ComplexPolyMap) -> ComplexPolyMap:
    """Lift by holomorphic partials only; fiber variables w_1..w_m (their
    formal conjugates exist in the ring but never occur in the lift)."""
    return _complete_lift(phi, "w")


def block_jacobian_check(phi: RealPolyMap) -> bool:
    """Verify symbolically that J(Phi)(X, Y) = [ J(phi)(Y) | J(phi)(X) ] for
    the complete lift Phi of a quadratic map phi = (X^t A_1 X, ..., X^t A_n X).

    This is the identity that transfers horizontal weak conformality between a
    quadratic map and its lift (2 X^t A_1 Y, ..., 2 X^t A_n Y); it holds
    because each gradient 2 A_i X is linear in X.  A zero component is the
    form A_i = 0.  Raises ShapeError when a component has a term whose total
    degree is not 2.
    """
    for index, comp in enumerate(phi.components, start=1):
        if any(sum(exponents) != 2 for exponents in comp.terms):
            raise ShapeError(f"component {index} is not homogeneous of degree 2")
    m = phi.domain_dim
    pad = (0,) * m
    lift = complete_lift_real(phi)
    for comp, lifted in zip(phi.components, lift.components):
        expected = {}
        for j, partial in comp.partials().items():
            terms = partial.terms.items()
            expected[j] = MultiPoly(2 * m, {pad + e: c for e, c in terms})
            expected[m + j] = MultiPoly(2 * m, {e + pad: c for e, c in terms})
        if lifted.partials() != expected:
            return False
    return True


def anti_lift(Phi: RealPolyMap) -> RealPolyMap | Obstruction:
    """Decide whether Phi(x, y) is the complete lift of some phi(x), where x
    is the first half of Phi's variables and y the second.

    Three stages: (a) every monomial must have fiber degree exactly one,
    giving the coefficient matrix M(x) with Phi = M(x) y; (b) M must satisfy
    the integrability conditions dM_ij/dx_k = dM_ik/dx_j; (c) phi is then
    reconstructed by exact monomial-wise radial integration, normalized to
    zero constant term.  Returns the reconstructed map or the first failing
    stage's obstruction witness.  Raises DimensionMismatch when Phi has an
    odd number of variables, since a lift lives on R^{2m}.
    """
    m, odd = divmod(Phi.domain_dim, 2)
    if odd:
        raise DimensionMismatch(f"a complete lift has an even number of "
                                f"variables; this map has {Phi.domain_dim}")

    # stage (a): extract M(x) with Phi^i = sum_j M[i][j](x) * y_j
    coefficient_rows: list[list[MultiPoly]] = []
    for index, comp in enumerate(Phi.components, start=1):
        entries: list[dict] = [{} for _ in range(m)]
        for exponents, coeff in comp.terms.items():
            fiber = exponents[m:]
            if sum(fiber) != 1:
                return NotPartialLinear(index, exponents, sum(fiber))
            entries[fiber.index(1)][exponents[:m]] = coeff
        # the coefficients are a canonical component's, taken as they are
        coefficient_rows.append([MultiPoly._trusted(m, terms)
                                 for terms in entries])

    # stage (b): integrability dM_ij/dx_k == dM_ik/dx_j; a zero is absent
    for index, row in enumerate(coefficient_rows, start=1):
        partials = [entry.partials() for entry in row]
        for j, k in combinations(range(m), 2):
            if partials[j].get(k) != partials[k].get(j):
                return MixedPartialObstruction(
                    index, j + 1, k + 1, row[j].partial(k), row[k].partial(j))

    # stage (c): phi^i(x) = sum_j integral_0^1 M_ij(t x) x_j dt, exactly
    components = []
    for row in coefficient_rows:
        terms: dict = {}
        for j in range(m):
            for exponents, coeff in row[j].terms.items():
                # x^a integrates along t x to x^(a + e_j) / (|a| + 1)
                key = exponents[:j] + (exponents[j] + 1,) + exponents[j + 1:]
                terms[key] = terms.get(key, 0) + Fraction(coeff, sum(key))
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, Phi.codomain_dim, components)
