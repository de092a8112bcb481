"""Exact polynomial map representations and the conversions between them.

Real identification fixes the interleaved coordinate convention once and for
all: the complex point (z_1, ..., z_m) corresponds to the real point
(x_1, x_2, ..., x_{2m-1}, x_{2m}) with z_k = x_{2k-1} + i*x_{2k}, and a
complex codomain splits as (u^1, v^1, ..., u^n, v^n).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import DimensionMismatch, I, imag_part, real_part
from .poly import MultiPoly, default_names


class ShapeError(ValueError):
    """A map does not have the shape an operation requires."""


class _PolyMap:
    """A polynomial map whose components live in the ring that ``ring``
    gives for the domain dimension; immutable, equal to maps of its own kind
    with the same domain and components."""

    __slots__ = ("domain_dim", "codomain_dim", "components", "var_names")

    def __init__(self, domain_dim: int, codomain_dim: int, components,
                 var_names=None):
        components = tuple(components)
        if len(components) != codomain_dim:
            raise DimensionMismatch("component count does not match codomain")
        ring = self.ring(domain_dim)
        for c in components:
            if (c.num_vars, c.num_complex) != ring:
                raise DimensionMismatch("component lives in the wrong ring")
        object.__setattr__(self, "domain_dim", domain_dim)
        object.__setattr__(self, "codomain_dim", codomain_dim)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "var_names",
                           tuple(var_names) if var_names is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.domain_dim == other.domain_dim
                and self.components == other.components)

    def __hash__(self):
        return hash((self.domain_dim, self.components))

    def __repr__(self):
        return (f"{type(self).__name__}({self._field}^{self.domain_dim} -> "
                f"{self._field}^{self.codomain_dim})")


class RealPolyMap(_PolyMap):
    """A polynomial map R^m -> R^n with exact rational coefficients."""

    __slots__ = ()
    _field = "R"

    @staticmethod
    def ring(domain_dim: int) -> tuple[int, int]:
        """(num_vars, num_complex) of the components of a map on R^m."""
        return domain_dim, 0

    def names(self) -> tuple:
        if self.var_names is not None:
            return self.var_names
        return default_names(self.domain_dim)


class ComplexPolyMap(_PolyMap):
    """A polynomial map C^m -> C^n in the variables z_k and their formal
    conjugates zb_k (Gaussian-rational coefficients)."""

    __slots__ = ()
    _field = "C"

    @staticmethod
    def ring(domain_dim: int) -> tuple[int, int]:
        """(num_vars, num_complex) of the components of a map on C^m."""
        return 2 * domain_dim, domain_dim

    def names(self) -> tuple:
        """Full 2m-variable name list (holomorphic block then conjugates)."""
        if self.var_names is None:
            return default_names(*self.ring(self.domain_dim))
        return self.var_names + tuple(f"{n[0]}b{n[1:]}" for n in self.var_names)


PolyMap = RealPolyMap | ComplexPolyMap


# ---------------------------------------------------------------------------
# Real identification and complexification
# ---------------------------------------------------------------------------

# The most that one monomial's z_k and zb_k exponents may add up to.  A
# monomial z_k^a zb_k^b expands into about (a + b)^2 work; z1^1000 takes
# about 1 s (CPython 3.11, x86-64).
MAX_PAIR_DEGREE = 1000


def real_identification(phi: ComplexPolyMap) -> RealPolyMap:
    """The map R^{2m} -> R^{2n} obtained by splitting into real and imaginary
    parts under the interleaved identification z_k = x_{2k-1} + i*x_{2k}.

    Raises :class:`ShapeError` before any expansion when a monomial's
    exponents of some z_k and zb_k add up to more than
    :data:`MAX_PAIR_DEGREE`."""
    m = phi.domain_dim
    for index, comp in enumerate(phi.components, start=1):
        for exponents in comp.terms:
            for k in range(m):
                if exponents[k] + exponents[m + k] > MAX_PAIR_DEGREE:
                    raise ShapeError(
                        f"component {index} has a monomial of degree above "
                        f"{MAX_PAIR_DEGREE} in z{k + 1} and zb{k + 1}, more "
                        "than the real identification expands")
    real_vars = 2 * m
    x = [MultiPoly.variable(real_vars, j) for j in range(real_vars)]
    values = [x[2 * k] + x[2 * k + 1].scale(I) for k in range(m)]
    values += [x[2 * k] - x[2 * k + 1].scale(I) for k in range(m)]
    components = []
    for comp in phi.components:
        mixed = comp.compose(values)
        u_terms = {}
        v_terms = {}
        for exponents, coeff in mixed.terms.items():
            u_terms[exponents] = real_part(coeff)
            v_terms[exponents] = imag_part(coeff)
        components.append(MultiPoly(real_vars, u_terms))
        components.append(MultiPoly(real_vars, v_terms))
    return RealPolyMap(real_vars, 2 * phi.codomain_dim, components)


def complexify(phi_r: RealPolyMap) -> ComplexPolyMap:
    """Inverse of :func:`real_identification` (even dimensions required)."""
    if phi_r.domain_dim % 2 or phi_r.codomain_dim % 2:
        raise DimensionMismatch(
            "complexification needs even domain and codomain dimensions")
    m = phi_r.domain_dim // 2
    n = phi_r.codomain_dim // 2
    num_vars = 2 * m
    half = Fraction(1, 2)
    values = []
    for k in range(m):
        z = MultiPoly.variable(num_vars, k, m)
        zb = MultiPoly.variable(num_vars, m + k, m)
        values.append((z + zb).scale(half))        # x_{2k-1} = (z + zb)/2
        values.append((z - zb).scale(-I * half))   # x_{2k}   = (z - zb)/(2i)
    components = []
    for l in range(n):
        u = phi_r.components[2 * l].compose(values)
        v = phi_r.components[2 * l + 1].compose(values)
        components.append(u + v.scale(I))
    return ComplexPolyMap(m, n, components)


def real_form(phi):
    """A complex map's real identification; any other map as it is."""
    if isinstance(phi, ComplexPolyMap):
        return real_identification(phi)
    return phi


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Exact polynomial composition outer o inner."""
    if type(outer) is not type(inner) or not isinstance(outer, _PolyMap):
        raise DimensionMismatch("can only compose maps of matching kind "
                                "(real with real, complex with complex)")
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatch(
            f"cannot compose: inner codomain {inner.codomain_dim} != "
            f"outer domain {outer.domain_dim}")
    values = list(inner.components)
    if isinstance(inner, ComplexPolyMap):
        values.extend(c.conjugate_poly() for c in inner.components)
    return type(outer)(inner.domain_dim, outer.codomain_dim,
                       [c.compose(values) for c in outer.components],
                       inner.var_names)
