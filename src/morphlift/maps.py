"""Exact polynomial map representations and the conversions between them.

Real identification fixes the interleaved coordinate convention once and for
all: the complex point (z_1, ..., z_m) corresponds to the real point
(x_1, x_2, ..., x_{2m-1}, x_{2m}) with z_k = x_{2k-1} + i*x_{2k}, and a
complex codomain splits as (u^1, v^1, ..., u^n, v^n).  Both directions
expand each conjugate pair in closed form through ``poly.real_parts`` and
``poly.from_real_parts``, not through :meth:`MultiPoly.compose`; their
terms come in the order those functions document.
"""

from __future__ import annotations

from .exact import DimensionMismatch
from .poly import default_names, from_real_parts, real_parts


class ShapeError(ValueError):
    """A map does not have the shape an operation requires."""


class _PolyMap:
    """A polynomial map whose components live in the ring that ``ring``
    gives for the domain dimension; immutable, equal to maps of its own kind
    with the same domain and components.

    ``_jacobian`` is unset until :func:`calculus.jacobian_at` first reads
    the map; it then holds the plan of the map's Jacobian, which the map's
    components determine, so equality, hashing and the repr ignore it."""

    __slots__ = ("domain_dim", "codomain_dim", "components", "var_names",
                 "_jacobian")

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
# factor z_k^a zb_k^b expands into a + b + 1 terms, whose coefficients have
# up to about a + b bits and come from a recurrence; z1^1000 takes about
# 1 ms (CPython 3.11, x86-64), and a monomial's pairs multiply their terms.
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
    components = []
    for comp in phi.components:
        components.extend(real_parts(comp))
    return RealPolyMap(2 * m, 2 * phi.codomain_dim, components)


def complexify(phi_r: RealPolyMap) -> ComplexPolyMap:
    """Inverse of :func:`real_identification` (even dimensions required):
    component l is u + i*v for the real components u = 2l - 1 and v = 2l,
    under x_{2k-1} = (z_k + zb_k)/2 and x_{2k} = (z_k - zb_k)/(2i)."""
    if phi_r.domain_dim % 2 or phi_r.codomain_dim % 2:
        raise DimensionMismatch(
            "complexification needs even domain and codomain dimensions")
    parts = phi_r.components
    components = [from_real_parts(parts[l], parts[l + 1])
                  for l in range(0, phi_r.codomain_dim, 2)]
    return ComplexPolyMap(phi_r.domain_dim // 2, phi_r.codomain_dim // 2,
                          components)


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
