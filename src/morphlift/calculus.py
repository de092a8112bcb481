"""Differential operators on exact polynomial maps.

Wirtinger partials are purely formal on the z/zb polynomial ring: z_k and
zb_k differentiate as independent variables, which makes every check in the
analysis module an exact, decidable polynomial identity.
"""

from __future__ import annotations

from itertools import combinations

from .exact import DimensionMismatch, I, make_scalar_like
from .maps import RealPolyMap, ShapeError
from .poly import MultiPoly, poly_dot


class PolyMatrix:
    """Immutable rectangular matrix of polynomials in a common ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("ragged polynomial matrix")
        ring = None
        for row in rows:
            for p in row:
                if ring is None:
                    ring = (p.num_vars, p.num_complex)
                elif (p.num_vars, p.num_complex) != ring:
                    raise DimensionMismatch("entries live in different rings")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries))
        return PolyMatrix([[poly_dot(list(row), list(col)) for col in cols]
                           for row in self.entries])

    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)


def jacobian(phi: RealPolyMap) -> PolyMatrix:
    """Entry (i, j) is the partial of component i by variable j."""
    return PolyMatrix([[c.partial(j) for j in range(phi.domain_dim)]
                       for c in phi.components])


def _jacobian_plan(phi: RealPolyMap) -> tuple[list, list]:
    """The contributions of phi's terms to its Jacobian, and the (variable,
    exponent) pair of each power they read.

    Term c*x^e of component k contributes c*e_j*x^(e - u_j) to entry (k, j)
    for each variable x_j it contains.  A contribution is (slot, coefficient,
    support, factors): the entry's index in the row-major matrix, c*e_j, a
    mask with bit i set for each variable x_i of x^(e - u_j), and the
    indices of the powers whose product is x^(e - u_j)."""
    n = phi.domain_dim
    plan = []
    index = {}          # e*n + j -> index of the power x_j^e
    for k, component in enumerate(phi.components):
        for fields, coeff in component.sparse_terms():
            if not fields:
                continue        # a constant term contributes nothing
            powers = []
            support = 0
            for j, e in fields:
                powers.append(index.setdefault(e * n + j, len(index)))
                support |= 1 << j
            # combinations() leaves out the last field first
            for (j, e), factors in zip(reversed(fields),
                                       combinations(powers, len(powers) - 1)):
                if e == 1:
                    plan.append((k * n + j, coeff, support ^ (1 << j), factors))
                else:
                    lower = index.setdefault((e - 1) * n + j, len(index))
                    plan.append((k * n + j, make_scalar_like(coeff * e), support,
                                 factors + (lower,)))
    return plan, [divmod(code, n)[::-1] for code in index]


def jacobian_at(phi: RealPolyMap, points):
    """The value rows of phi's Jacobian at each of the points in turn, read
    straight from the terms of phi: no partial is built.

    The terms are decoded once per map, before the first point is read, and
    the plan is kept on the map for later calls.  At each point, one mask
    of the variables whose value is 0 skips every contribution that meets
    one before any product, and each power of a coordinate is computed
    once."""
    n = phi.domain_dim
    try:
        plan, pairs = phi._jacobian
    except AttributeError:
        plan, pairs = _jacobian_plan(phi)
        object.__setattr__(phi, "_jacobian", (plan, pairs))
    for point in points:
        if len(point) != n:
            raise DimensionMismatch(f"point length {len(point)} != arity {n}")
        zeros = 0
        for j, x in enumerate(point):
            if x == 0:
                zeros |= 1 << j
        powers = [None] * len(pairs)
        values = [0] * (phi.codomain_dim * n)
        for slot, value, support, factors in plan:
            if support & zeros:
                continue
            for f in factors:
                power = powers[f]
                if power is None:
                    j, e = pairs[f]
                    power = powers[f] = point[j] ** e
                value = value * power
            values[slot] += value
        values = [v if type(v) is int else make_scalar_like(v) for v in values]
        yield [values[k * n:(k + 1) * n] for k in range(phi.codomain_dim)]


class Hessian:
    """The matrix of second partials of one polynomial, built a row at a time.

    Entry (i, j) is the partial by variable j of the partial by variable i.
    Row i is built the first time it is read, and kept, so a check that
    reads a few rows costs O(m) second partials instead of m^2.  Entry
    (j, i) equals entry (i, j) term for term, in the same order and with the
    same coefficient types, so row j serves as column j, and a row reuses
    the entries of the rows already built."""

    __slots__ = ("rows", "cols", "_firsts", "_rows")

    def __init__(self, firsts: list[MultiPoly]):
        self.rows = self.cols = len(firsts)
        self._firsts = firsts
        self._rows = {}

    def __getitem__(self, index) -> MultiPoly:
        i, j = index
        return self.row(i)[j]

    def row(self, i: int) -> list[MultiPoly]:
        """Row i, also column i, the same list on every call: the caller
        must not change it."""
        row = self._rows.get(i)
        if row is None:
            built = self._rows
            row = built[i] = [built[j][i] if j in built
                              else self._firsts[i].partial(j)
                              for j in range(self.cols)]
        return row

    def is_zero(self) -> bool:
        return all(p.is_zero for i in range(self.rows) for p in self.row(i))


def hessian(p: MultiPoly) -> Hessian:
    if p.num_complex:
        raise DimensionMismatch("hessian is defined for real variable kinds")
    return Hessian([p.partial(i) for i in range(p.num_vars)])


def laplacian(p: MultiPoly) -> MultiPoly:
    if p.num_complex:
        raise DimensionMismatch("laplacian is defined for real variable kinds")
    total = MultiPoly.zero(p.num_vars)
    for i in range(p.num_vars):
        total = total + p.partial(i).partial(i)
    return total


def complex_gradient(phi: RealPolyMap) -> list[MultiPoly]:
    """For a map to R^2 read as one complex component u + i*v, the vector of
    partials (du/dx_j + i * dv/dx_j), Gaussian-rational coefficients over the
    real variables."""
    if phi.codomain_dim != 2:
        raise ShapeError(
            f"complex gradient needs a two-component map, got {phi.codomain_dim}")
    u, v = phi.components
    return [u.partial(j) + v.partial(j).scale(I) for j in range(phi.domain_dim)]

