"""Differential operators on exact polynomial maps.

Wirtinger partials are purely formal on the z/zb polynomial ring: z_k and
zb_k differentiate as independent variables, which makes every check in the
analysis module an exact, decidable polynomial identity.
"""

from __future__ import annotations

from .exact import DimensionMismatch, I
from .maps import ComplexPolyMap, RealPolyMap, ShapeError
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

    def evaluate(self, point):
        """Evaluate every entry; returns a list of lists of scalars.  The
        entries share one table of zero fields and powers of the point."""
        table = {}
        return [[p.evaluate(point, table=table) for p in row]
                for row in self.entries]


def jacobian(phi: RealPolyMap) -> PolyMatrix:
    """Entry (i, j) is the partial of component i by variable j."""
    return PolyMatrix([[c.partial(j) for j in range(phi.domain_dim)]
                       for c in phi.components])


class Hessian:
    """The matrix of second partials of one polynomial, built on demand.

    Entry (i, j) is the partial by variable j of the partial by variable i.
    It is built the first time a row, a column or the entry itself is read,
    and kept, so a check that reads a few rows and columns costs O(m) second
    partials instead of m^2."""

    __slots__ = ("rows", "cols", "_firsts", "_entries", "_rows", "_cols")

    def __init__(self, firsts: list[MultiPoly]):
        self.rows = self.cols = len(firsts)
        self._firsts = firsts
        self._entries = {}
        self._rows = {}
        self._cols = {}

    def __getitem__(self, index) -> MultiPoly:
        entry = self._entries.get(index)
        if entry is None:
            i, j = index
            entry = self._entries[index] = self._firsts[i].partial(j)
        return entry

    def row(self, i: int) -> list[MultiPoly]:
        """Row i, the same list on every call: the caller must not change it."""
        if i not in self._rows:
            self._rows[i] = [self[i, j] for j in range(self.cols)]
        return self._rows[i]

    def column(self, j: int) -> list[MultiPoly]:
        """Column j, the same list on every call: the caller must not change it."""
        if j not in self._cols:
            self._cols[j] = [self[i, j] for i in range(self.rows)]
        return self._cols[j]

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


def antiholomorphic_jacobian(phi: ComplexPolyMap) -> PolyMatrix:
    """Entry (i, j) = formal partial of component i by zb_j."""
    m = phi.domain_dim
    return PolyMatrix([[c.partial(m + j) for j in range(m)]
                       for c in phi.components])


def complex_gradient(phi: RealPolyMap) -> list[MultiPoly]:
    """For a map to R^2 read as one complex component u + i*v, the vector of
    partials (du/dx_j + i * dv/dx_j), Gaussian-rational coefficients over the
    real variables."""
    if phi.codomain_dim != 2:
        raise ShapeError(
            f"complex gradient needs a two-component map, got {phi.codomain_dim}")
    u, v = phi.components
    return [u.partial(j) + v.partial(j).scale(I) for j in range(phi.domain_dim)]

