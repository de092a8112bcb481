"""Differential operators on exact polynomial maps.

Wirtinger partials are purely formal on the z/zb polynomial ring: z_k and
zb_k differentiate as independent variables, which makes every check in the
analysis module an exact, decidable polynomial identity.
"""

from __future__ import annotations

from itertools import compress

from .exact import DimensionMismatch, I, make_scalar_like
from .maps import RealPolyMap, ShapeError
from .poly import MultiPoly, grouped_terms, poly_dot


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
    """Entry (i, j) is the partial of component i by variable j, from one
    ``partials()`` pass per row; a zero keeps the row's width and bound."""
    rows = [(c.partials(), c._with({})) for c in phi.components]
    return PolyMatrix([[partials.get(j, zero) for j in range(phi.domain_dim)]
                       for partials, zero in rows])


def _jacobian_plan(phi: RealPolyMap):
    """The entries of ``jacobian(phi)`` as a sum of monomials, grouped for
    evaluation, so each monomial is formed once per point.  The plan is
    (base, monomials, masks, pairs):

    - base: the row-major entries' constant terms;
    - monomials: for each other monomial of an entry, the indices of the
      powers whose product it is, as the first and a tuple of the rest, and
      its uses, a tuple of (slot, coefficient) with slot the entry's index
      in the row-major matrix;
    - masks: for each variable x_j, an int with bit i set when monomial i
      contains x_j;
    - pairs: the (variable, exponent) pair of each power."""
    n = phi.domain_dim
    entries = [p for row in jacobian(phi).entries for p in row]
    base = [0] * len(entries)
    monomials = []
    index = {}          # e*n + j -> index of the power x_j^e
    masks = [0] * n
    # a walk over every term meets each power first where a monomial first
    # appears, so the distinct monomials in that order index the powers alike
    for fields, uses in grouped_terms(entries):
        if not fields:
            for slot, coeff in uses:
                base[slot] = coeff
            continue
        for j, _ in fields:
            masks[j] |= 1 << len(monomials)
        first, *rest = (index.setdefault(e * n + j, len(index)) for j, e in fields)
        monomials.append((first, tuple(rest), tuple(uses)))
    return base, monomials, masks, [divmod(code, n)[::-1] for code in index]


# Turns the text of a bit string into bytes 0 and 1 that compress() reads.
_BITS = bytes.maketrans(b"01", b"\0\1")


def jacobian_at(phi: RealPolyMap, points):
    """The value rows of phi's Jacobian at each of the points in turn.

    ``jacobian(phi)`` is built and its entries' terms decoded into a plan
    once per map object, before the first point is read, and the plan is
    kept on the map for later calls.  At each point, the masks
    of the variables whose value is 0 are joined, and only the monomials
    outside them are visited: each one's product of powers is formed once
    and added, times its coefficient, into every entry that uses it."""
    n = phi.domain_dim
    try:
        plan = phi._jacobian
    except AttributeError:
        plan = _jacobian_plan(phi)
        object.__setattr__(phi, "_jacobian", plan)
    base, monomials, masks, pairs = plan
    full = (1 << len(monomials)) - 1
    for point in points:
        if len(point) != n:
            raise DimensionMismatch(f"point length {len(point)} != arity {n}")
        dead = 0
        for mask, x in zip(masks, point):
            if x == 0:
                dead |= mask
        # every power: those of zero coordinates cost nothing and are not read
        powers = [point[j] ** e for j, e in pairs]
        values = base.copy()
        alive = bin(full & ~dead)[:1:-1].encode().translate(_BITS)
        for first, rest, uses in compress(monomials, alive):
            value = powers[first]
            for f in rest:
                value *= powers[f]
            for slot, c in uses:
                values[slot] += c * value
        values = [v if type(v) is int else make_scalar_like(v) for v in values]
        yield [values[k * n:(k + 1) * n] for k in range(phi.codomain_dim)]


def hessian(p: MultiPoly):
    """The rows of p's matrix of second partials, as a function: row i,
    ``hessian(p)(i)``, is the dict ``{j: d/dx_j d/dx_i p}`` of its nonzero
    entries, in increasing j; a zero entry is neither formed nor keyed.  Row
    i is built the first time it is read, as ``p.partial(i).partials()``, and
    kept, so a check that reads a few rows costs a few passes.  Entry (j, i)
    equals entry (i, j) term for term, in the same order and with the same
    coefficient types, so row j serves as column j, and a row reuses the
    entries of the rows already built.  A row is the same dict on every
    read: the caller must not change it."""
    if p.num_complex:
        raise DimensionMismatch("hessian is defined for real variable kinds")
    rows: dict[int, dict[int, MultiPoly]] = {}

    def row(i: int) -> dict[int, MultiPoly]:
        built = rows.get(i)
        if built is None:
            built = p.partial(i).partials()
            for j, other in rows.items():
                if j in built:
                    built[j] = other[i]
            rows[i] = built
        return built

    return row


def laplacian(p: MultiPoly) -> MultiPoly:
    if p.num_complex:
        raise DimensionMismatch("laplacian is defined for real variable kinds")
    return p.laplacian()


def complex_gradient(phi: RealPolyMap) -> list[MultiPoly]:
    """For a map to R^2 read as one complex component u + i*v, the vector of
    partials (du/dx_j + i * dv/dx_j), Gaussian-rational coefficients over the
    real variables."""
    if phi.codomain_dim != 2:
        raise ShapeError(
            f"complex gradient needs a two-component map, got {phi.codomain_dim}")
    u, v = phi.components
    return [u.partial(j) + v.partial(j).scale(I) for j in range(phi.domain_dim)]

