"""Test oracle for exact Jacobians at points: ``PolyMatrix.evaluate``,
``span_report`` and ``search_points`` as they were when the Kaehler checks
built the Jacobian (or the complex gradient) as polynomials and evaluated
each entry at each point.  Also ``antiholomorphic_jacobian``, the whole
matrix of partials by the zb variables, which ``analysis.is_holomorphic``
built before it took each partial only when `_decide` read it.  And
``jacobian_at`` as it was when its plan was a flat list of contributions,
one per term and variable, each skipped at a point by a mask test of its
own and each forming its product of powers anew.  And
``grouped_jacobian_plan``, the plan grouped by monomial as it was when it
derived every partial of every term by hand instead of reading
``jacobian(phi)``.  And ``jacobian_by_partials``, ``hessian_by_partials``
(with its ``PartialHessian``) and ``laplacian_by_partials``, as they were
when they took each derivative with its own ``MultiPoly.partial`` and the
Laplacian added the second partials one after another, before
``MultiPoly.gradient`` and ``MultiPoly.laplacian`` took them all from one
pass over the terms.  ``gradient`` is the method ``MultiPoly.gradient``,
which formed every first partial, zero or not, before ``MultiPoly.partials``
formed only the nonzero ones.  ``sparse_terms`` is the method
``MultiPoly.sparse_terms`` that the old plans read.

The bodies are the old functions' bodies, so the differential tests in
``test_calculus_differential.py`` compare ``calculus.jacobian_at``, which
reads the values from a plan built once per map from ``jacobian(phi)``, and
that plan, with the code they replaced.
The old matrix evaluation shared one table of zero fields and powers among
the entries at a point; that table only saved work, so each entry here is
evaluated on its own.  The old ``jacobian_at`` kept its plan on the map;
here it builds the plan on every call and keeps nothing.  These functions
are not part of the package.
"""

from __future__ import annotations

import random
from itertools import combinations

from exact_oracle import bilinear_dot
from morphlift.calculus import PolyMatrix, complex_gradient, jacobian
from morphlift.exact import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    make_scalar,
    make_scalar_like,
)
from morphlift.kaehler import (
    INCONCLUSIVE,
    NOT_KAEHLER,
    KaehlerReport,
    complex_point_to_real,
)
from morphlift.maps import ComplexPolyMap, RealPolyMap, ShapeError
from morphlift.poly import MultiPoly, _nonzero_fields


def jacobian_by_partials(phi: RealPolyMap) -> PolyMatrix:
    """Entry (i, j) is the partial of component i by variable j."""
    return PolyMatrix([[c.partial(j) for j in range(phi.domain_dim)]
                       for c in phi.components])


def gradient(p: MultiPoly) -> list[MultiPoly]:
    """``[p.partial(j) for j in range(num_vars)]`` from one pass over the
    terms: a term c*v^e puts e_j*c at the key of v^e / v_j into partial j
    for each variable v_j it contains, in term order."""
    units = [1 << (8 * p._width * j) for j in range(p.num_vars)]
    parts = [{} for _ in units]
    decoded = _nonzero_fields(p._terms, p.num_vars, p._width)
    for (key, coeff), (exponents, variables) in zip(p._terms.items(), decoded):
        for j in variables:
            parts[j][key - units[j]] = exponents[j] * coeff
    return [p._with(terms) for terms in parts]


class PartialHessian:
    """The matrix of second partials of one polynomial, built a row at a
    time: row i is built the first time it is read, and reuses the entries
    of the rows already built, as entry (j, i) equals entry (i, j)."""

    __slots__ = ("rows", "cols", "_firsts", "_rows")

    def __init__(self, firsts: list[MultiPoly]):
        self.rows = self.cols = len(firsts)
        self._firsts = firsts
        self._rows = {}

    def __getitem__(self, index) -> MultiPoly:
        i, j = index
        return self.row(i)[j]

    def row(self, i: int) -> list[MultiPoly]:
        row = self._rows.get(i)
        if row is None:
            built = self._rows
            row = built[i] = [built[j][i] if j in built
                              else self._firsts[i].partial(j)
                              for j in range(self.cols)]
        return row


def hessian_by_partials(p: MultiPoly) -> PartialHessian:
    if p.num_complex:
        raise DimensionMismatch("hessian is defined for real variable kinds")
    return PartialHessian([p.partial(i) for i in range(p.num_vars)])


def laplacian_by_partials(p: MultiPoly) -> MultiPoly:
    if p.num_complex:
        raise DimensionMismatch("laplacian is defined for real variable kinds")
    total = MultiPoly(p.num_vars, {})
    for i in range(p.num_vars):
        total = total + p.partial(i).partial(i)
    return total


def antiholomorphic_jacobian(phi: ComplexPolyMap) -> PolyMatrix:
    """Entry (i, j) = formal partial of component i by zb_j."""
    m = phi.domain_dim
    return PolyMatrix([[c.partial(m + j) for j in range(m)]
                       for c in phi.components])


def matrix_evaluate(matrix: PolyMatrix, point) -> list:
    """Evaluate every entry; returns a list of lists of scalars."""
    return [[p.evaluate(point) for p in row] for row in matrix.entries]


def sparse_terms(p: MultiPoly):
    """Each term as (fields, coefficient), where ``fields`` lists (variable,
    exponent) for each variable that occurs, in order of variable."""
    for exponents, coeff in p.terms.items():
        yield [(j, e) for j, e in enumerate(exponents) if e], coeff


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
        for fields, coeff in sparse_terms(component):
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


def grouped_jacobian_plan(phi: RealPolyMap):
    """The Jacobian of phi as a sum of monomials, grouped for evaluation.

    Term c*x^e of component k contributes c*e_j*x^(e - u_j) to entry (k, j)
    for each variable x_j it contains.  Equal monomials x^(e - u_j) are
    merged, so the plan is (base, monomials, masks, pairs):

    - base: the row-major entries' constant parts, from terms linear in
      one variable;
    - monomials: for each other monomial, the indices of the powers whose
      product it is, as the first and a tuple of the rest, and its uses, a
      tuple of (slot, c*e_j) with slot the entry's index in the row-major
      matrix;
    - masks: for each variable x_j, an int with bit i set when monomial i
      contains x_j;
    - pairs: the (variable, exponent) pair of each power."""
    n = phi.domain_dim
    base = [0] * (phi.codomain_dim * n)
    found = {}          # factors -> uses
    index = {}          # e*n + j -> index of the power x_j^e
    for k, component in enumerate(phi.components):
        row = k * n
        for fields, coeff in sparse_terms(component):
            if not fields:
                continue        # a constant term contributes nothing
            powers = [index.setdefault(e * n + j, len(index)) for j, e in fields]
            last = len(fields) - 1
            # combinations() leaves out the last field first
            for t, factors in zip(range(last, -1, -1),
                                  combinations(powers, last)):
                j, e = fields[t]
                if e == 1:
                    use = (row + j, coeff)
                else:
                    lower = index.setdefault((e - 1) * n + j, len(index))
                    factors = factors[:t] + (lower,) + factors[t:]
                    use = (row + j, make_scalar_like(coeff * e))
                if factors:
                    found.setdefault(factors, []).append(use)
                else:   # a term c*x_j of component k: one per entry
                    base[row + j] = coeff
    variable = [code % n for code in index]
    masks = [0] * n
    for i, factors in enumerate(found):
        bit = 1 << i
        for f in factors:
            masks[variable[f]] |= bit
    monomials = [(factors[0], factors[1:], tuple(uses))
                 for factors, uses in found.items()]
    return base, monomials, masks, [divmod(code, n)[::-1] for code in index]


def jacobian_at(phi: RealPolyMap, points):
    """The value rows of phi's Jacobian at each of the points in turn.

    At each point, one mask of the variables whose value is 0 skips every
    contribution that meets one before any product, and each power of a
    coordinate is computed once."""
    n = phi.domain_dim
    plan, pairs = _jacobian_plan(phi)
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


def span_report(Phi: RealPolyMap, points) -> KaehlerReport:
    if Phi.codomain_dim != 2:
        raise ShapeError(
            f"complex gradient needs a two-component map, got {Phi.codomain_dim}")
    real_jacobian = jacobian(Phi)
    m = Phi.domain_dim // 2
    gradients = []
    jacobian_ranks = []
    for point in points:
        u, v = matrix_evaluate(real_jacobian, complex_point_to_real(point))
        gradients.append(tuple(map(make_scalar, u, v)))
        jacobian_ranks.append(ExactMatrix([u, v]).rank())
    rank = ExactMatrix(gradients).rank()
    isotropy_ok = all(bilinear_dot(g, g) == 0 for g in gradients)
    pairwise = all(bilinear_dot(gradients[a], gradients[b]) == 0
                   for a in range(len(gradients))
                   for b in range(a + 1, len(gradients)))
    verdict = NOT_KAEHLER if rank > m else INCONCLUSIVE
    notes = ()
    if verdict == NOT_KAEHLER:
        notes = (f"gradient span has rank {rank} > m = {m}: no m-dimensional "
                 "subspace (isotropic or not) contains every gradient",)
    return KaehlerReport(tuple(points), tuple(gradients), rank, isotropy_ok,
                         pairwise, verdict, tuple(jacobian_ranks), notes)


_ALPHABET = (
    0, 1, -1,
    GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, -1),
)


def search_points(Phi: RealPolyMap, budget: int, seed: int) -> KaehlerReport:
    rng = random.Random(seed)
    gradient_polys = complex_gradient(Phi)
    m = Phi.domain_dim // 2
    kept_points = []
    kept_gradients: list[tuple] = []
    rank = 0
    for _ in range(budget):
        point = tuple(rng.choice(_ALPHABET) for _ in range(m))
        real_point = complex_point_to_real(point)
        gradient = tuple(p.evaluate(real_point) for p in gradient_polys)
        if all(value == 0 for value in gradient):
            continue
        candidate = ExactMatrix(kept_gradients + [gradient])
        new_rank = candidate.rank()
        if new_rank > rank:
            kept_points.append(point)
            kept_gradients.append(gradient)
            rank = new_rank
        if rank > m:
            break
    return span_report(Phi, kept_points)
