"""Test oracle for exact Jacobians at points: ``PolyMatrix.evaluate``,
``span_report`` and ``search_points`` as they were when the Kaehler checks
built the Jacobian (or the complex gradient) as polynomials and evaluated
each entry at each point.  Also ``antiholomorphic_jacobian``, the whole
matrix of partials by the zb variables, which ``analysis.is_holomorphic``
built before it took each partial only when `_decide` read it.

The bodies are the old functions' bodies, so the differential tests in
``test_calculus_differential.py`` compare ``calculus.jacobian_at``, which
reads the values straight from the map's terms, with the code it replaced.
The old matrix evaluation shared one table of zero fields and powers among
the entries at a point; that table only saved work, so each entry here is
evaluated on its own.  These functions are not part of the package.
"""

from __future__ import annotations

import random

from exact_oracle import bilinear_dot
from morphlift.calculus import PolyMatrix, complex_gradient, jacobian
from morphlift.exact import ExactMatrix, GaussianRational, make_scalar
from morphlift.kaehler import (
    INCONCLUSIVE,
    NOT_KAEHLER,
    KaehlerReport,
    complex_point_to_real,
)
from morphlift.maps import ComplexPolyMap, RealPolyMap, ShapeError


def antiholomorphic_jacobian(phi: ComplexPolyMap) -> PolyMatrix:
    """Entry (i, j) = formal partial of component i by zb_j."""
    m = phi.domain_dim
    return PolyMatrix([[c.partial(m + j) for j in range(m)]
                       for c in phi.components])


def matrix_evaluate(matrix: PolyMatrix, point) -> list:
    """Evaluate every entry; returns a list of lists of scalars."""
    return [[p.evaluate(point) for p in row] for row in matrix.entries]


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
