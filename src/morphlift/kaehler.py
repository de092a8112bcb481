"""The isotropic-span criterion for complex-valued harmonic morphisms.

A submersive harmonic morphism Phi from R^{2m} to C is holomorphic with
respect to some Kaehler structure iff all its complex gradients lie in one
m-dimensional isotropic subspace of C^{2m} (isotropic for the bilinear, not
Hermitian, product).  If gradients at finitely many points already span more
than m dimensions, no such subspace can exist; that rank-overflow argument is
the certificate this module produces.  Rank at most m is reported as
inconclusive: existence of an isotropic subspace through the span is not
decided here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import tee
from operator import mul

from .calculus import _check_two_components, jacobian_at
from .exact import (
    Echelon,
    ExactMatrix,
    GaussianRational,
    Scalar,
    imag_part,
    make_scalar,
    real_part,
)
from .maps import RealPolyMap

NOT_KAEHLER = "not_kaehler_certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class KaehlerReport:
    sample_points: tuple          # complex coordinates, length m each
    gradients: tuple              # vectors in C^{2m}
    rank: int
    isotropy_ok: bool             # every gradient satisfies <v, v> = 0
    pairwise_orthogonal: bool     # <v_a, v_b> = 0 for all pairs
    verdict: str                  # NOT_KAEHLER or INCONCLUSIVE
    jacobian_ranks: tuple = ()    # rank of the real 2x2m Jacobian per point
    notes: tuple = ()

    def __post_init__(self):
        if self.rank > len(self.gradients):
            raise ValueError("rank cannot exceed the number of gradients")


def complex_point_to_real(point) -> tuple:
    """Interleave (re, im) parts of complex coordinates."""
    reals = []
    for value in point:
        reals.append(real_part(value))
        reals.append(imag_part(value))
    return tuple(reals)


def span_report(Phi: RealPolyMap, points) -> KaehlerReport:
    """Evaluate gradients at the given complex points and certify (or not)
    that no m-dimensional isotropic subspace contains them all."""
    _check_two_components(Phi)
    points = tuple(points)
    return _report(Phi, points,
                   list(jacobian_at(Phi, map(complex_point_to_real, points))))


def _report(Phi: RealPolyMap, points: tuple, rows: list,
            rank: int | None = None) -> KaehlerReport:
    """The report on ``points``, given the real Jacobian rows (u, v) at each
    and the rank of their gradients' span when the caller knows it; else
    :meth:`ExactMatrix.rank` finds it.

    The rows give both the complex gradient u + i*v and, through the Gram
    matrix of u and v, the Jacobian rank there: rank(A) = rank(A A^T) for a
    real matrix A.  The gradient is isotropic when u.u = v.v and u.v = 0."""
    m = Phi.domain_dim // 2
    gradients = tuple(tuple(map(make_scalar, u, v)) for u, v in rows)
    grams = [(_dot(u, u), _dot(u, v), _dot(v, v)) for u, v in rows]
    jacobian_ranks = tuple(_gram_rank(*gram) for gram in grams)
    if rank is None:
        rank = ExactMatrix(gradients).rank()
    isotropy_ok = all(uu == vv and uv == 0 for uu, uv, vv in grams)
    pairwise = all(_orthogonal(rows[a], rows[b])
                   for a in range(len(rows))
                   for b in range(a + 1, len(rows)))
    verdict = NOT_KAEHLER if rank > m else INCONCLUSIVE
    notes = ()
    if verdict == NOT_KAEHLER:
        notes = (f"gradient span has rank {rank} > m = {m}: no m-dimensional "
                 "subspace (isotropic or not) contains every gradient",)
    return KaehlerReport(points, gradients, rank, isotropy_ok, pairwise,
                         verdict, jacobian_ranks, notes)


def _gram_rank(uu, uv, vv) -> int:
    """The rank of the Gram matrix [[u.u, u.v], [u.v, v.v]] of two real
    vectors: 0 when both vanish, 2 when its determinant is not 0, else 1,
    since (u.v)^2 <= u.u * v.v (Cauchy-Schwarz)."""
    if uu == vv == 0:
        return 0
    return 2 if uu * vv != uv * uv else 1


def _dot(x, y):
    return sum(map(mul, x, y))


def _orthogonal(a, b) -> bool:
    """Whether the bilinear product of the gradients u_a + i*v_a and
    u_b + i*v_b is 0, given their real Jacobian rows (u, v): its real part
    is u_a.u_b - v_a.v_b and its imaginary part u_a.v_b + v_a.u_b."""
    (u_a, v_a), (u_b, v_b) = a, b
    return (_dot(u_a, u_b) == _dot(v_a, v_b)
            and _dot(u_a, v_b) + _dot(v_a, u_b) == 0)


_ALPHABET: tuple[Scalar, ...] = (
    0, 1, -1,
    GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, -1),
)


def search_points(Phi: RealPolyMap, budget: int, seed: int) -> KaehlerReport:
    """Greedy deterministic search for points whose gradients overflow the
    rank bound.  Samples small Gaussian-integer coordinates, keeps a point
    iff it increases the span rank, stops at rank > m or budget exhaustion.
    Points are drawn one at a time, as the search reads them, and each
    gradient is reduced once, through the echelon of the kept ones.  The
    report reads the kept points' rows as they were evaluated, and its rank
    is the number of kept points: each was kept because its gradient is
    independent of those before it, over Q(i) exactly."""
    _check_two_components(Phi)
    rng = random.Random(seed)
    m = Phi.domain_dim // 2
    drawn, again = tee(tuple(rng.choice(_ALPHABET) for _ in range(m))
                       for _ in range(budget))
    echelon = Echelon()
    kept_points, kept_rows = [], []
    for point, rows in zip(drawn,
                           jacobian_at(Phi, map(complex_point_to_real, again))):
        if echelon.add(*rows):
            kept_points.append(point)
            kept_rows.append(rows)
            if len(kept_points) > m:
                break
    return _report(Phi, tuple(kept_points), kept_rows, len(kept_points))
