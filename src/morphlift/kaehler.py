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

from .calculus import jacobian_at
from .exact import (
    ExactMatrix,
    GaussianRational,
    Scalar,
    imag_part,
    make_scalar,
    real_part,
)
from .maps import RealPolyMap, ShapeError

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
    that no m-dimensional isotropic subspace contains them all.

    The real Jacobian's rows u, v at a point give both the complex gradient
    u + i*v and the Jacobian rank there."""
    _check_two_components(Phi)
    points = tuple(points)
    rows = jacobian_at(Phi, map(complex_point_to_real, points))
    return _report(Phi, points, list(rows))


def _check_two_components(Phi: RealPolyMap) -> None:
    if Phi.codomain_dim != 2:
        raise ShapeError(
            f"complex gradient needs a two-component map, got {Phi.codomain_dim}")


def _report(Phi: RealPolyMap, points: tuple, rows: list) -> KaehlerReport:
    """The report on the points, given the real Jacobian's rows at each."""
    m = Phi.domain_dim // 2
    gradients = tuple(tuple(map(make_scalar, u, v)) for u, v in rows)
    jacobian_ranks = tuple(ExactMatrix(uv).rank() for uv in rows)
    rank = ExactMatrix(gradients).rank()
    isotropy_ok = all(_orthogonal(uv, uv) for uv in rows)
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
    Points are drawn one at a time, as the search reads them."""
    _check_two_components(Phi)
    rng = random.Random(seed)
    m = Phi.domain_dim // 2
    drawn, again = tee(tuple(rng.choice(_ALPHABET) for _ in range(m))
                       for _ in range(budget))
    kept_points = []
    kept_rows = []
    kept_gradients: list[tuple] = []
    rank = 0
    for point, rows in zip(drawn,
                           jacobian_at(Phi, map(complex_point_to_real, again))):
        gradient = tuple(map(make_scalar, *rows))
        if all(value == 0 for value in gradient):
            continue
        candidate = ExactMatrix(kept_gradients + [gradient])
        new_rank = candidate.rank()
        if new_rank > rank:
            kept_points.append(point)
            kept_rows.append(rows)
            kept_gradients.append(gradient)
            rank = new_rank
        if rank > m:
            break
    return _report(Phi, tuple(kept_points), kept_rows)
