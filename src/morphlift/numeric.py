"""Floating-point verification of harmonicity and conformality for maps the
exact pipeline cannot carry (sqrt, division).

Derivatives are always symbolic (two applications for the Laplacian, never
nested finite differences), so only evaluation roundoff remains; a central
finite difference cross-checks every first derivative once per run.  Results
are falsification/confirmation evidence, not proofs, and reports say so.

A check compiles the guards and the derivatives it needs into one
:class:`~morphlift.expr.Tape` and runs it once per point, so each distinct
node is evaluated once per point.  The values, and every error, are those of
evaluating the trees one by one.  No points is an error, not a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import (
    EvalDomainError,
    SmoothMap,
    Tape,
    Var,
    add,
    compile_tape,
    derivative,
    mul,
)


# Every guard value at a sampled point is at least this large.
GUARD_MARGIN = 1e-6
# Sampled coordinates are drawn uniformly from this interval.
SAMPLE_BOX = (-2.0, 2.0)


class SamplingError(RuntimeError):
    """Rejection sampling could not find enough guard-satisfying points."""


class InternalConsistencyError(RuntimeError):
    """A symbolic derivative disagrees with its finite-difference cross-check."""


@dataclass(frozen=True)
class ResidualReport:
    points: tuple
    laplacian_residuals: tuple     # per component: max |Laplacian| over points
    conformality_residual: float   # max over points and (k, l) of |G_kl - L*d_kl|
    tolerance: float
    verdict: bool                  # all residuals <= tolerance at all points
    witness_point: tuple = None    # first point exceeding the tolerance
    notes: tuple = (
        "numeric evidence only: residuals are sampled, not proven bounds",
    )


def numeric_complete_lift(phi: SmoothMap) -> SmoothMap:
    """Symbolic complete lift: component k becomes sum_j d(phi^k)/dx_j * y_j."""
    m = phi.domain_dim
    components = []
    for comp in phi.components:
        total = None
        for j in range(m):
            term = mul(derivative(comp, j), Var(m + j))
            total = term if total is None else add(total, term)
        components.append(total)
    names = phi.names() + tuple(f"y{j + 1}" for j in range(m))
    return SmoothMap(2 * m, tuple(components), phi.guards, names)


def _finite_difference(tape: Tape, point, j, step=1e-6):
    forward = list(point)
    backward = list(point)
    forward[j] += step
    backward[j] -= step
    (up,) = tape.run(forward)
    (down,) = tape.run(backward)
    return (up - down) / (2 * step)


def numeric_check(phi: SmoothMap, points, tolerance: float) -> ResidualReport:
    """Sampled residuals of the harmonicity and conformality conditions.

    The squared dilation has no closed form here, so per point it is
    estimated as the mean diagonal of G = J J^t; the conformality residual
    then measures the distance of G from that multiple of the identity.

    One tape holds the guards, then the second and the first derivatives,
    and runs once per point.  Each guard's sign is checked before any node
    of a later output is evaluated, so every error is the one that
    evaluating the trees one by one, in that order, would raise.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("numeric_check needs at least one point")
    m = phi.domain_dim
    n = phi.codomain_dim
    first = [derivative(c, j) for c in phi.components for j in range(m)]
    second = [derivative(first[k * m + j], j) for k in range(n) for j in range(m)]
    tape = compile_tape([*phi.guards, *second, *first])

    # cross-check every symbolic first derivative at the first point
    p0 = points[0]
    phi.check_guard_values(compile_tape(phi.guards).run(p0))
    symbolic_values = compile_tape(first).run(p0)
    for k, comp in enumerate(phi.components):
        comp_tape = compile_tape((comp,))
        for j in range(m):
            symbolic = next(symbolic_values)
            numeric = _finite_difference(comp_tape, p0, j)
            scale = max(1.0, abs(symbolic))
            if abs(symbolic - numeric) > 1e-4 * scale:
                raise InternalConsistencyError(
                    f"d(component {k + 1})/dx{j + 1}: symbolic "
                    f"{symbolic:.6g} vs finite difference {numeric:.6g}")

    laplacian_max = [0.0] * n
    conformality_max = 0.0
    witness = None
    for point in points:
        values = tape.run(point)
        phi.check_guard_values(values)
        for k in range(n):
            residual = abs(sum(next(values).real for _ in range(m)))
            if residual > laplacian_max[k]:
                laplacian_max[k] = residual
            if residual > tolerance and witness is None:
                witness = point
        jac = [[next(values).real for _ in range(m)] for _ in range(n)]
        g = [[sum(jac[k][i] * jac[l][i] for i in range(m)) for l in range(n)]
             for k in range(n)]
        dilation = sum(g[k][k] for k in range(n)) / n
        for k in range(n):
            for l in range(n):
                target = dilation if k == l else 0.0
                residual = abs(g[k][l] - target)
                if residual > conformality_max:
                    conformality_max = residual
                if residual > tolerance and witness is None:
                    witness = point
    verdict = witness is None
    return ResidualReport(tuple(points), tuple(laplacian_max),
                          conformality_max, tolerance, verdict, witness)


def sample_points(phi: SmoothMap, count: int, seed: int) -> list[tuple]:
    """Deterministic guarded sampling: uniform draws in the cube
    ``SAMPLE_BOX`` in every coordinate, rejecting points where a guard
    value falls below ``GUARD_MARGIN``."""
    if count < 0:
        raise ValueError(f"cannot sample {count} points")
    lo, hi = SAMPLE_BOX
    dims = range(phi.domain_dim)
    guard_tape = compile_tape(phi.guards)
    rng = random.Random(seed)
    points: list[tuple] = []
    attempts = 0
    limit = max(1000, count * 100)
    while len(points) < count:
        if attempts >= limit:
            raise SamplingError(
                f"rejected {attempts} of {attempts + len(points)} draws; "
                "the guards exclude almost all of the sampling box")
        attempts += 1
        point = tuple(rng.uniform(lo, hi) for _ in dims)
        try:
            guard_values = [value.real for value in guard_tape.run(point)]
        except EvalDomainError:
            continue
        if all(value >= GUARD_MARGIN for value in guard_values):
            points.append(point)
    return points
