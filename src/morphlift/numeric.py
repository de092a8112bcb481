"""Floating-point verification of harmonicity and conformality for maps the
exact pipeline cannot carry (sqrt, division).

Derivatives are always symbolic (two applications for the Laplacian, never
nested finite differences), so only evaluation roundoff remains; a central
finite difference cross-checks every first derivative once per run.  Results
are falsification/confirmation evidence, not proofs, and reports say so.

A check compiles the guards and the derivatives it needs into one
:class:`~morphlift.expr.Tape` and runs it once over all its points, so each
distinct node is evaluated once per point, a column at a time.  The values,
and every error, are those of evaluating the trees one by one, point by
point: when the run over all points raises, or a guard fails, the points are
evaluated again one at a time in that order, which raises the first error.
Finite differences and guarded sampling run their points in blocks the same
way.  No points is an error, not a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

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
    """Symbolic complete lift: component k becomes sum_j d(phi^k)/dx_j * y_j.
    The components share one :func:`derivative` memo per variable."""
    m = phi.domain_dim
    memos = [{} for _ in range(m)]
    components = []
    for comp in phi.components:
        total = None
        for j in range(m):
            term = mul(derivative(comp, j, memos[j]), Var(m + j))
            total = term if total is None else add(total, term)
        components.append(total)
    names = phi.names() + tuple(f"y{j + 1}" for j in range(m))
    return SmoothMap(2 * m, tuple(components), phi.guards, names)


def _values_at(tape: Tape, point) -> Iterator[complex]:
    """The tape's output values at one point, in order, each evaluated when
    it is taken."""
    return (column[0] for column in tape.run((point,)))


def _finite_differences(tape: Tape, point, m: int, step=1e-6
                        ) -> Iterator[complex]:
    """Central differences of the one-output ``tape`` at ``point`` along
    x_1 .. x_m, in order.  The 2m shifted points run in one call; if that
    raises, they run one at a time, each difference when it is taken, so
    the error is the one that taking them one at a time meets."""
    shifted = []
    for j in range(m):
        forward = list(point)
        backward = list(point)
        forward[j] += step
        backward[j] -= step
        shifted += (forward, backward)
    try:
        (column,) = tape.run(shifted)
    except ArithmeticError:
        column = None
    for j in range(m):
        if column is None:
            (up,) = _values_at(tape, shifted[2 * j])
            (down,) = _values_at(tape, shifted[2 * j + 1])
        else:
            up, down = column[2 * j], column[2 * j + 1]
        yield (up - down) / (2 * step)


def _cross_check(phi: SmoothMap, point, symbolic_values: Iterator) -> None:
    """Compare every symbolic first derivative at ``point``, taken in order
    from ``symbolic_values``, with a central finite difference."""
    m = phi.domain_dim
    for k, comp in enumerate(phi.components):
        numeric_values = _finite_differences(compile_tape((comp,)), point, m)
        for j in range(m):
            symbolic = next(symbolic_values)
            numeric = next(numeric_values)
            scale = max(1.0, abs(symbolic))
            if abs(symbolic - numeric) > 1e-4 * scale:
                raise InternalConsistencyError(
                    f"d(component {k + 1})/dx{j + 1}: symbolic "
                    f"{symbolic:.6g} vs finite difference {numeric:.6g}")


def _raise_in_point_order(phi: SmoothMap, points: list, tape: Tape,
                          first: list) -> None:
    """Evaluate as the check does one point at a time, and raise its first
    error: point 0's guards, the cross-check at point 0, then each point's
    guards before its derivatives.  ``tape`` is the check's tape, whose
    outputs start with the guards.  No residual is computed."""
    phi.check_guard_values(_values_at(tape, points[0]))
    _cross_check(phi, points[0], _values_at(compile_tape(first), points[0]))
    for point in points:
        values = _values_at(tape, point)
        phi.check_guard_values(values)
        for _ in values:
            pass


def _derivatives(phi: SmoothMap) -> tuple[list, list]:
    """The first derivatives d phi^k / dx_j and the second ones
    d^2 phi^k / dx_j^2, both k-major, that :func:`numeric_check` reads.

    Each variable has one :func:`derivative` memo, which the first and the
    second derivatives by it share: a first derivative's tree holds
    subtrees of its component, which the second derivative then meets
    again and does not differentiate twice.  The memo is keyed by node
    ids; the components and the first derivatives keep every node it holds
    alive."""
    m = phi.domain_dim
    memos = [{} for _ in range(m)]
    first = [derivative(c, j, memos[j]) for c in phi.components for j in range(m)]
    second = [derivative(first[k * m + j], j, memos[j])
              for k in range(phi.codomain_dim) for j in range(m)]
    return first, second


def numeric_check(phi: SmoothMap, points, tolerance: float) -> ResidualReport:
    """Sampled residuals of the harmonicity and conformality conditions.

    The squared dilation has no closed form here, so per point it is
    estimated as the mean diagonal of G = J J^t; the conformality residual
    then measures the distance of G from that multiple of the identity.

    One tape holds the guards, then the second and the first derivatives,
    and runs once over all points.  Its guard columns are checked before
    any derivative is evaluated, and the cross-check of the first
    derivatives reads point 0 of their columns.  If the run raises or a
    guard is not positive somewhere, the points are evaluated one at a time
    in the order of a point-by-point check, so the error raised is the one
    that evaluating the trees one by one, point by point, would raise.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("numeric_check needs at least one point")
    m = phi.domain_dim
    n = phi.codomain_dim
    first, second = _derivatives(phi)
    tape = compile_tape([*phi.guards, *second, *first])
    try:
        columns = tape.run(points)
        for _ in phi.guards:
            if any(value.real <= 0 for value in next(columns)):
                # the replay raises the error that comes first in point order
                raise EvalDomainError("guard violated at sample point")
        columns = list(columns)
    except ArithmeticError:
        _raise_in_point_order(phi, points, tape, first)
        raise
    laplacian_blocks = [columns[k * m:(k + 1) * m] for k in range(n)]
    jacobian_blocks = [columns[(n + k) * m:(n + k + 1) * m] for k in range(n)]
    _cross_check(phi, points[0],
                 (column[0] for block in jacobian_blocks for column in block))

    laplacian_max = [0.0] * n
    conformality_max = 0.0
    witness = None
    for index, point in enumerate(points):
        for k, block in enumerate(laplacian_blocks):
            residual = abs(sum(column[index].real for column in block))
            if residual > laplacian_max[k]:
                laplacian_max[k] = residual
            if residual > tolerance and witness is None:
                witness = point
        jac = [[column[index].real for column in block]
               for block in jacobian_blocks]
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
        # no more draws than are still needed and allowed, so that drawing
        # one point at a time would make and test every draw of the block
        size = min(count - len(points), limit - attempts)
        draws = [tuple(rng.uniform(lo, hi) for _ in dims) for _ in range(size)]
        attempts += size
        try:
            points += _kept(guard_tape, draws)
        except ArithmeticError:     # draw by draw, so errors come in draw order
            for draw in draws:
                try:
                    points += _kept(guard_tape, [draw])
                except EvalDomainError:
                    pass
    return points


def _kept(guard_tape: Tape, draws: list) -> list:
    """The draws at which every guard value reaches ``GUARD_MARGIN``."""
    columns = list(guard_tape.run(draws))
    return [draw for i, draw in enumerate(draws)
            if all(column[i].real >= GUARD_MARGIN for column in columns)]
