"""Test oracle for complete lifts: ``complete_lift_real`` and
``complete_lift_complex`` as they were when each ran its own loop, adding
one product ``remap(d phi^k / d v_j) * w_j`` at a time;
``packed_complete_lift``, the shared lift kernel as it was when it took each
partial, remapped it and summed its products with the fiber variables through
``poly_dot``; ``anti_lift`` as it was when it added one single-term
polynomial at a time into each entry of the coefficient matrix; and
``packed_anti_lift`` and ``packed_block_jacobian_check``, ``anti_lift`` and
``block_jacobian_check`` as they were when they split and embedded packed
keys through ``MultiPoly.fiber_coefficients`` and ``MultiPoly.remap``,
which ``poly_oracle`` keeps.  Every remap here is ``poly_oracle``'s.
``anti_lift_by_partials`` is ``anti_lift`` as it was when its integrability
stage took two single ``MultiPoly.partial`` scans per pair of entries of
M(x), before it compared one ``MultiPoly.partials`` dict per entry.

The bodies are the old functions' bodies, so the differential tests in
``test_lift.py`` compare the one-pass lift and the anti-lift with the code
they replaced.  These functions are not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from morphlift.calculus import jacobian
from morphlift.exact import DimensionMismatch
from morphlift.lift import (
    MixedPartialObstruction,
    NotPartialLinear,
    complete_lift_real as package_lift_real,
)
from morphlift.maps import ComplexPolyMap, RealPolyMap, ShapeError
from morphlift.poly import MultiPoly, poly_dot
from poly_oracle import packed_fiber_coefficients, packed_remap


def complete_lift_real(phi: RealPolyMap) -> RealPolyMap:
    m = phi.domain_dim
    index_map = {j: j for j in range(m)}
    components = []
    for comp in phi.components:
        lifted = MultiPoly(2 * m, {})
        for j in range(m):
            partial = comp.partial(j)
            if partial.is_zero:
                continue
            extended = packed_remap(partial, 2 * m, index_map)
            lifted = lifted + extended * MultiPoly.variable(2 * m, m + j)
        components.append(lifted)
    names = tuple(phi.names()) + tuple(f"y{j + 1}" for j in range(m))
    if len(set(names)) != len(names):
        names = None  # repeated lifting: fall back to canonical x-names
    return RealPolyMap(2 * m, phi.codomain_dim, components, names)


def complete_lift_complex(phi: ComplexPolyMap) -> ComplexPolyMap:
    m = phi.domain_dim
    new_vars = 4 * m
    # old z_j -> j, old zb_j -> 2m + j; fiber w_j -> m + j, wb_j -> 3m + j
    index_map = {j: j for j in range(m)}
    index_map.update({m + j: 2 * m + j for j in range(m)})
    components = []
    for comp in phi.components:
        lifted = MultiPoly(new_vars, {}, 2 * m)
        for j in range(m):
            partial = comp.partial(j)  # holomorphic Wirtinger partial
            if partial.is_zero:
                continue
            extended = packed_remap(partial, new_vars, index_map, 2 * m)
            lifted = lifted + extended * MultiPoly.variable(new_vars, m + j, 2 * m)
        components.append(lifted)
    if phi.var_names is not None:
        holo = phi.var_names
    else:
        holo = tuple(f"z{j + 1}" for j in range(m))
    names = holo + tuple(f"w{j + 1}" for j in range(m))
    if len(set(names)) != len(names):
        names = None  # repeated lifting: fall back to canonical z-names
    return ComplexPolyMap(2 * m, phi.codomain_dim, components, names)


def packed_complete_lift(phi, fiber: str):
    """The real (fiber ``"y"``) or complex (fiber ``"w"``) complete lift."""
    m = phi.domain_dim
    num_vars, num_complex = phi.ring(2 * m)
    index_map = {j: 2 * m * (j // m) + j % m for j in range(phi.ring(m)[0])}
    fiber_variable = cache(lambda j: MultiPoly.variable(num_vars, m + j, num_complex))
    components = []
    for comp in phi.components:
        pairs = [(packed_remap(p, num_vars, index_map, num_complex), fiber_variable(j))
                 for j, p in enumerate(map(comp.partial, range(m))) if p]
        components.append(poly_dot(*zip(*pairs)) if pairs
                          else MultiPoly(num_vars, {}, num_complex))
    names = phi.names()[:m] + tuple(f"{fiber}{j + 1}" for j in range(m))
    if len(set(names)) != len(names):
        names = None  # repeated lifting: fall back to canonical names
    return type(phi)(2 * m, phi.codomain_dim, components, names)


def anti_lift(Phi, split):
    if Phi.domain_dim != split.total_dim:
        raise DimensionMismatch(
            f"map has {Phi.domain_dim} variables, split describes {split.total_dim}")
    m = split.split_index

    # stage (a): extract M(x) with Phi^i = sum_j M[i][j](x) * y_j
    coefficient_rows: list[list[MultiPoly]] = []
    for index, comp in enumerate(Phi.components, start=1):
        row = [MultiPoly(m, {}) for _ in range(m)]
        for exponents, coeff in comp.terms.items():
            fiber = exponents[m:]
            fiber_degree = sum(fiber)
            if fiber_degree != 1:
                return NotPartialLinear(index, exponents, fiber_degree)
            j = fiber.index(1)
            base_exp = exponents[:m]
            row[j] = row[j] + MultiPoly(m, {base_exp: coeff})
        coefficient_rows.append(row)

    # stage (b): integrability dM_ij/dx_k == dM_ik/dx_j
    for index, row in enumerate(coefficient_rows, start=1):
        for j in range(m):
            for k in range(j + 1, m):
                djk = row[j].partial(k)
                dkj = row[k].partial(j)
                if djk != dkj:
                    return MixedPartialObstruction(index, j + 1, k + 1, djk, dkj)

    # stage (c): phi^i(x) = sum_j integral_0^1 M_ij(t x) x_j dt, exactly
    components = []
    for row in coefficient_rows:
        terms: dict = {}
        for j in range(m):
            for exponents, coeff in row[j].terms.items():
                degree = sum(exponents)
                lifted = list(exponents)
                lifted[j] += 1
                key = tuple(lifted)
                if isinstance(coeff, int):
                    scaled = Fraction(coeff, degree + 1)
                else:
                    scaled = coeff / (degree + 1)
                terms[key] = terms.get(key, 0) + scaled
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, Phi.codomain_dim, components)


def packed_block_jacobian_check(phi: RealPolyMap) -> bool:
    for index, comp in enumerate(phi.components, start=1):
        if any(sum(exponents) != 2 for exponents in comp.terms):
            raise ShapeError(f"component {index} is not homogeneous of degree 2")
    m = phi.domain_dim
    left = jacobian(package_lift_real(phi))

    base_jac = jacobian(phi)
    to_y = {j: m + j for j in range(m)}    # substitute x -> y block
    to_x = {j: j for j in range(m)}
    for i in range(phi.codomain_dim):
        for j in range(m):
            jac_at_y = packed_remap(base_jac[i, j], 2 * m, to_y)
            jac_at_x = packed_remap(base_jac[i, j], 2 * m, to_x)
            if left[i, j] != jac_at_y:
                return False
            if left[i, m + j] != jac_at_x:
                return False
    return True


def packed_anti_lift(Phi: RealPolyMap):
    m, odd = divmod(Phi.domain_dim, 2)
    if odd:
        raise DimensionMismatch(f"a complete lift has an even number of "
                                f"variables; this map has {Phi.domain_dim}")

    # stage (a): extract M(x) with Phi^i = sum_j M[i][j](x) * y_j
    coefficient_rows: list[list[MultiPoly]] = []
    for index, comp in enumerate(Phi.components, start=1):
        try:
            coefficient_rows.append(packed_fiber_coefficients(comp))
        except ValueError:
            for exponents in comp.terms:
                fiber_degree = sum(exponents[m:])
                if fiber_degree != 1:
                    return NotPartialLinear(index, exponents, fiber_degree)
            raise

    # stage (b): integrability dM_ij/dx_k == dM_ik/dx_j
    for index, row in enumerate(coefficient_rows, start=1):
        for j in range(m):
            for k in range(j + 1, m):
                djk = row[j].partial(k)
                dkj = row[k].partial(j)
                if djk != dkj:
                    return MixedPartialObstruction(index, j + 1, k + 1, djk, dkj)

    # stage (c): phi^i(x) = sum_j integral_0^1 M_ij(t x) x_j dt, exactly
    components = []
    for row in coefficient_rows:
        terms: dict = {}
        for j in range(m):
            for exponents, coeff in row[j].terms.items():
                # x^a integrates along t x to x^(a + e_j) / (|a| + 1)
                key = exponents[:j] + (exponents[j] + 1,) + exponents[j + 1:]
                terms[key] = terms.get(key, 0) + Fraction(coeff, sum(key))
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, Phi.codomain_dim, components)


def anti_lift_by_partials(Phi: RealPolyMap):
    m, odd = divmod(Phi.domain_dim, 2)
    if odd:
        raise DimensionMismatch(f"a complete lift has an even number of "
                                f"variables; this map has {Phi.domain_dim}")

    # stage (a): extract M(x) with Phi^i = sum_j M[i][j](x) * y_j
    coefficient_rows: list[list[MultiPoly]] = []
    for index, comp in enumerate(Phi.components, start=1):
        entries: list[dict] = [{} for _ in range(m)]
        for exponents, coeff in comp.terms.items():
            fiber = exponents[m:]
            if sum(fiber) != 1:
                return NotPartialLinear(index, exponents, sum(fiber))
            entries[fiber.index(1)][exponents[:m]] = coeff
        # the coefficients are a canonical component's, taken as they are
        coefficient_rows.append([MultiPoly._trusted(m, terms)
                                 for terms in entries])

    # stage (b): integrability dM_ij/dx_k == dM_ik/dx_j
    for index, row in enumerate(coefficient_rows, start=1):
        for j in range(m):
            for k in range(j + 1, m):
                djk = row[j].partial(k)
                dkj = row[k].partial(j)
                if djk != dkj:
                    return MixedPartialObstruction(index, j + 1, k + 1, djk, dkj)

    # stage (c): phi^i(x) = sum_j integral_0^1 M_ij(t x) x_j dt, exactly
    components = []
    for row in coefficient_rows:
        terms: dict = {}
        for j in range(m):
            for exponents, coeff in row[j].terms.items():
                # x^a integrates along t x to x^(a + e_j) / (|a| + 1)
                key = exponents[:j] + (exponents[j] + 1,) + exponents[j + 1:]
                terms[key] = terms.get(key, 0) + Fraction(coeff, sum(key))
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, Phi.codomain_dim, components)
