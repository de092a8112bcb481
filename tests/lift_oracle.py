"""Test oracle for complete lifts: ``complete_lift_real`` and
``complete_lift_complex`` as they were when each ran its own loop, adding
one product ``remap(d phi^k / d v_j) * w_j`` at a time.

The bodies are the old functions' bodies, so the differential tests in
``test_lift.py`` compare the shared lift kernel with the loops it replaced.
These functions are not part of the package.
"""

from __future__ import annotations

from morphlift.maps import ComplexPolyMap, RealPolyMap
from morphlift.poly import MultiPoly


def complete_lift_real(phi: RealPolyMap) -> RealPolyMap:
    m = phi.domain_dim
    index_map = {j: j for j in range(m)}
    components = []
    for comp in phi.components:
        lifted = MultiPoly.zero(2 * m)
        for j in range(m):
            partial = comp.partial(j)
            if partial.is_zero:
                continue
            extended = partial.remap(2 * m, index_map)
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
        lifted = MultiPoly.zero(new_vars, 2 * m)
        for j in range(m):
            partial = comp.partial(j)  # holomorphic Wirtinger partial
            if partial.is_zero:
                continue
            extended = partial.remap(new_vars, index_map, 2 * m)
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
