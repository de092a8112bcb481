"""Deterministic random map generators shared across the test suites."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from morphlift.exact import GaussianRational
from morphlift.lift import complete_lift_real
from morphlift.maps import ComplexPolyMap, RealPolyMap
from morphlift.poly import MultiPoly


def monomials(num_vars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree."""
    if degree == 0:
        return [(0,) * num_vars]
    result = []
    for combo in itertools.combinations_with_replacement(range(num_vars), degree):
        exponents = [0] * num_vars
        for var in combo:
            exponents[var] += 1
        result.append(tuple(exponents))
    return sorted(set(result))


def _laplacian_matrix(num_vars: int, degree: int):
    """Matrix of the Laplacian from degree-d to degree-(d-2) monomials."""
    sources = monomials(num_vars, degree)
    targets = monomials(num_vars, degree - 2)
    target_index = {t: i for i, t in enumerate(targets)}
    rows = [[0] * len(sources) for _ in targets]
    for col, source in enumerate(sources):
        poly = MultiPoly(num_vars, {source: 1})
        lap = MultiPoly(num_vars, {})
        for j in range(num_vars):
            lap = lap + poly.partial(j).partial(j)
        for exponents, coeff in lap.terms.items():
            rows[target_index[exponents]][col] = coeff
    return rows, sources


def _kernel_basis(rows: list, cols: int) -> list:
    """A basis of the right kernel of an exact matrix given by its rows, one
    vector per free column of the reduced row echelon form."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[free] = 1
        for row_index, pivot_col in enumerate(pivots):
            vec[pivot_col] = -work[row_index][free]
        basis.append(vec)
    return basis


_HARMONIC_BASIS_CACHE: dict = {}


def harmonic_basis(num_vars: int, degree: int) -> list[MultiPoly]:
    """A basis of the harmonic homogeneous polynomials of the given degree,
    computed as the exact kernel of the Laplacian."""
    key = (num_vars, degree)
    if key in _HARMONIC_BASIS_CACHE:
        return _HARMONIC_BASIS_CACHE[key]
    if degree < 2:
        basis = [MultiPoly(num_vars, {e: 1}) for e in monomials(num_vars, degree)]
    else:
        rows, sources = _laplacian_matrix(num_vars, degree)
        basis = []
        for vector in _kernel_basis(rows, len(sources)):
            terms = {sources[i]: c for i, c in enumerate(vector) if c != 0}
            basis.append(MultiPoly(num_vars, terms))
    _HARMONIC_BASIS_CACHE[key] = basis
    return basis


def random_harmonic_map(rng: random.Random, num_vars: int, codomain: int,
                        max_degree: int = 4) -> RealPolyMap:
    """A polynomial map whose components are combinations of harmonic basis
    elements (hence harmonic by linearity)."""
    components = []
    for _ in range(codomain):
        total = MultiPoly(num_vars, {})
        for degree in range(1, max_degree + 1):
            basis = harmonic_basis(num_vars, degree)
            for _ in range(rng.randint(0, 2)):
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                total = total + rng.choice(basis).scale(coeff)
        components.append(total)
    return RealPolyMap(num_vars, codomain, components)


def random_real_poly(rng: random.Random, num_vars: int, max_degree: int = 3,
                     max_terms: int = 4) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exponents = rng.choice(monomials(num_vars, degree))
        terms[exponents] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(num_vars, terms)


def random_real_map(rng: random.Random, num_vars: int, codomain: int,
                    max_degree: int = 3) -> RealPolyMap:
    return RealPolyMap(num_vars, codomain,
                       [random_real_poly(rng, num_vars, max_degree)
                        for _ in range(codomain)])


def random_gaussian(rng: random.Random):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return GaussianRational(re, im)


def random_complex_poly(rng: random.Random, num_complex: int,
                        max_degree: int = 3, max_terms: int = 4,
                        holomorphic_only: bool = False) -> MultiPoly:
    num_vars = 2 * num_complex
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exponents = [0] * num_vars
        for _ in range(degree):
            if holomorphic_only:
                exponents[rng.randrange(num_complex)] += 1
            else:
                exponents[rng.randrange(num_vars)] += 1
        terms[tuple(exponents)] = random_gaussian(rng)
    return MultiPoly(num_vars, terms, num_complex)


def random_complex_map(rng: random.Random, num_complex: int, codomain: int,
                       max_degree: int = 3,
                       holomorphic_only: bool = False) -> ComplexPolyMap:
    return ComplexPolyMap(
        num_complex, codomain,
        [random_complex_poly(rng, num_complex, max_degree,
                             holomorphic_only=holomorphic_only)
         for _ in range(codomain)])


def random_symmetric_matrices(rng: random.Random, num_vars: int,
                              codomain: int) -> list:
    """``codomain`` symmetric integer matrices A_i (as row lists), each the
    sum of a random matrix and its transpose; about 0.3 % of them are 0 for
    num_vars = 2."""
    matrices = []
    for _ in range(codomain):
        upper = [[rng.randint(-3, 3) for _ in range(num_vars)]
                 for _ in range(num_vars)]
        matrices.append([[upper[i][j] + upper[j][i] for j in range(num_vars)]
                         for i in range(num_vars)])
    return matrices


def quadratic_map(matrices: list) -> RealPolyMap:
    """The map X -> (X^t A_1 X, ..., X^t A_n X) of symmetric matrices."""
    m = len(matrices[0])
    components = []
    for a in matrices:
        terms: dict = {}
        for j in range(m):
            for k in range(j, m):
                exponents = [0] * m
                exponents[j] += 1
                exponents[k] += 1
                terms[tuple(exponents)] = a[j][k] if j == k else a[j][k] + a[k][j]
        components.append(MultiPoly(m, terms))
    return RealPolyMap(m, len(matrices), components)


def random_quadratic_map(rng: random.Random, num_vars: int,
                         codomain: int) -> RealPolyMap:
    """A homogeneous quadratic map from random symmetric matrices (see
    :func:`random_symmetric_matrices`)."""
    return quadratic_map(random_symmetric_matrices(rng, num_vars, codomain))


def random_rational_point(rng: random.Random, length: int) -> tuple:
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(length))


def quaternionic_hopf(flip: bool = False) -> RealPolyMap:
    """The quaternionic Hopf map R^8 -> R^5, phi = (|x|^2 - |y|^2, 2*x*conj(y))
    for quaternions x = x1 + x2*i + x3*j + x4*k and y = x5 + ... + x8*k,
    exactly, with integer coefficients.  It is a harmonic morphism whose
    component Hessians square to 4I and pairwise anticommute.  With
    ``flip`` the term x1*x6 of the third component changes sign, and the
    Hessian conditions fail: H_2 H_3 + H_3 H_2 is 8 at cell (1, 2)."""
    x = [MultiPoly.variable(8, j) for j in range(4)]
    y = [MultiPoly.variable(8, j) for j in range(4, 8)]
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y[0], -y[1], -y[2], -y[3]          # conj(y)
    flipped = -(a0 * b1) if flip else a0 * b1
    product = [a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
               flipped + a1 * b0 + a2 * b3 - a3 * b2,
               a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
               a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0]
    components = [sum((p * p for p in x), MultiPoly(8, {}))
                  - sum((q * q for q in y), MultiPoly(8, {}))]
    components += [p.scale(2) for p in product]
    return RealPolyMap(8, 5, components)


def quaternionic_hopf_lifts(flip: bool = False) -> dict:
    """:func:`quaternionic_hopf` and its iterated complete lifts, keyed by
    domain dimension: R^8, R^16, R^32 and R^64."""
    maps = {8: quaternionic_hopf(flip)}
    for dim in (16, 32, 64):
        maps[dim] = complete_lift_real(maps[dim // 2])
    return maps
