"""``hwc_certificate`` and ``hessian_conditions`` build only the Gram and
Hessian entries their verdict and certificate read.  They must report what
the old bodies in ``analysis_oracle`` report, term for term, on every input,
and the work they skip must stay skipped."""

import random

import pytest

import analysis_oracle
import calculus_oracle
from genmaps import (
    random_harmonic_map,
    random_quadratic_map,
    random_real_map,
)
from morphlift import analysis
from morphlift.analysis import hessian_conditions, hwc_certificate
from morphlift.calculus import hessian
from morphlift.catalog import entry_ids, lookup
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map
from morphlift.maps import RealPolyMap, real_form
from morphlift.poly import MultiPoly

CHECKS = [(hwc_certificate, analysis_oracle.hwc_certificate),
          (hessian_conditions, analysis_oracle.hessian_conditions),
          (hessian_conditions, analysis_oracle.dense_hessian_conditions)]


def _terms(p):
    """The terms in dict order, each with its coefficient's type."""
    return None if p is None else [(e, c, type(c)) for e, c in p.terms.items()]


def _fields(report):
    v = report.violation
    violation = None if v is None else (
        v.kind, v.component_k, v.component_l, v.entry, _terms(v.residual))
    return (report.check, report.verdict, report.notes,
            _terms(report.dilation), violation)


def _assert_same(phi):
    for check, oracle in CHECKS:
        assert _fields(check(phi)) == _fields(oracle(phi)), oracle.__name__


def _catalog_maps():
    for entry_id in entry_ids():
        phi = real_form(parse_map(lookup(entry_id).definition))
        if isinstance(phi, RealPolyMap):
            yield entry_id, phi


CATALOG = list(_catalog_maps())


@pytest.mark.parametrize("entry_id,phi", CATALOG, ids=[e for e, _ in CATALOG])
def test_catalog_maps_and_their_lifts_match_the_oracle(entry_id, phi):
    _assert_same(phi)
    if phi.domain_dim <= 8:
        _assert_same(complete_lift_real(phi))


def test_lift_ladder_matches_the_oracle(phi_r16_real):
    _assert_same(phi_r16_real)
    _assert_same(complete_lift_real(phi_r16_real))


@pytest.mark.parametrize("flip", [False, True], ids=["hopf", "flipped"])
@pytest.mark.parametrize("dim", [8, 16, 32])
def test_hopf_lifts_match_the_dense_oracle(request, flip, dim):
    # the sparse rows and cells against dense rows over every stacked entry;
    # the oracle that builds all m^2 cells runs where it takes under a
    # second, and the R^64 lifts pass and fail as the R^32 ones do
    lifts = request.getfixturevalue(
        "flipped_hopf_lifts" if flip else "hopf_lifts")
    phi = lifts[dim]
    report = hessian_conditions(phi)
    assert report.verdict is not flip
    assert _fields(report) == \
        _fields(analysis_oracle.dense_hessian_conditions(phi))
    if dim <= 16:
        assert _fields(report) == _fields(analysis_oracle.hessian_conditions(phi))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_maps_match_the_oracle(seed):
    rng = random.Random(seed)
    maps = [random_real_map(rng, 3, rng.randint(1, 3)),
            random_harmonic_map(rng, 3, rng.randint(1, 3)),
            random_quadratic_map(rng, 3, rng.randint(1, 3))]
    for phi in maps:
        _assert_same(phi)
        _assert_same(complete_lift_real(phi))


# Maps whose certificate is not the first entry of its matrix.
HAND_BUILT = {
    # Gram entry (2, 2) is 4 against a dilation of 1; in the second map
    # (3, 3), 4*x3^2 against 1, fails after (2, 2) passes
    "diagonal": ("map f: R^2 -> R^2 { f1 = x1; f2 = 2*x2; }",
                 ("diagonal", 1, 2, None)),
    "late-diagonal": ("map f: R^3 -> R^3 { f1 = x1; f2 = x2; f3 = x3^2; }",
                      ("diagonal", 1, 3, None)),
    # H_2^2 - H_1^2 = diag(0, -4, 4): the first nonzero cell is (2, 2)
    "hessian-cell": ("map f: R^3 -> R^2 { f1 = x1^2 - x2^2; f2 = x1^2 - x3^2; }",
                     ("hessian-square", 1, 2, (2, 2))),
    # H_1 = diag(2, -2) and H_2 = H_3 square to 4I, and H_1 anticommutes with\n    # both: the first failure is H_2 H_3 + H_3 H_2 = 8I, at cell (1, 1)
    "anticommutator": ("map f: R^2 -> R^3 { f1 = x1^2 - x2^2; f2 = 2*x1*x2; "
                       "f3 = 2*x1*x2; }", ("hessian-anticommute", 2, 3, (1, 1))),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_certificates_match_the_oracle(name):
    source, certificate = HAND_BUILT[name]
    phi = parse_map(source)
    _assert_same(phi)
    check = hessian_conditions if certificate[0].startswith("hessian") \
        else hwc_certificate
    v = check(phi).violation
    assert (v.kind, v.component_k, v.component_l, v.entry) == certificate


# ---------------------------------------------------------------------------
# Work counts: what a certificate does not read is not built
# ---------------------------------------------------------------------------

@pytest.fixture
def poly_dot_calls(monkeypatch):
    calls = []
    real = analysis.poly_dot

    def counting(left, right):
        calls.append((left, right))
        return real(left, right)

    monkeypatch.setattr(analysis, "poly_dot", counting)
    return calls


@pytest.fixture
def derivative_calls(monkeypatch):
    """The number of calls of each differentiating method of MultiPoly:
    ``partials`` takes every nonzero first partial of a polynomial in one
    pass."""
    calls = {"partial": 0, "partials": 0}
    for name in calls:
        real = getattr(MultiPoly, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(MultiPoly, name, counting)
    return calls


def test_off_diagonal_refutation_builds_one_gram_entry(poly_dot_calls):
    report = hwc_certificate(parse_map(
        "map f: R^2 -> R^2 { f1 = x1 + x2; f2 = x1; }"))
    assert report.violation.kind == "off-diagonal"
    assert len(poly_dot_calls) == 1


def test_r32_rung_refutation_builds_no_dilation(phi_r16_real, poly_dot_calls):
    rung = complete_lift_real(phi_r16_real)
    report = hwc_certificate(rung)
    v = report.violation
    assert (v.kind, v.component_k, v.component_l) == ("off-diagonal", 1, 2)
    [(left, right)] = poly_dot_calls
    assert left is not right          # the dilation is rows[0] . rows[0]


def test_diagonal_refutation_builds_the_dilation_once(poly_dot_calls):
    report = hwc_certificate(parse_map(
        "map f: R^3 -> R^3 { f1 = x1; f2 = x2; f3 = x3^2; }"))
    assert report.violation.kind == "diagonal"
    first_row = poly_dot_calls[0][0]      # the first call is G[1, 2]
    dilations = [left for left, right in poly_dot_calls
                 if left is first_row and right is first_row]
    # G[1, 2], G[1, 3], G[2, 2], the dilation, G[2, 3], G[3, 3]
    assert len(dilations) == 1 and len(poly_dot_calls) == 6


def _cells_with_a_nonzero_pair(phi):
    """For each identity in the check's order, the cells (i, j) with j >= i
    of [left | right] . [top | bottom] that have a t at which both stacked
    entries are nonzero, read from the dense Hessians."""
    h = [analysis_oracle.hessian(c) for c in phi.components]
    m = phi.domain_dim
    identities = [(h[a], h[0], h[a], h[0]) for a in range(1, len(h))]
    identities += [(h[a], h[b], h[b], h[a])
                   for a in range(len(h)) for b in range(a + 1, len(h))]
    return [(i, j) for left, right, top, bottom in identities
            for i in range(m) for j in range(i, m)
            if any(left[i][t] and top[t][j] or right[i][t] and bottom[t][j]
                   for t in range(m))]


def test_r32_hopf_lift_forms_only_the_cells_with_a_nonzero_pair(hopf_lifts,
                                                               poly_dot_calls):
    # a passing check forms each cell on or above the diagonal that some
    # pair of nonzero stacked entries reaches, and no other, each from its
    # nonzero pairs alone
    phi = hopf_lifts[32]
    assert hessian_conditions(phi).verdict
    m = phi.domain_dim
    expected = _cells_with_a_nonzero_pair(phi)
    assert len(poly_dot_calls) == len(expected)
    # of the 14 identities' 7392 cells on or above the diagonal
    assert (len(expected), 14 * m * (m + 1) // 2) == (288, 7392)
    assert all(p and q for left, right in poly_dot_calls
               for p, q in zip(left, right, strict=True))


def test_r32_rung_hessian_conditions_build_o_m_second_partials(phi_r16_real,
                                                               derivative_calls):
    rung = complete_lift_real(phi_r16_real)
    m, n = rung.domain_dim, rung.codomain_dim
    derivative_calls.update(partial=0, partials=0)
    report = hessian_conditions(rung)
    assert report.violation.entry == (1, 1)
    # row 1 of H_1 and row 1 of H_2, each one partial and one partials()
    # pass; column 1 of each is its row 1, as the Hessian is symmetric, and
    # no other first partial is taken
    assert derivative_calls == {"partial": n, "partials": n}


def test_r64_hopf_lift_forms_no_zero_partial(hopf_lifts, monkeypatch):
    # a passing check reads every Hessian row of every component: each row
    # is one first partial and the nonzero second partials, and no zero
    # one; the only other polynomials formed are H_1's entries, negated
    phi = hopf_lifts[64]
    m = phi.domain_dim
    dense = [calculus_oracle.hessian_by_partials(c) for c in phi.components]
    nonzero = [sum(map(bool, h.row(i))) for h in dense for i in range(m)]
    formed = []
    real = MultiPoly._with

    def counting(self, terms):
        formed.append(len(terms))
        return real(self, terms)

    monkeypatch.setattr(MultiPoly, "_with", counting)
    assert hessian_conditions(phi).verdict
    assert formed.count(0) == 0
    assert len(formed) == len(nonzero) + sum(nonzero) + sum(nonzero[:m]) == 704
    # the dense rows formed 20,160 zero second partials here
    assert len(nonzero) * m - sum(nonzero) == 20160
    # entry (j, i) is entry (i, j) itself: a row reuses the rows built before
    for c in phi.components:
        h = hessian(c)
        rows = [h(i) for i in range(m)]
        assert all(rows[j][i] is q for i in range(m) for j, q in rows[i].items())
