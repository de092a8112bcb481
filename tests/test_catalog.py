import re

import pytest
from hypothesis import given, settings, strategies as st

from morphlift.analysis import CheckReport
from morphlift.catalog import (
    CHECKS,
    CatalogEntry,
    UnknownEntry,
    _poly_summary,
    entry_ids,
    lookup,
    run_entry,
)
from morphlift.cli import cli_main
from morphlift.exact import GaussianRational
from morphlift.mapfile import parse_map, parse_poly
from morphlift.maps import real_form
from morphlift.poly import MultiPoly, render

SPEC_IDS = {
    "ex1.4.i-zw",
    "ex1.4.i-zwbar",
    "ex1.4.ii-hopf-construction",
    "ex1.4.iii-quaternion",
    "ex1.4.iv-hyperbolic-stereographic",
    "ex1.4.v-orthogonal-projection",
    "ex2.4-complex-lift-Q",
    "ex3.1.iii-quaternion-real-lift",
    "ex3.5-antilift-obstruction",
    "ex3.7-R16-to-C",
}


def test_entry_list_is_complete():
    assert set(entry_ids()) == SPEC_IDS


def test_every_definition_parses():
    for entry_id in entry_ids():
        parse_map(lookup(entry_id).definition)


def test_every_definition_dump_round_trips():
    from morphlift.expr import SmoothMap
    from morphlift.mapfile import render_map_source

    for entry_id in entry_ids():
        first = parse_map(lookup(entry_id).definition)
        rendered = render_map_source(first, "g")
        second = parse_map(rendered)
        if isinstance(first, SmoothMap):
            assert render_map_source(second, "g") == rendered
        else:
            assert second == first


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntry):
        lookup("ex9.99-nonexistent")


def test_lookup_returns_entry():
    entry = lookup("ex1.4.i-zw")
    assert isinstance(entry, CatalogEntry)
    assert entry.kind == "complex_poly"


@pytest.mark.parametrize("entry_id", sorted(SPEC_IDS))
def test_entry_reproduces(entry_id):
    report = run_entry(entry_id)
    failures = [r for r in report["checks"] if not r["ok"]]
    assert not failures, failures


def test_quaternion_lift_entry_details():
    report = run_entry("ex3.1.iii-quaternion-real-lift")
    by_check = {r["check"]: r for r in report["checks"]}
    assert by_check["morphism"]["actual"] is True
    assert by_check["orthogonal-multiplication"]["actual"] is False


def test_discrepancy_notes_present():
    assert lookup("ex3.7-R16-to-C").notes
    assert lookup("ex1.4.i-zwbar").notes
    assert lookup("ex1.4.ii-hopf-construction").notes
    assert lookup("ex3.5-antilift-obstruction").notes


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------

ANALYSIS_ROWS = ["holomorphic", "harmonic", "hwc", "morphism",
                 "hessian-conditions", "orthogonal-multiplication"]


def _expectation_checks():
    return {e.check for entry_id in entry_ids() for e in lookup(entry_id).expected}


def test_every_expectation_names_a_table_row():
    assert _expectation_checks() <= set(CHECKS)


def test_every_table_row_is_used():
    assert set(CHECKS) == _expectation_checks() | set(ANALYSIS_ROWS)


def test_the_analysis_rows_lead_the_table():
    assert list(CHECKS)[:6] == ANALYSIS_ROWS


def test_check_help_lists_the_analysis_rows_in_table_order(capsys):
    assert cli_main(["check", "--help"]) == 0
    flags = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
    assert [f for f in flags if f not in ("--help", "--blocks")] == [
        f"--{name}" for name in list(CHECKS)[:6]]


@pytest.mark.parametrize("name", ANALYSIS_ROWS)
def test_analysis_row_returns_a_check_report(name):
    quaternion = parse_map(lookup("ex1.4.iii-quaternion").definition)
    form, run = CHECKS[name]
    phi = quaternion if form == "complex" else real_form(quaternion)
    blocks = (4,) if name == "orthogonal-multiplication" else ()
    assert isinstance(run(phi, *blocks), CheckReport)


# ---------------------------------------------------------------------------
# Certificate summaries
# ---------------------------------------------------------------------------

def _old_summary(p, limit=24):
    """``_poly_summary`` as it was when it rendered every term."""
    if len(p.terms) <= limit:
        return render(p)
    return (f"<{len(p.terms)} terms, total degree {max(map(sum, p.terms))}; "
            f"leading part {render(p).split(' + ')[0]} + ...>")


_ratios = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coefficients = st.one_of(
    _ratios,
    st.sampled_from([-1, 1, -2]),          # signs and units render specially
    st.builds(GaussianRational, _ratios, _ratios))


_MONOMIALS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]


@given(st.permutations(_MONOMIALS),
       st.lists(_coefficients, min_size=16, max_size=34), st.booleans())
@settings(max_examples=100)
def test_poly_summary_renders_what_the_full_rendering_did(monomials, coefficients,
                                                          complex_ring):
    # 16..34 terms, on both sides of the 24-term limit; the negative units
    # make leading runs of terms joined by " - "
    if complex_ring:
        p = MultiPoly(6, {e + (0, 0, 0): c for e, c in zip(monomials, coefficients)}, 3)
    else:
        p = MultiPoly(3, dict(zip(monomials, coefficients)))
    assert _poly_summary(p) == _old_summary(p)


def test_poly_summary_of_a_negative_leading_run():
    p = parse_poly(" - ".join(f"x1^{k}" for k in range(30, 0, -1)) + " + 1", 1)
    summary = _poly_summary(p)
    assert summary == _old_summary(p)
    run = " - ".join([f"x1^{k}" for k in range(30, 1, -1)] + ["x1"])
    assert summary == f"<31 terms, total degree 30; leading part {run} + ...>"
