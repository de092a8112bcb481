import re

import pytest

from morphlift.analysis import CheckReport
from morphlift.catalog import (
    CHECKS,
    CatalogEntry,
    UnknownEntry,
    entry_ids,
    lookup,
    run_entry,
)
from morphlift.cli import cli_main
from morphlift.mapfile import parse_map
from morphlift.maps import real_form

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
    blocks = (4, 4) if name == "orthogonal-multiplication" else ()
    assert isinstance(run(phi, *blocks), CheckReport)
