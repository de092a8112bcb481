import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import morphlift
from morphlift import poly
from morphlift.catalog import entry_ids, lookup, registry
from morphlift.cli import MAX_SAMPLE_POINTS, cli_main
from morphlift.expr import MAX_POWER_BITS, MAX_POWER_TERMS, SmoothMap
from morphlift.lift import complete_lift_real
from morphlift.mapfile import (
    MAX_DIMENSION,
    MapSyntaxError,
    parse_map,
    parse_poly,
    render_map_source,
)
from morphlift.maps import (
    MAX_PAIR_DEGREE,
    ShapeError,
    real_form,
    real_identification,
)

QUATERNION_SRC = """map q: C^4 -> C^2 {
    q1 = z1*z3 - z2*conj(z4);
    q2 = z1*z4 + z2*conj(z3);
}"""


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def run_cli_json(argv):
    code, text = run_cli(["--json", *argv])
    return code, json.loads(text)


@pytest.fixture()
def quaternion_file(tmp_path):
    path = tmp_path / "quaternion.map"
    path.write_text(QUATERNION_SRC)
    return str(path)


@pytest.fixture()
def stereographic_file(tmp_path):
    code, text = run_cli(["catalog", "dump", "ex1.4.iv-hyperbolic-stereographic"])
    assert code == 0
    path = tmp_path / "stereo.map"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_real_prints_coefficient_matrix(quaternion_file):
    code, text = run_cli(["lift", "--real", quaternion_file])
    assert code == 0
    assert "[x5, -x6, -x7, -x8, x1, -x2, -x3, -x4]" in text
    assert "[x8, x7, -x6, x5, x4, -x3, x2, x1]" in text


def test_lift_real_sorts_each_component_once_and_splits_none(
        quaternion_file, monkeypatch):
    # the components and the coefficient matrix are written from one
    # graded pass over each lifted component
    graded = []
    sort = poly._graded

    def counted_sort(p):
        graded.append(p)
        return sort(p)

    monkeypatch.setattr(poly, "_graded", counted_sort)
    code, text = run_cli(["lift", "--real", quaternion_file])
    assert code == 0 and "coefficient matrix M(x)" in text
    lifted = complete_lift_real(real_identification(parse_map(QUATERNION_SRC)))
    assert graded == list(lifted.components) and len(graded) == 4


def test_lift_complex(quaternion_file):
    code, payload = run_cli_json(["lift", "--complex", quaternion_file])
    assert code == 0
    assert payload["schema"] == 1
    assert payload["components"] == ["z1*w3 + z3*w1 - w2*zb4",
                                     "z1*w4 + z4*w1 + w2*zb3"]


def test_lift_smooth(stereographic_file):
    code, payload = run_cli_json(["lift", "--real", stereographic_file])
    assert code == 0
    assert payload["kind"] == "smooth"
    assert payload["domain_dim"] == 6


def test_lift_complex_rejects_real_input(tmp_path):
    path = tmp_path / "real.map"
    path.write_text("map f: R^2 -> R^1 { f1 = x1; }")
    code, _ = run_cli(["lift", "--complex", str(path)])
    assert code == 2


def test_lift_real_with_exponents_past_one_byte(tmp_path):
    # lowering and lifting these need exponent fields wider than one byte
    path = tmp_path / "wide.map"
    path.write_text("map w: R^2 -> R^2 {\n"
                    "    w1 = x1^300 + x2;\n"
                    "    w2 = (x1^100 - 2/3*x2)^3;\n"
                    "}\n")
    code, text = run_cli(["lift", "--real", str(path)])
    assert code == 0
    assert text == (
        "real complete lift: R^2 -> R^2 lifts to R^4 -> R^2\n"
        "  F1 = 300*x1^299*y1 + y2\n"
        "  F2 = 300*x1^299*y1 - 2*x1^200*y2 - 400*x1^199*x2*y1"
        " + 8/3*x1^100*x2*y2 + 400/3*x1^99*x2^2*y1 - 8/9*x2^2*y2\n"
        "coefficient matrix M(x) with lift = M(x) * y:\n"
        "  [300*x1^299, 1]\n"
        "  [300*x1^299 - 400*x1^199*x2 + 400/3*x1^99*x2^2,"
        " -2*x1^200 + 8/3*x1^100*x2 - 8/9*x2^2]\n")


def _lift_maps():
    """The polynomial catalog maps, as their files hold them, and 20 genmaps
    maps, as map files that render_map_source writes."""
    from genmaps import random_complex_map, random_harmonic_map, random_real_map

    sources = [lookup(e).definition for e in entry_ids()
               if not isinstance(parse_map(lookup(e).definition), SmoothMap)]
    rng = random.Random(28)
    maps = [random_real_map(rng, rng.randint(1, 5), rng.randint(1, 3),
                            max_degree=4) for _ in range(12)]
    maps += [random_harmonic_map(rng, 3, 2) for _ in range(4)]
    maps += [random_complex_map(rng, rng.randint(1, 2), 2) for _ in range(4)]
    return sources + [render_map_source(phi, "g") for phi in maps]


def test_lift_real_coefficient_matrix_is_the_jacobian(tmp_path):
    # the paper's complete lift is Phi = M(x) * y with M = J(phi): each
    # entry read back in the base's names is d phi_k / d x_j
    sources = _lift_maps()
    assert len(sources) >= 29
    for index, source in enumerate(sources):
        path = tmp_path / f"map{index}.map"
        path.write_text(source)
        code, payload = run_cli_json(["lift", "--real", str(path)])
        assert code == 0
        base = real_form(parse_map(source))
        m = base.domain_dim
        matrix = payload["coefficient_matrix"]
        assert len(matrix) == base.codomain_dim
        for row, component in zip(matrix, base.components):
            assert [parse_poly(entry, m) for entry in row] == \
                [component.partial(j) for j in range(m)]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_morphism_verdict_and_dilation(quaternion_file):
    code, payload = run_cli_json(["check", quaternion_file, "--morphism"])
    assert code == 0
    (result,) = payload["checks"]
    assert result["verdict"] is True
    assert result["dilation"] == \
        "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + x7^2 + x8^2"


def test_check_default_runs_applicable_checks(quaternion_file):
    code, payload = run_cli_json(["check", quaternion_file])
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == ["holomorphic", "harmonic", "hwc", "harmonic_morphism"]


def test_check_dilation_round_trips_through_parser(quaternion_file):
    code, payload = run_cli_json(["check", quaternion_file, "--hwc"])
    assert code == 0
    dilation_text = payload["checks"][0]["dilation"]
    reparsed = parse_poly(dilation_text, 8)
    expected = parse_poly(" + ".join(f"x{j}^2" for j in range(1, 9)), 8)
    assert reparsed == expected


def test_lift_components_round_trip_through_parser(quaternion_file):
    from morphlift.lift import complete_lift_real
    from morphlift.maps import MAX_PAIR_DEGREE, ShapeError, real_identification

    code, payload = run_cli_json(["lift", "--real", quaternion_file])
    assert code == 0
    names = payload["variables"]
    lift = complete_lift_real(real_identification(parse_map(QUATERNION_SRC)))
    for text, expected in zip(payload["components"], lift.components):
        assert parse_poly(text, 16, 0, names) == expected


def test_check_holomorphic_on_real_map_is_usage_error(tmp_path):
    path = tmp_path / "real.map"
    path.write_text("map f: R^2 -> R^1 { f1 = x1; }")
    code, _ = run_cli(["check", str(path), "--holomorphic"])
    assert code == 2


# with no --blocks, the first block is half the (even) domain
@pytest.mark.parametrize("blocks", [["--blocks", "4"], []], ids=["4", "default"])
def test_check_orthogonal_multiplication_blocks(quaternion_file, blocks):
    code, payload = run_cli_json(["check", quaternion_file,
                                  "--orthogonal-multiplication", *blocks])
    assert code == 0
    assert payload["checks"][0]["verdict"] is True


def test_check_verdict_false_still_exits_zero(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("map f: R^2 -> R^2 { f1 = x1; f2 = 2*x2; }")
    code, payload = run_cli_json(["check", str(path), "--morphism"])
    assert code == 0
    assert payload["checks"][0]["verdict"] is False
    assert "residual" in payload["checks"][0]["violation"]


# ---------------------------------------------------------------------------
# antilift
# ---------------------------------------------------------------------------

def test_antilift_obstruction_report(tmp_path):
    code, text = run_cli(["catalog", "dump", "ex3.5-antilift-obstruction"])
    assert code == 0
    path = tmp_path / "qr.map"
    path.write_text(text)
    code, payload = run_cli_json(["antilift", str(path)])
    assert code == 0
    assert payload["result"] == "mixed-partial-obstruction"
    assert payload["component"] == 2
    assert payload["values"] == ["-1", "1"]


def test_antilift_recovers_base(tmp_path):
    path = tmp_path / "lift.map"
    path.write_text("map f: R^4 -> R^1 { f1 = 2*x1*x3 + x4; }")
    code, payload = run_cli_json(["antilift", str(path)])
    assert code == 0
    assert payload["result"] == "complete-lift"
    assert payload["base_components"] == ["x1^2 + x2"]


def test_antilift_odd_domain_is_usage_error(tmp_path, capsys):
    path = tmp_path / "f.map"
    path.write_text("map f: R^3 -> R^1 { f1 = x1; }")
    code, text = run_cli(["antilift", str(path)])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == ("error: a complete lift has an even number "
                                       "of variables; this map has 3\n")


# ---------------------------------------------------------------------------
# kaehler
# ---------------------------------------------------------------------------

@pytest.fixture()
def phi_file(tmp_path):
    code, text = run_cli(["catalog", "dump", "ex3.7-R16-to-C"])
    assert code == 0
    path = tmp_path / "phi.map"
    path.write_text(text)
    return str(path)


def test_kaehler_points_file(phi_file, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("0, 0, 1, 0, 1, 0, 0, 1\n"
                   "0, 0, i, 0, 1, 0, 0, 1\n"
                   "# comment line\n"
                   "0, 0, 1-1*i, 0, 1, 1, 0, 0\n")
    code, payload = run_cli_json(["kaehler", phi_file, "--points", str(pts)])
    assert code == 0
    assert payload["rank"] == 3
    assert payload["verdict"] == "inconclusive"
    assert payload["gradients"][0] == \
        ["1", "i", "0", "0", "0", "0", "1", "i", "0", "0", "1", "i", "0", "0", "0", "0"]


def test_kaehler_search_certifies(phi_file):
    code, payload = run_cli_json(["kaehler", phi_file, "--search",
                                  "--budget", "500", "--seed", "0"])
    assert code == 0
    assert payload["verdict"] == "not_kaehler_certified"
    assert payload["rank"] == 9


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("flags,message", [
    (["--budget", "-5", "--seed", "3"], "error: --budget needs --search\n"),
    (["--budget", "500"], "error: --budget needs --search\n"),
    (["--seed", "0"], "error: --seed needs --search\n"),
], ids=["both", "budget", "seed"])
def test_kaehler_search_flags_need_search(phi_file, tmp_path, capsys, json_flag,
                                          flags, message):
    pts = tmp_path / "points.txt"
    pts.write_text("0, 0, 1, 0, 1, 0, 0, 1\n")
    code, text = run_cli([*json_flag, "kaehler", phi_file, "--points", str(pts),
                          *flags])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == message


def test_kaehler_search_defaults_to_budget_500_and_seed_0(phi_file):
    assert run_cli(["kaehler", phi_file, "--search"]) == \
        run_cli(["kaehler", phi_file, "--search", "--budget", "500", "--seed", "0"])


def test_kaehler_gradient_scalars_round_trip(phi_file, tmp_path):
    from morphlift.mapfile import parse_gaussian
    from morphlift.exact import render_scalar

    pts = tmp_path / "points.txt"
    pts.write_text("0, 0, 1-1*i, 0, 1, 1, 0, 0\n")
    code, payload = run_cli_json(["kaehler", phi_file, "--points", str(pts)])
    assert code == 0
    for gradient in payload["gradients"]:
        for cell in gradient:
            assert render_scalar(parse_gaussian(cell)) == cell


def test_kaehler_bad_points_file(phi_file, tmp_path):
    pts = tmp_path / "bad.txt"
    pts.write_text("1, 2, 3\n")
    code, _ = run_cli(["kaehler", phi_file, "--points", str(pts)])
    assert code == 2


def test_kaehler_accepts_real_two_component_maps(tmp_path):
    path = tmp_path / "zw.map"
    path.write_text("map f: R^4 -> R^2 { f1 = x1*x3 - x2*x4; "
                    "f2 = x1*x4 + x2*x3; }")
    pts = tmp_path / "pts.txt"
    pts.write_text("1, 0\n0, 1\ni, 1\n")
    code, payload = run_cli_json(["kaehler", str(path), "--points", str(pts)])
    assert code == 0
    assert payload["m"] == 2
    assert payload["verdict"] == "inconclusive"


def test_kaehler_rejects_wrong_codomain(tmp_path):
    path = tmp_path / "f.map"
    path.write_text("map f: R^4 -> R^3 { f1 = x1; f2 = x2; f3 = x3; }")
    code, _ = run_cli(["kaehler", str(path), "--search"])
    assert code == 2


# ---------------------------------------------------------------------------
# numeric-check
# ---------------------------------------------------------------------------

def test_numeric_check_stereographic(stereographic_file):
    code, payload = run_cli_json(["numeric-check", stereographic_file,
                                  "--points", "100", "--seed", "7",
                                  "--tol", "1e-8"])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert max(payload["laplacian_residuals"]) <= 1e-8


def test_numeric_check_rejects_poly_maps(quaternion_file):
    code, _ = run_cli(["numeric-check", quaternion_file,
                       "--points", "10", "--seed", "1", "--tol", "1e-8"])
    assert code == 2


# ---------------------------------------------------------------------------
# reproduce and catalog
# ---------------------------------------------------------------------------

def test_reproduce_single_entry():
    code, text = run_cli(["reproduce", "ex3.5-antilift-obstruction"])
    assert code == 0
    assert "[ok]" in text


def test_reproduce_all_exits_zero():
    code, payload = run_cli_json(["reproduce", "--all"])
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["entries"]) == 10


def test_reproduce_unknown_entry():
    code, _ = run_cli(["reproduce", "ex0.0-missing"])
    assert code == 2


@pytest.fixture()
def wrong_expectation(monkeypatch):
    """The zw entry with its morphism expectation flipped to False."""
    entry_id = "ex1.4.i-zw"
    entry = registry()[entry_id]
    expected = tuple(dataclasses.replace(e, expected=False) if e.check == "morphism"
                     else e for e in entry.expected)
    monkeypatch.setitem(registry(), entry_id,
                        dataclasses.replace(entry, expected=expected))
    return entry_id


def test_reproduce_mismatch_exits_1(wrong_expectation):
    code, text = run_cli(["reproduce", wrong_expectation])
    assert code == 1
    assert text.startswith(f"[MISMATCH] {wrong_expectation}\n")
    assert "    morphism: expected False, got True [MISMATCH]\n" in text
    assert text.endswith("some expectations did not match\n")


def test_reproduce_mismatch_json_is_not_ok(wrong_expectation):
    code, payload = run_cli_json(["reproduce", wrong_expectation])
    assert code == 1
    assert payload["ok"] is False
    (entry,) = payload["entries"]
    assert entry["ok"] is False
    by_check = {check["check"]: check for check in entry["checks"]}
    assert by_check["morphism"]["ok"] is False
    assert by_check["morphism"]["actual"] is True
    assert all(check["ok"] for name, check in by_check.items() if name != "morphism")


def test_catalog_list():
    code, text = run_cli(["catalog", "list"])
    assert code == 0
    assert "ex3.7-R16-to-C" in text


def test_catalog_dump_round_trips():
    code, text = run_cli(["catalog", "dump", "ex2.4-complex-lift-Q"])
    assert code == 0
    parse_map(text)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.map"
    path.write_text("map f: R^2 -> R^1 { f1 = x9; }")
    code, _ = run_cli(["check", str(path)])
    assert code == 2


def test_missing_file_exits_2():
    code, _ = run_cli(["check", "/nonexistent/path.map"])
    assert code == 2


def test_unknown_subcommand_exits_2():
    code, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["lift"], "--real --complex"),
    (["check", "--orthogonal-multiplication", "--blocks=-8"],
     "error: first block -8 must lie in 1..7 on R^8\n"),
    (["check", "--orthogonal-multiplication", "--blocks", "8"],
     "error: first block 8 must lie in 1..7 on R^8\n"),
    (["check", "--orthogonal-multiplication", "--blocks", "4,4"],
     "error: --blocks expects one integer like 4\n"),
    # a verdict from no points, or against a NaN tolerance, means nothing
    (["numeric-check", "--points", "0", "--seed", "1", "--tol", "1e-8"],
     "error: --points must be at least 1, got 0\n"),
    (["numeric-check", "--points", "-3", "--seed", "1", "--tol", "1e-8"],
     "error: --points must be at least 1, got -3\n"),
    # all the points are sampled at once, so their number is bounded
    (["numeric-check", "--points", str(MAX_SAMPLE_POINTS + 1), "--seed", "1",
      "--tol", "1e-8"],
     f"error: --points must be at most {MAX_SAMPLE_POINTS}, "
     f"got {MAX_SAMPLE_POINTS + 1}\n"),
    (["numeric-check", "--points", "5", "--seed", "1", "--tol", "nan"],
     "error: --tol must be a finite number >= 0, got nan\n"),
    (["numeric-check", "--points", "5", "--seed", "1", "--tol", "inf"],
     "error: --tol must be a finite number >= 0, got inf\n"),
    (["numeric-check", "--points", "5", "--seed", "1", "--tol=-0.5"],
     "error: --tol must be a finite number >= 0, got -0.5\n"),
    # a search with no budget draws no points and proves nothing either
    (["kaehler", "--search", "--budget", "0"],
     "error: --budget must be at least 1, got 0\n"),
    (["kaehler", "--search", "--budget=-5"],
     "error: --budget must be at least 1, got -5\n"),
    # block sizes mean something only to the orthogonal-multiplication check
    (["check", "--harmonic", "--blocks", "banana"],
     "error: --blocks needs --orthogonal-multiplication\n"),
], ids=["lift-without-kind", "non-positive-block", "block-covering-the-domain",
        "two-blocks", "zero-points",
        "negative-points", "points-over-the-limit",
        "nan-tolerance", "infinite-tolerance",
        "negative-tolerance", "zero-budget", "negative-budget",
        "blocks-without-orthogonal-multiplication"])
def test_usage_error_exits_2(quaternion_file, capsys, argv, message):
    code, text = run_cli([*argv, quaternion_file])
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


INPUT_FILES = {
    "odd.map": "map f: R^3 -> R^2 { f1 = x1*x2; f2 = x3; }",
    "c2.map": "map f: C^2 -> C^2 { f1 = z1; f2 = z2; }",
    "c1.map": "map f: C^1 -> C^1 { f1 = z1^2; }",
    "stereo.map": lookup("ex1.4.iv-hyperbolic-stereographic").definition,
    "q2.map": "map f: Q^2 -> R^1 { f1 = x1; }",
    "sqrt.pts": "sqrt(2)\n",
}


@pytest.mark.parametrize("argv, message", [
    (["check", "odd.map", "--orthogonal-multiplication"],
     "--orthogonal-multiplication needs --blocks for odd-dimensional domains"),
    (["kaehler", "c2.map", "--search"],
     "kaehler needs a map to C (one complex component)"),
    (["kaehler", "stereo.map", "--search"], "kaehler needs a polynomial map"),
    (["kaehler", "c1.map", "--points", "missing.pts"],
     "cannot read missing.pts: [Errno 2] No such file or directory: "
     "'missing.pts'"),
    (["kaehler", "c1.map", "--points", "sqrt.pts"],
     "1:1: bad coordinate: 1:1: not an exact literal: not a polynomial: "
     "sqrt node"),
    (["check", "q2.map"], "1:8: expected a space like R^4 or C^2"),
    (["reproduce"], "reproduce needs an entry id or --all"),
    (["catalog", "dump"], "catalog dump needs an entry id"),
], ids=["orthogonal-multiplication-odd-domain", "kaehler-two-components",
        "kaehler-smooth-map", "kaehler-missing-points", "kaehler-sqrt-point",
        "q-header", "reproduce-nothing", "catalog-dump-nothing"])
def test_input_error_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [["reproduce", "nope"], ["catalog", "dump", "nope"]],
                         ids=["reproduce", "catalog-dump"])
def test_unknown_catalog_entry_exits_2_with_an_unquoted_message(capsys, argv,
                                                                json_flag):
    assert run_cli([*json_flag, *argv]) == (2, "")
    assert capsys.readouterr().err == "error: unknown catalog entry 'nope'\n"


@pytest.mark.parametrize("body", [
    "(" * 3000 + "x1" + ")" * 3000,
], ids=["nested-parentheses"])
def test_input_too_deep_for_the_parser_exits_2(tmp_path, capsys, body):
    path = tmp_path / "deep.map"
    path.write_text(f"map f: R^1 -> R^1 {{ f1 = {body}; }}")
    code, text = run_cli(["lift", "--real", str(path)])
    stderr = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert stderr.startswith("error: ")
    assert "Traceback" not in stderr


def test_flat_sum_of_20000_terms_lifts(tmp_path, capsys):
    # The parser builds this sum as a left-leaning tree 20000 deep; lowering
    # walks it without recursion.
    path = tmp_path / "flat.map"
    path.write_text(f"map f: R^1 -> R^1 {{ f1 = {' + '.join(['x1'] * 20000)}; }}")
    code, text = run_cli(["lift", "--real", str(path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert text.splitlines()[1] == "  F1 = 20000*y1"


def test_written_out_product_of_5000_factors_checks(tmp_path, capsys):
    # The parser builds this product as a left-leaning tree 5000 deep;
    # lowering walks its factors with a list, not one frame per factor.
    path = tmp_path / "product.map"
    path.write_text(f"map f: R^2 -> R^1 {{ f1 = x2{'*(x1 - x1 + 1)' * 5000}; }}")
    code, text = run_cli(["check", str(path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert text.splitlines()[0] == "harmonic: true"


@pytest.mark.parametrize("argv", [
    ["lift", "--real"],
    ["numeric-check", "--points", "5", "--seed", "1", "--tol", "1e-8"],
], ids=["lift", "numeric-check"])
def test_long_smooth_sum_exits_0(tmp_path, capsys, argv):
    # a smooth map is differentiated, rendered and evaluated without
    # recursion, so a sum 5000 deep is no harder than a short one
    path = tmp_path / "long.map"
    path.write_text(f"map f: R^1 -> R^1 {{ f1 = {' + '.join(['x1'] * 5000)} + 1/x1; }}")
    code, text = run_cli([*argv, str(path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert text


def test_r32_rung_json_lift_reparses_to_the_r64_rung(tmp_path):
    r32 = complete_lift_real(real_identification(
        parse_map(lookup("ex3.7-R16-to-C").definition)))
    path = tmp_path / "r32.map"
    path.write_text(render_map_source(r32, "p"))
    code, payload = run_cli_json(["lift", "--real", str(path)])
    assert code == 0
    names = payload["variables"]
    reparsed = [parse_poly(text, len(names), 0, names)
                for text in payload["components"]]
    r64 = complete_lift_real(r32)
    assert [len(p.terms) for p in r64.components] == [1472, 1472]
    assert reparsed == list(r64.components)


@pytest.mark.parametrize("body,column", [("x1^\N{SUPERSCRIPT TWO}", 29),
                                         ("\N{SUPERSCRIPT TWO}", 26)],
                         ids=["exponent", "atom"])
def test_non_decimal_digit_is_an_unexpected_character(tmp_path, capsys, body, column):
    path = tmp_path / "digit.map"
    path.write_text(f"map f: R^1 -> R^1 {{ f1 = {body}; }}", encoding="utf-8")
    code, text = run_cli(["lift", "--real", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: 1:{column}: unexpected character '\N{SUPERSCRIPT TWO}'\n")


NUMERIC_CHECK = ["numeric-check", "--points", "5", "--seed", "1", "--tol", "1e-8"]


@pytest.mark.parametrize("body", [
    "f1 = x1/(x2^2 + 1) + 10^400;",
    "f1 = x1/(x2^2 + 1); guard x1^2 + 10^400;",
], ids=["component", "guard"])
def test_constant_too_large_for_a_float_exits_2(tmp_path, capsys, body):
    # the tape converts 10^400 to a float in the finite-difference
    # cross-check, or when sampling reads the guard
    path = tmp_path / "huge.map"
    path.write_text(f"map f: R^2 -> R^1 {{ {body} }}")
    code, text = run_cli([*NUMERIC_CHECK, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: int too large to convert to float\n"


@pytest.mark.parametrize("body, code, message", [
    # x1^101 is negative where x1 is, as at the first sampled point
    ("f1 = sqrt(x1^101) + x2;", 2, "square root of a negative real"),
    ("f1 = x1^2000/(x2^2 + 1);", 2, "evaluation produced a non-finite value"),
    # the draws where the guard overflows are rejected
    ("f1 = x1/(x2^2 + 1); guard x1^2000 + 1;", 0, None),
], ids=["odd-power-under-sqrt", "component-overflows", "guard-overflows"])
def test_powers_are_real_and_overflow_is_not_finite(tmp_path, capsys, body,
                                                    code, message):
    path = tmp_path / "power.map"
    path.write_text(f"map f: R^2 -> R^1 {{ {body} }}")
    assert run_cli([*NUMERIC_CHECK, str(path)])[0] == code
    assert capsys.readouterr().err == (f"error: {message}\n" if message else "")


LONG = "7" * 5000       # more digits than int() reads from a string


@pytest.mark.parametrize("source,position", [
    (f"map f: R^2 -> R^1 {{ f1 = {LONG}*x1; }}", "1:26"),
    (f"map f: R^2 -> R^1 {{ f1 = x1^{LONG}; }}", "1:29"),
    (f"map f: R^{LONG} -> R^1 {{ f1 = x1; }}", "1:10"),
], ids=["coefficient", "exponent", "dimension"])
def test_integer_literal_too_long_exits_2(tmp_path, capsys, source, position):
    path = tmp_path / "long.map"
    path.write_text(source)
    code, text = run_cli(["lift", "--real", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {position}: number of 5000 digits is too long\n")


NINES = "9" * 4300      # as many digits as int() reads; twice it has one more


@pytest.mark.parametrize("argv", [["lift", "--real"], ["--json", "lift", "--real"],
                                  ["check"]], ids=["lift", "lift-json", "check"])
@pytest.mark.parametrize("source", [
    "map f: R^2 -> R^1 { f1 = 10^5000*x1*x2; }",
    f"map f: R^1 -> R^1 {{ f1 = x1^{NINES}*x1^{NINES}; }}",
], ids=["coefficient", "exponent-sum"])
def test_integer_too_long_to_print_exits_2(tmp_path, capsys, argv, source):
    # each literal parses, but the output holds an integer longer than any
    # literal the parser reads, so it could not be read back
    path = tmp_path / "long.map"
    path.write_text(source)
    code, text = run_cli([*argv, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: the output holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, too long to print\n")


BITS = f"coefficients would take more than {MAX_POWER_BITS} bits"
TERMS = f"expansion would have more than {MAX_POWER_TERMS} terms"


@pytest.mark.parametrize("argv", [["check"], ["--json", "check"], ["lift", "--real"],
                                  ["--json", "lift", "--real"]],
                         ids=["check", "check-json", "lift", "lift-json"])
@pytest.mark.parametrize("power,limit", [
    (f"2^{NINES}*x1", BITS),
    (f"3^{NINES}*x1", BITS),
    (f"(1/2)^{NINES}*x1", BITS),
    (f"(2*x1)^{NINES}", BITS),
    (f"(x1+x2)^{NINES}", TERMS),
], ids=["two", "three", "half", "monomial", "binomial"])
def test_literal_power_past_its_limit_exits_2(tmp_path, capsys, argv, power, limit):
    # the size of the power is estimated before it is folded or expanded
    source = f"map f: R^2 -> R^1 {{ f1 = {power}; }}"
    path = tmp_path / "power.map"
    path.write_text(source)
    code, text = run_cli([*argv, str(path)])
    assert (code, text) == (2, "")
    column = source.index("^", source.index("f1")) + 1
    assert capsys.readouterr().err == (
        f"error: 1:{column}: power too large: its {limit}\n")


def test_literal_powers_up_to_their_limits_parse():
    # the estimate gives 2^e e bits
    assert parse_poly(f"2^{MAX_POWER_BITS}*x1", 1).terms[(1,)] == 2 ** MAX_POWER_BITS
    with pytest.raises(MapSyntaxError, match=f"1:2: power too large: its {BITS}"):
        parse_poly(f"2^{MAX_POWER_BITS + 1}*x1", 1)
    # 1953 and 2016 terms
    assert len(parse_poly("(x1 + x2 - x3)^61", 3).terms) == 1953
    with pytest.raises(MapSyntaxError, match=f"1:15: power too large: its {TERMS}"):
        parse_poly("(x1 + x2 - x3)^62", 3)
    # units cost no bits, and one term expands to one term
    assert parse_poly(f"(-x1*x2)^{NINES}", 2) == parse_poly(f"-x1^{NINES}*x2^{NINES}", 2)
    # a power in a binding is reported at its "^"
    with pytest.raises(MapSyntaxError, match=f"2:14: power too large: its {TERMS}"):
        parse_map(f"map f: R^2 -> R^1 {{\n  a = (x1+x2)^{NINES};\n  f1 = a*x1; }}")


@pytest.mark.parametrize("exponent", ["0", "1", "7", "300", NINES],
                         ids=["0", "1", "7", "300", "nines"])
def test_a_one_term_power_is_its_monomial_and_forms_no_product(
        tmp_path, capsys, monkeypatch, exponent):
    # (x1*x2)^N raises the term's exponents; x1^N*x2^N is the same monomial
    power, monomial = f"(x1*x2)^{exponent}", f"x1^{exponent}*x2^{exponent}"
    products = []
    sum_of_products = poly._sum_of_products
    monkeypatch.setattr(poly, "_sum_of_products",
                        lambda pairs: products.append(pairs) or sum_of_products(pairs))
    assert parse_poly(power, 2) == parse_poly(monomial, 2)
    assert products == []
    outputs = []
    for body in (power, monomial):
        path = tmp_path / "power.map"
        path.write_text(f"map f: R^2 -> R^1 {{ f1 = {body}; }}")
        for argv in (["check"], ["--json", "check"]):
            outputs.append((*run_cli([*argv, str(path)]), capsys.readouterr().err))
    assert outputs[:2] == outputs[2:]
    assert [code for code, _, _ in outputs] == [2 if exponent == NINES else 0] * 4


@pytest.mark.parametrize("argv", [["antilift"], ["--json", "antilift"]],
                         ids=["text", "json"])
@pytest.mark.parametrize("source", [
    f"map f: R^2 -> R^1 {{ f1 = x2^{NINES}*x2^{NINES}; }}",
    f"map f: R^2 -> R^1 {{ f1 = x1^{NINES}*x1^{NINES}*x2^2; }}",
], ids=["fiber-degree", "base-exponent"])
def test_antilift_witness_too_long_to_print_exits_2(tmp_path, capsys, argv, source):
    # the map is not linear in the fiber block, and its witness monomial holds
    # an exponent too long to print: in the fiber degree, which both forms
    # print, or in the base block, which only the JSON form prints; the text
    # form exits as the JSON form does, so the two keep one status
    path = tmp_path / "long.map"
    path.write_text(source)
    code, text = run_cli([*argv, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: the output holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, too long to print\n")


@pytest.mark.parametrize("argv", [["check"], ["--json", "check"], ["antilift"],
                                  ["--json", "antilift"], ["lift", "--real"],
                                  ["--json", "lift", "--real"]],
                         ids=["check", "check-json", "antilift", "antilift-json",
                              "lift", "lift-json"])
def test_complex_exponent_past_the_expansion_limit_exits_2(tmp_path, capsys, argv):
    # (x + iy)^e costs about e^2 to expand; this e has 4301 digits
    path = tmp_path / "power.map"
    path.write_text(f"map f: C^1 -> C^1 {{ f1 = z1^{NINES}*z1^{NINES}; }}")
    code, text = run_cli([*argv, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: component 1 has a monomial of degree above {MAX_PAIR_DEGREE} "
        "in z1 and zb1, more than the real identification expands\n")


def test_real_identification_refuses_before_expanding():
    over = parse_map(f"map f: C^2 -> C^2 {{ f1 = z1; "
                     f"f2 = z1^3 + z2^600*zb2^{MAX_PAIR_DEGREE - 599}; }}")
    with pytest.raises(ShapeError, match="component 2 .* in z2 and zb2"):
        real_identification(over)
    # the limit is on one pair's degree, not on the monomial's
    spread = parse_map("map f: C^2 -> C^1 { f1 = z1^40*zb2^40; }")
    assert len(real_identification(spread).components) == 2


@pytest.mark.parametrize("signs", ["-" * 5000, "-+" * 2500 + "-"],
                         ids=["even", "odd"])
def test_long_run_of_unary_signs_parses(tmp_path, capsys, signs):
    path = tmp_path / "signs.map"
    path.write_text(f"map f: R^1 -> R^1 {{ f1 = {signs}x1; }}")
    code, _ = run_cli(["check", str(path)])
    assert code == 0
    code, text = run_cli(["lift", "--real", str(path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    expected = "-y1" if signs.count("-") % 2 else "y1"
    assert text.splitlines()[1] == f"  F1 = {expected}"


def test_point_coordinate_too_long_exits_2(phi_file, tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text(f"0, 0, 1, 0, 1, 0, 0, 1\n1, 2, 3, 4, 5, 6, 7, {LONG}\n")
    code, text = run_cli(["kaehler", phi_file, "--points", str(pts)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: 2:1: bad coordinate: 1:1: number of 5000 digits is too long\n")


def test_closed_output_pipe_exits_quietly():
    # the reader is gone before the command writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(morphlift.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        child = subprocess.run([sys.executable, "-m", "morphlift.cli", "catalog", "list"],
                               stdout=write_end, stderr=subprocess.PIPE, env=env,
                               timeout=60)
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == 0


def _fresh_process(argv, cwd):
    src = str(Path(morphlift.__file__).parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-m", "morphlift.cli", *argv], cwd=cwd,
                           capture_output=True, env=env, timeout=60)
    return child.returncode, child.stdout.decode(), child.stderr.decode()


def test_reused_parser_answers_as_a_fresh_process(tmp_path, monkeypatch):
    # the check flags append to a list default: a parser that kept the
    # --hwc of one call would run only hwc on the next plain `check`
    (tmp_path / "f.map").write_text(
        "map f: R^2 -> R^2 { f1 = x1^2 - x2^2; f2 = x1*x2; }\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps usage to the terminal
    sequence = [["check", "--hwc", "f.map"], ["check", "f.map"],
                ["--json", "check", "f.map"], ["check", "--hwc"],
                ["check", "--hwc", "f.map"]]
    for argv in sequence:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        assert (code, stdout.getvalue(), stderr.getvalue()) == \
            _fresh_process(argv, tmp_path), argv


def test_parser_is_built_on_first_use_not_at_import():
    src = str(Path(morphlift.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import io, morphlift.cli as cli\n"
             "print(cli._build_parser.cache_info().currsize)\n"
             "cli.cli_main(['catalog', 'list'], io.StringIO())\n"
             "cli.cli_main(['catalog', 'list'], io.StringIO())\n"
             "print(cli._build_parser.cache_info().misses)\n")
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           env=env, timeout=60)
    assert child.stdout.decode().split() == ["0", "1"]


def test_package_runs_as_a_module(tmp_path):
    src = str(Path(morphlift.__file__).parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "morphlift", *argv],
                              cwd=tmp_path, capture_output=True, env=env,
                              timeout=60)

    helped = run("--help")
    assert helped.returncode == 0 and helped.stderr == b""
    assert helped.stdout.decode().startswith("usage: morphlift ")
    missing = run("lift", "--real", "missing.map")
    assert (missing.returncode, missing.stdout) == (2, b"")
    lines = missing.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "missing.map" in lines[0] and "Traceback" not in missing.stderr.decode()


# Headers that used to exhaust memory before any component was read: a name
# per variable, the canonical names of a dimension of 20 digits (on both
# paths; the comment forces the general one), and the m^2-byte tables that
# the first partials and the Laplacian keep.
WIDE_HEADERS = [
    ("map f: R^20000000 -> R^1 { f1 = x1; }\n", "1:10"),
    ("map f: R^99999999999999999999 -> R^1 { f1 = x1; }\n", "1:10"),
    ("# c\nmap f: R^99999999999999999999 -> R^1 { f1 = x1; }\n", "2:10"),
    ("map f: R^100000 -> R^1 { f1 = x1; }\n", "1:10"),
    ("map f: R^1 -> R^20000000 { f1 = x1; }\n", "1:17"),
    (f"map f: C^{MAX_DIMENSION + 1} -> C^1 {{ f1 = z1; }}\n", "1:10"),
]


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("source, position", WIDE_HEADERS)
def test_a_dimension_above_the_bound_is_a_syntax_error(tmp_path, source,
                                                       position, json_flag):
    (tmp_path / "wide.map").write_text(source)
    src = str(Path(morphlift.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-m", "morphlift", *json_flag, "check", "wide.map"],
        cwd=tmp_path, capture_output=True, env=env, timeout=60,
        preexec_fn=_capped_address_space)
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr.decode() == (
        f"error: {position}: dimensions above {MAX_DIMENSION} are not supported\n")


def test_a_dimension_at_the_bound_parses_on_both_paths():
    for source in (f"map f: R^{MAX_DIMENSION} -> R^1 {{ f1 = x1; }}",
                   f"map f: R^{MAX_DIMENSION} -> R^1 {{ f1 = x1; }} # general",
                   f"map f: C^{MAX_DIMENSION} -> C^1 {{ f1 = z1; }}"):
        phi = parse_map(source)
        assert (phi.domain_dim, phi.codomain_dim) == (MAX_DIMENSION, 1)
    wide = parse_map(f"map f: R^1 -> R^{MAX_DIMENSION} {{ " + " ".join(
        f"f{k} = {k}*x1;" for k in range(1, MAX_DIMENSION + 1)) + " }")
    assert wide.codomain_dim == MAX_DIMENSION
    assert wide.components[-1] == parse_poly(f"{MAX_DIMENSION}*x1", 1)
