import io
import json

import pytest

from morphlift.cli import cli_main
from morphlift.mapfile import parse_map, parse_poly

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
    from morphlift.maps import real_identification

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


def test_check_orthogonal_multiplication_blocks(quaternion_file):
    code, payload = run_cli_json(["check", quaternion_file,
                                  "--orthogonal-multiplication",
                                  "--blocks", "4,4"])
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
    code, payload = run_cli_json(["antilift", str(path), "--split", "4"])
    assert code == 0
    assert payload["result"] == "mixed-partial-obstruction"
    assert payload["component"] == 2
    assert payload["values"] == ["-1", "1"]


def test_antilift_recovers_base(tmp_path):
    path = tmp_path / "lift.map"
    path.write_text("map f: R^4 -> R^1 { f1 = 2*x1*x3 + x4; }")
    code, payload = run_cli_json(["antilift", str(path), "--split", "2"])
    assert code == 0
    assert payload["result"] == "complete-lift"
    assert payload["base_components"] == ["x1^2 + x2"]


def test_antilift_split_mismatch_is_usage_error(tmp_path):
    path = tmp_path / "f.map"
    path.write_text("map f: R^3 -> R^1 { f1 = x1; }")
    code, _ = run_cli(["antilift", str(path), "--split", "2"])
    assert code == 2


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


def test_usage_error_exits_2(quaternion_file):
    code, _ = run_cli(["lift", quaternion_file])  # missing --real/--complex
    assert code == 2
