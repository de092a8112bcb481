"""Golden bytes of the command-line front end.

Every case runs ``cli_main`` in-process, from a directory that holds its
input files, once as text and once with ``--json``.  Stdout must equal
``tests/golden/<case>.out`` and stderr ``tests/golden/<case>.err`` (an
absent ``.err`` file means stderr is empty), byte for byte; the exit status
is pinned in the table below.  The expected files are the program's output
as committed, so a change that alters what the CLI prints changes them in
the same commit.
"""

import contextlib
import io
from pathlib import Path

import pytest

from morphlift.catalog import lookup
from morphlift.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "quaternion.map": lookup("ex1.4.iii-quaternion").definition,
    "zwbar.map": lookup("ex1.4.i-zwbar").definition,
    "stereo.map": lookup("ex1.4.iv-hyperbolic-stereographic").definition,
    "qr.map": lookup("ex3.5-antilift-obstruction").definition,
    "phi.map": lookup("ex3.7-R16-to-C").definition,
    "hessian.map": "map f: R^2 -> R^2 { f1 = x1^2 - x2^2; f2 = x1*x2; }\n",
    "lifted.map": "map f: R^4 -> R^1 { f1 = 2*x1*x3 + x4; }\n",
    "fiber.map": "map f: R^4 -> R^1 { f1 = x1*x3^2; }\n",
    "odd.map": "map f: R^3 -> R^1 { f1 = x1*x3 + x2; }\n",
    "bad.map": "map f: R^2 -> R^1 { f1 = x1 +; }\n",
    # exponents past one byte: the lift's fields are two bytes wide
    "wide.map": ("map f: R^2 -> R^2 {\n"
                 "    f1 = x1^300*x2 - 3/2*x2^2 + 7;\n"
                 "    f2 = x1^255 + 2/3*x1*x2^256 + x1^256*x2 - x2;\n"
                 "}\n"),
    # Fraction and Gaussian coefficients, some of whose partials are integral
    "gaussian.map": ("map f: C^2 -> C^2 {\n"
                     "    f1 = (1/2 - 3*i)*z1^2*z2 + 2/3*conj(z1)*z2 - i*z2^3 + 5/4;\n"
                     "    f2 = 3/4*z1*conj(z2)^2 + (2 + i/3)*z2^2 + 1/3*z2^3 - 1/6*z1;\n"
                     "}\n"),
    # canonical text, as render_map_source writes it
    "canonical.map": ("map g: R^6 -> R^2 {\n"
                      "    g1 = -3/2*x1^2*x4 + 5*x2*x3*x6 - x5^3 + 2/3*x1*x6 - 7;\n"
                      "    g2 = x1*x2*x3*x4*x5*x6 - 1/4*x3^2 + x4 + 1/2;\n"
                      "}\n"),
    # a comment, a binding and spaces inside a product
    "handwritten.map": ("# a quadratic written by hand\n"
                        "map h: R^3 -> R^2 {\n"
                        "    s = x1 + x2;   # a let-style binding\n"
                        "    h1 = s^2 - 3 * x3;\n"
                        "    h2 = x1*x2\n"
                        "         + 1/2;\n"
                        "}\n"),
    # the nine printed points of the R^16 -> C example, then the repair point
    "phi.pts": ("0, 0, 1, 0, 1, 0, 0, 1\n"
                "0, 0, i, 0, 1, 0, 0, 1\n"
                "1, 0, 0, 0, 1, 0, 1, 0\n"
                "i, 0, 0, 0, 1, 0, 1, 0\n"
                "1, 0, 0, 1, 1, 0, 0, 0\n"
                "1, 0, 0, 1, i, 0, 0, 0\n"
                "1, 0, 1, 0, 1, 0, 0, 0\n"
                "1, 0, 1, 0, i, 0, 0, 0\n"
                "0, 0, 1-i, 0, 1, 1, 0, 0\n"
                "1, 1, 0, 0, 0, 0, 1, 0\n"),
}

CASES = [
    ("lift-real-complex-map", ["lift", "--real", "quaternion.map"], 0),
    ("lift-complex", ["lift", "--complex", "zwbar.map"], 0),
    ("lift-smooth", ["lift", "--real", "stereo.map"], 0),
    ("lift-real-canonical", ["lift", "--real", "canonical.map"], 0),
    ("lift-real-handwritten", ["lift", "--real", "handwritten.map"], 0),
    ("lift-real-wide", ["lift", "--real", "wide.map"], 0),
    ("lift-complex-gaussian", ["lift", "--complex", "gaussian.map"], 0),
    ("check-default", ["check", "quaternion.map"], 0),
    ("check-hessian-fails", ["check", "hessian.map", "--hessian-conditions"], 0),
    ("check-orthmult-blocks", ["check", "quaternion.map",
                               "--orthogonal-multiplication", "--blocks", "4"], 0),
    ("antilift-complete-lift", ["antilift", "lifted.map"], 0),
    ("antilift-mixed-partial", ["antilift", "qr.map"], 0),
    ("antilift-not-partial-linear", ["antilift", "fiber.map"], 0),
    ("kaehler-points", ["kaehler", "phi.map", "--points", "phi.pts"], 0),
    ("kaehler-search", ["kaehler", "zwbar.map", "--search", "--budget", "50"], 0),
    ("numeric-check", ["numeric-check", "stereo.map", "--points", "20",
                       "--seed", "3", "--tol", "1e-8"], 0),
    ("reproduce-entry", ["reproduce", "ex1.4.i-zwbar"], 0),
    ("reproduce-all", ["reproduce", "--all"], 0),
    ("catalog-list", ["catalog", "list"], 0),
    ("catalog-dump", ["catalog", "dump", "ex1.4.i-zw"], 0),
    ("error-missing-file", ["lift", "--real", "missing.map"], 2),
    ("error-parse", ["check", "bad.map"], 2),
    ("error-odd-domain", ["antilift", "odd.map"], 2),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case, argv, status", CASES, ids=[c[0] for c in CASES])
def test_cli_output_bytes(inputs, monkeypatch, case, argv, status, json_flag):
    monkeypatch.chdir(inputs)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(["--json", *argv] if json_flag else argv)
    stem = case + ("-json" if json_flag else "")
    err_path = GOLDEN / f"{stem}.err"
    assert code == status
    assert stdout.getvalue().encode() == (GOLDEN / f"{stem}.out").read_bytes()
    assert stderr.getvalue().encode() == (err_path.read_bytes()
                                          if err_path.exists() else b"")


def test_every_golden_file_belongs_to_a_case():
    stems = {case + suffix for case, _, _ in CASES for suffix in ("", "-json")}
    orphans = sorted(path.name for path in GOLDEN.iterdir()
                     if path.suffix not in (".out", ".err") or path.stem not in stems)
    assert orphans == []
