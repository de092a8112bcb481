"""The benchmark's traced pass wraps morphlift functions by name.

``perfbench/tracer.py`` resolves every name in its ``LAYERS`` table with
``getattr`` (methods through the class ``__dict__``) and reads the arguments
of a few of them in counter hooks.  A refactor that renames, moves or
reshapes one of them crashes ``perfbench/run.py --trace 1``; these tests
fail first.  The tracer file is read, never written or imported through the
import system, so no bytecode cache appears under ``perfbench/``.
"""

import importlib
import io
import types
from pathlib import Path

import pytest

from morphlift import cli, kaehler, mapfile, poly

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text()
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(tracer_module):
    missing = []
    for layer, names in tracer_module.LAYERS.items():
        home = importlib.import_module(f"morphlift.{layer}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(home, owner, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(home, attr, None))
            if not found:
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_traced_pass_runs_and_counts(tracer_module):
    a = mapfile.parse_poly("x1 + 2*x2", 2)
    b = mapfile.parse_poly("x1 - x2^2", 2)
    cli.cli_main(["catalog", "list"], io.StringIO())    # builds the registry
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.active = True
        product = a * b
        # Called through their modules: the tracer rebinds names in
        # morphlift's namespaces, not in this one.
        dot = poly.poly_dot([a, b], [b, a])
        mapfile.parse_poly("x1", 1)
        code = cli.cli_main(["catalog", "list"], io.StringIO())
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == 0
    assert dot == product + product
    counters = tracer.counters
    assert counters["poly.term_pairs"] == 2 * 2 + 2 * 2 + 2 * 2
    assert counters["poly.terms_out"] == len(product.terms) + len(dot.terms)
    assert counters["mapfile.chars_in"] == 2
    assert counters["cli.bytes_out"] > 0
    assert tracer.calls["poly.accumulate_product"] == 3
    assert tracer.calls["poly.poly_dot"] == 1


def test_traced_span_report_counts_exact_rank(tracer_module):
    # the Kaehler span's rank stays in the exact layer that the tracer times;
    # each point's Jacobian rank is read off its Gram entries, with no matrix
    phi = mapfile.parse_map("map f: R^4 -> R^2 { f1 = x1*x3 - x2*x4; "
                            "f2 = x1*x4 + x2*x3; }")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.active = True
        report = kaehler.span_report(phi, [(1, 2), (3, -1)])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls["kaehler.span_report"] == 1
    assert len(report.gradients) == 2
    assert tracer.calls["exact.ExactMatrix.rank"] == 1
    assert tracer.counters["exact.rank_cells"] > 0
