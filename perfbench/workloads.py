"""The benchmark's workloads: inputs made from the seed, the timed operations
(ops) and the checks applied to every op's output.

Each ``make_<workload>(seed, workdir)`` does the workload's set-up and returns
a ``Workload``. Library functions are always looked up through the
``morphlift`` package or module attributes at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import morphlift as ml
from morphlift import catalog, cli

R16_ENTRY = "ex3.7-R16-to-C"


class CheckFailed(Exception):
    """An op returned an output that differs from the expected one."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]   # raises CheckFailed


@dataclass
class Workload:
    ops: list[Op]
    # Known defects run once per run, untimed: name -> callable that raises
    # or returns whether its output is correct.
    probes: dict[str, Callable[[], bool]] = field(default_factory=dict)


def _real_form(parsed):
    if isinstance(parsed, ml.ComplexPolyMap):
        return ml.real_identification(parsed)
    return parsed


def _r16():
    """The real form of the paper's R^16 -> C example."""
    return ml.real_identification(ml.parse_map(catalog.lookup(R16_ENTRY).definition))


# ---------------------------------------------------------------------------
# catalog: the paper's worked examples end to end through the CLI
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        code = cli.cli_main(list(argv), out)
        return code, out.getvalue()
    return run


def make_catalog(seed: int, workdir: Path) -> Workload:
    entry_count = len(catalog.entry_ids())     # builds the registry

    def check_text(result):
        code, text = result
        expect(code == 0, f"exit status {code}")
        expect("MISMATCH" not in text, "text report lists a mismatch")
        expect(text.rstrip().endswith("all expectations matched"),
               "text report does not end in a full match")

    def check_json(result):
        code, text = result
        expect(code == 0, f"exit status {code}")
        payload = json.loads(text)
        entries = payload["entries"]
        expect(len(entries) == entry_count,
               f"{len(entries)} entries, expected {entry_count}")
        expect(payload["ok"] is True and all(e["ok"] is True for e in entries),
               "an entry is not ok")
        expect(all(c["ok"] is True for e in entries for c in e["checks"]),
               "a check is not ok")

    return Workload([
        Op("reproduce_text", _cli(["reproduce", "--all"]), check_text),
        Op("reproduce_json", _cli(["--json", "reproduce", "--all"]), check_json),
    ])


# ---------------------------------------------------------------------------
# ladder: the iterated-lift ladder R^16 -> R^32 -> R^64 (product kernel)
# ---------------------------------------------------------------------------

def make_ladder(seed: int, workdir: Path) -> Workload:
    # The paper's fixed inputs; the seed has nothing to vary here.
    rungs = {16: _r16()}

    def lift(source, target):
        def run():
            rungs[target] = ml.complete_lift_real(rungs[source])
            return rungs[target]
        return run

    def check_lift(dim, terms):
        def check(lifted):
            got = (lifted.domain_dim, lifted.codomain_dim,
                   tuple(len(c.terms) for c in lifted.components))
            expect(got == (dim, 2, terms), f"lift shape {got}")
        return check

    def check_report(verdict, violation, terms):
        """``violation`` is (kind, component pair, matrix entry) or None;
        ``terms`` counts the dilation (pass) or residual (fail) terms."""
        def check(report):
            expect(report.verdict is verdict, f"verdict {report.verdict}")
            if verdict:
                got = (report.violation, len(report.dilation.terms))
                expect(got == (None, terms), f"dilation/violation {got}")
            else:
                v = report.violation
                got = (v.kind, (v.component_k, v.component_l), v.entry,
                       len(v.residual.terms))
                expect(got == (*violation, terms), f"violation {got}")
        return check

    def on(name, dim):
        return lambda: getattr(ml, name)(rungs[dim])

    off_diagonal = ("off-diagonal", (1, 2), None)
    square = ("hessian-square", (1, 2), (1, 1))
    morphism, hessian = "is_harmonic_morphism", "hessian_conditions"
    mid = [Op("morphism_r32", on(morphism, 32),
              check_report(False, off_diagonal, 4896)),
           Op("hessian_r16", on(hessian, 16), check_report(False, square, 40))]
    # The two checks of about a second run three times, before the R^32
    # Hessian, between it and the R^64 morphism, and last, so that op_p50_ms
    # (the third of their six samples) is not one sample taken at one moment.
    # With eleven ops, op_p90_ms is the R^32 Hessian. The R^64 morphism runs
    # after the Hessian, where its peak memory adds the least to the
    # Hessian's. Expected values recorded at the seed.
    return Workload([
        Op("lift_r32", lift(16, 32), check_lift(32, (384, 384))),
        Op("lift_r64", lift(32, 64), check_lift(64, (1472, 1472))),
        Op("morphism_r16", on(morphism, 16), check_report(True, None, 1440)),
        *mid,
        Op("hessian_r32", on(hessian, 32), check_report(False, square, 256)),
        *mid,
        Op("morphism_r64", on(morphism, 64),
           check_report(False, off_diagonal, 81344)),
        *mid,
    ])


# ---------------------------------------------------------------------------
# kaehler: span_report at seeded point sets (evaluation, Jacobian, rank)
# ---------------------------------------------------------------------------

_I = ml.GaussianRational(0, 1)
# The small Gaussian-integer alphabet of the program's own point search.
ALPHABET = (0, 1, -1, _I, -_I, ml.GaussianRational(1, -1))
# A pass is the two stored sets plus 98 seeded ones. Seeded op k runs at
# R^32 when k % 8 == 3: 12 of the 100 ops, so that op_p90_ms falls among the
# R^32 sets, two samples from their lower edge.
KAEHLER_RANDOM_OPS = 98


def _pair(value) -> tuple[Fraction, Fraction]:
    if hasattr(value, "re"):                     # Gaussian rational
        return Fraction(value.re), Fraction(value.im)
    return Fraction(value), Fraction(0)


def gaussian_rank(rows) -> int:
    """Rank over Q(i) by Gaussian elimination on (re, im) Fraction pairs,
    kept independent of ExactMatrix.rank so that it can check it."""
    work = [[_pair(x) for x in row] for row in rows]
    zero = (0, 0)
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != zero),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        a, b = work[rank][col]
        norm = a * a + b * b
        inv_re, inv_im = a / norm, -b / norm
        top = work[rank]
        for r in range(rank + 1, len(work)):
            c, d = work[r][col]
            if c == 0 and d == 0:
                continue
            f_re, f_im = c * inv_re - d * inv_im, c * inv_im + d * inv_re
            work[r] = [(x - (f_re * p - f_im * q), y - (f_re * q + f_im * p))
                       for (x, y), (p, q) in zip(work[r], top)]
        rank += 1
    return rank


def make_kaehler(seed: int, workdir: Path) -> Workload:
    r16 = _r16()
    r32 = ml.complete_lift_real(r16)
    rng = random.Random(seed)

    def span(phi, points, expected_rank=None, expected_gradients=None):
        m = phi.domain_dim // 2

        def check(report):
            expect(len(report.gradients) == len(points),
                   f"{len(report.gradients)} gradients for {len(points)} points")
            rank = gaussian_rank(report.gradients)
            expect(report.rank == rank, f"rank {report.rank}, recomputed {rank}")
            verdict = ml.NOT_KAEHLER if rank > m else ml.INCONCLUSIVE
            expect(report.verdict == verdict,
                   f"verdict {report.verdict} at rank {rank}, m = {m}")
            if expected_rank is not None:
                expect(rank == expected_rank, f"rank {rank}, expected {expected_rank}")
            if expected_gradients is not None:
                got = [[_pair(x) for x in g] for g in report.gradients]
                want = [[_pair(x) for x in g] for g in expected_gradients]
                expect(got == want, "gradients differ from EXPECTED_GRADIENTS")

        return (lambda: ml.span_report(phi, points)), check

    stored = catalog.KAEHLER_POINTS
    ops = [
        Op("span_stored", *span(r16, stored, 8, catalog.EXPECTED_GRADIENTS)),
        Op("span_repaired",
           *span(r16, stored + (catalog.KAEHLER_REPAIR_POINT,), 9)),
    ]
    for k in range(KAEHLER_RANDOM_OPS):
        phi, label = (r32, "span_r32") if k % 8 == 3 else (r16, "span_r16")
        m = phi.domain_dim // 2
        points = tuple(tuple(rng.choice(ALPHABET) for _ in range(m))
                       for _ in range(m + 1))
        ops.append(Op(label, *span(phi, points)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# mapio: map files through `lift --real` (text and JSON) and back through
# the parser (parsing, lowering and rendering)
# ---------------------------------------------------------------------------

RANDOM_MAPS = 89
# Terms per component run geometrically over this range for every seed, and
# monomial k has 2 + k % 2 variables, so the seed changes what the maps say
# but not how big they or their lifts are. A lift has at most 300 terms per
# component, inside the parser's recursion headroom (the probes show where
# it ends).
MIN_TERMS, MAX_TERMS = 3, 120


def _monomial_text(exponents) -> str:
    return "*".join(f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                    for j, e in enumerate(exponents) if e)


def random_map(rng: random.Random, num_vars: int, num_terms: int):
    """A map R^num_vars -> R^2 with num_terms distinct monomials per component,
    as source text and as term dicts."""
    components = []
    for _ in range(2):
        terms: dict[tuple, object] = {}
        while len(terms) < num_terms:
            exponents = [0] * num_vars
            for j in rng.sample(range(num_vars), 2 + len(terms) % 2):
                exponents[j] = rng.randint(1, 3)
            key = tuple(exponents)
            if key in terms:
                continue
            numerator = rng.choice((1, 2, 3, 5, 7, 9)) * rng.choice((1, -1))
            terms[key] = Fraction(numerator, rng.choice((1, 1, 1, 2, 3, 4)))
        components.append(terms)
    bodies = []
    for terms in components:
        pieces = [f"{'-' if c < 0 else '+'} {abs(c)}*{_monomial_text(e)}"
                  for e, c in terms.items()]
        bodies.append(" ".join(pieces).removeprefix("+ "))
    source = (f"map g: R^{num_vars} -> R^2 {{\n"
              + "".join(f"    g{k + 1} = {body};\n" for k, body in enumerate(bodies))
              + "}\n")
    return source, components


def lift_terms(terms: dict, num_vars: int) -> dict:
    """The real complete lift sum_j (d p / d x_j) * y_j of one component,
    computed from its term dict alone."""
    lifted = {}
    for exponents, coeff in terms.items():
        for j, e in enumerate(exponents):
            if e:
                key = list(exponents) + [0] * num_vars
                key[j] -= 1
                key[num_vars + j] = 1
                lifted[tuple(key)] = coeff * e
    return lifted


def _reparse(payload) -> list:
    names = payload["variables"]
    return [ml.parse_poly(text, len(names), 0, names)
            for text in payload["components"]]


def make_mapio(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    files: list[tuple[str, Path, str, object]] = []

    def write(label, source, expected=None):
        path = workdir / f"{len(files):03d}-{label}.map"
        path.write_text(source, encoding="utf-8")
        files.append((label, path, source, expected))

    for entry_id in catalog.entry_ids():
        entry = catalog.lookup(entry_id)
        if entry.kind != "smooth":
            write("catalog", entry.definition)
    r16 = _r16()
    r32 = ml.complete_lift_real(r16)
    write("rung_r16", ml.render_map_source(r16, "p"))
    write("rung_r32", ml.render_map_source(r32, "p"))
    r64 = ml.complete_lift_real(r32)
    source_r64 = ml.render_map_source(r64, "p")
    ratio = MAX_TERMS / MIN_TERMS
    for i in range(RANDOM_MAPS):
        num_vars = 5 + i % 4
        num_terms = round(MIN_TERMS * ratio ** (i / (RANDOM_MAPS - 1)))
        source, components = random_map(rng, num_vars, num_terms)
        write("random", source, [lift_terms(c, num_vars) for c in components])

    def round_trip(path, reparse):
        def run():
            text = io.StringIO()
            text_code = cli.cli_main(["lift", "--real", str(path)], text)
            out = io.StringIO()
            json_code = cli.cli_main(["--json", "lift", "--real", str(path)], out)
            payload = json.loads(out.getvalue())
            polys = _reparse(payload) if reparse else None
            return text_code, text.getvalue(), json_code, payload, polys
        return run

    def check_round_trip(source, expected):
        def check(result):
            text_code, text, json_code, payload, polys = result
            expect((text_code, json_code) == (0, 0),
                   f"exit statuses {text_code}, {json_code}")
            library = ml.complete_lift_real(_real_form(ml.parse_map(source)))
            names = library.names()
            rendered = [ml.render(c, names) for c in library.components]
            expect(payload["variables"] == list(names), "variables differ")
            expect(payload["components"] == rendered,
                   "JSON components differ from the library lift")
            for k, body in enumerate(rendered, start=1):
                expect(f"  F{k} = {body}\n" in text,
                       f"text output lacks component {k}")
            if polys is not None:
                expect(list(polys) == list(library.components),
                       "re-parsed components differ from the library lift")
            if expected is not None:
                expect([p.terms for p in polys] == expected,
                       "re-parsed components differ from the lift of the "
                       "generated terms")
        return check

    ops = []
    for label, path, source, expected in files:
        # Re-parsing the R^32 rung's output is a probe, never timed.
        reparse = label != "rung_r32"
        ops.append(Op(f"lift_{label}", round_trip(path, reparse),
                      check_round_trip(source, expected)))

    rung_r32 = next(path for label, path, _, _ in files if label == "rung_r32")

    def reparse_r32_output():
        out = io.StringIO()
        cli.cli_main(["--json", "lift", "--real", str(rung_r32)], out)
        return _reparse(json.loads(out.getvalue())) == list(r64.components)

    def parse_r64_source():
        return list(ml.parse_map(source_r64).components) == list(r64.components)

    return Workload(ops, {"reparse_r32_lift_json": reparse_r32_output,
                          "parse_map_r64_source": parse_r64_source})


WORKLOADS = {
    "catalog": make_catalog,
    "ladder": make_ladder,
    "kaehler": make_kaehler,
    "mapio": make_mapio,
}
