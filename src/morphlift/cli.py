"""Command-line front end.

Each subcommand returns one :class:`Report`; ``cli_main`` alone writes it,
as text lines or as the ``--json`` payload.

Exit status: 0 when the requested computation succeeded (a negative verdict
or an obstruction is a valid answer), 1 when ``reproduce`` found a mismatch
against the stored expectations, 2 for usage, parse or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache

from . import catalog as catalog_module
from .analysis import CheckReport
from .exact import DimensionMismatch, IntegerTooLong, render_scalar
from .expr import EvalDomainError, NotPolynomial, SmoothMap, render_expr
from .kaehler import search_points, span_report
from .lift import (
    MixedPartialObstruction,
    NotPartialLinear,
    anti_lift,
    complete_lift_complex,
    complete_lift_real,
)
from .mapfile import MapSyntaxError, parse_map, parse_points
from .maps import ComplexPolyMap, RealPolyMap, ShapeError, real_form
from .numeric import (
    InternalConsistencyError,
    SamplingError,
    numeric_check,
    numeric_complete_lift,
    sample_points,
)
from .poly import render

SCHEMA_VERSION = 1

# the analysis rows lead the check table; each is a flag of `check`
CHECK_FLAGS = list(catalog_module.CHECKS)[:6]


class CliError(Exception):
    """An input problem the user can fix; reported on stderr, exit 2."""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones:
    parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="morphlift",
        description="exact complete lifts and harmonic-morphism certificates")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    commands = parser.add_subparsers(dest="command", required=True)

    lift = commands.add_parser("lift", help="compute a complete lift")
    group = lift.add_mutually_exclusive_group(required=True)
    group.add_argument("--real", action="store_true")
    group.add_argument("--complex", dest="complex_", action="store_true")
    lift.add_argument("file")

    check = commands.add_parser("check", help="run certificate checks")
    check.add_argument("file")
    for name in CHECK_FLAGS:
        check.add_argument(f"--{name}", dest="checks", action="append_const",
                           const=name, default=[])
    check.add_argument("--blocks", default=None,
                       help="size P of the first block for "
                            "--orthogonal-multiplication (default: half)")

    antilift = commands.add_parser("antilift",
                                   help="decide whether a map is a complete lift")
    antilift.add_argument("file")

    kaehler = commands.add_parser("kaehler",
                                  help="isotropic-span criterion for maps to C")
    kaehler.add_argument("file")
    source = kaehler.add_mutually_exclusive_group(required=True)
    source.add_argument("--points", metavar="PTSFILE",
                        help="file with one complex point per line")
    source.add_argument("--search", action="store_true",
                        help="greedy deterministic point search")
    kaehler.add_argument("--budget", type=int, default=None,
                         help="points the search draws (default: 500)")
    kaehler.add_argument("--seed", type=int, default=None,
                         help="seed of the search (default: 0)")

    numeric = commands.add_parser("numeric-check",
                                  help="sampled float verification for smooth maps")
    numeric.add_argument("file")
    numeric.add_argument("--points", type=int, required=True)
    numeric.add_argument("--seed", type=int, required=True)
    numeric.add_argument("--tol", type=float, required=True)

    reproduce = commands.add_parser("reproduce",
                                    help="re-run stored example expectations")
    reproduce.add_argument("entry", nargs="?")
    reproduce.add_argument("--all", dest="all_", action="store_true")

    cat = commands.add_parser("catalog", help="list or dump example definitions")
    cat.add_argument("action", choices=["list", "dump"])
    cat.add_argument("entry", nargs="?")

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """One command's result: the ``--json`` payload, the text lines built
    from the payload's values, and the exit status."""

    payload: dict
    lines: list[str]
    status: int = 0


def _load_map(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise CliError(f"cannot read {path}: {error}") from error
    return parse_map(source)


def _require_real(parsed, notes: list):
    if isinstance(parsed, SmoothMap):
        raise CliError("this command needs a polynomial map; "
                       "use numeric-check for smooth maps")
    if isinstance(parsed, ComplexPolyMap):
        notes.append("complex map: checks run on its real identification")
    return real_form(parsed)


def _numbered(prefix: str, texts) -> list:
    return [f"  {prefix}{index} = {text}"
            for index, text in enumerate(texts, start=1)]


def _check_payload(report: CheckReport, names) -> dict:
    payload = {"name": report.check, "verdict": report.verdict}
    if report.dilation is not None:
        payload["dilation"] = render(report.dilation, names)
    if report.violation is not None:
        violation = report.violation
        payload["violation"] = {
            "kind": violation.kind,
            "components": [violation.component_k, violation.component_l],
            "residual": render(violation.residual, names),
        }
        if violation.entry is not None:
            payload["violation"]["entry"] = violation.entry
    if report.notes:
        payload["notes"] = report.notes
    return payload


def _check_lines(payload: dict) -> list:
    verdict = "true" if payload["verdict"] else "false"
    lines = [f"{payload['name']}: {verdict}"]
    if "dilation" in payload:
        lines.append(f"  dilation^2 = {payload['dilation']}")
    if "violation" in payload:
        violation = payload["violation"]
        k, l = violation["components"]
        lines.append(f"  violation [{violation['kind']}] at components ({k},{l}): "
                     f"residual = {violation['residual']}")
    lines.extend(f"  note: {note}" for note in payload.get("notes", ()))
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_lift(args) -> Report:
    parsed = _load_map(args.file)
    notes: list[str] = []
    matrix_lines: list[str] = []
    if args.complex_:
        if not isinstance(parsed, ComplexPolyMap):
            raise CliError("--complex needs a polynomial map between complex spaces")
        base, lifted = parsed, complete_lift_complex(parsed)
        names = lifted.names()
        title, space = "complex complete lift", "C"
        payload = {
            "kind": "complex",
            "codomain_dim": lifted.codomain_dim,
            "variables": names,
            "components": [render(c, names) for c in lifted.components],
        }
    elif isinstance(parsed, SmoothMap):
        base, lifted = parsed, numeric_complete_lift(parsed)
        names = lifted.names()
        title, space = "complete lift (symbolic)", "R"
        payload = {
            "kind": "smooth",
            "components": [render_expr(c, names) for c in lifted.components],
            "guards": [render_expr(g, names) for g in lifted.guards],
        }
    else:
        base = _require_real(parsed, notes)
        lifted = complete_lift_real(base)
        names = lifted.names()
        title, space = "real complete lift", "R"
        base_names = base.names()
        rows = [[render(entry, base_names) for entry in c.fiber_coefficients()]
                for c in lifted.components]
        payload = {
            "kind": "real",
            "codomain_dim": lifted.codomain_dim,
            "variables": names,
            "components": [render(c, names) for c in lifted.components],
            "coefficient_matrix": rows,
            "notes": notes,
        }
        matrix_lines = ["coefficient matrix M(x) with lift = M(x) * y:",
                        *("  [" + ", ".join(row) + "]" for row in rows)]
    payload["domain_dim"] = lifted.domain_dim
    return Report(payload, [
        *(f"note: {note}" for note in notes),
        f"{title}: {space}^{base.domain_dim} -> {space}^{base.codomain_dim} "
        f"lifts to {space}^{lifted.domain_dim} -> {space}^{lifted.codomain_dim}",
        *_numbered("F", payload["components"]),
        *matrix_lines])


def _first_block(text, phi) -> int:
    if text is None:
        if phi.domain_dim % 2:
            raise CliError("--orthogonal-multiplication needs --blocks "
                           "for odd-dimensional domains")
        return phi.domain_dim // 2
    try:
        return int(text)
    except ValueError as error:
        raise CliError("--blocks expects one integer like 4") from error


def _cmd_check(args) -> Report:
    requested = set(args.checks)
    if args.blocks is not None and "orthogonal-multiplication" not in requested:
        raise CliError("--blocks needs --orthogonal-multiplication")
    parsed = _load_map(args.file)
    if isinstance(parsed, SmoothMap):
        raise CliError("check works on exact polynomial maps; "
                       "use numeric-check for smooth maps")
    if not requested:
        requested = {"harmonic", "hwc", "morphism"}
        if isinstance(parsed, ComplexPolyMap):
            requested.add("holomorphic")
    real = real_form(parsed)
    notes: list[str] = []
    checks = []
    for name in sorted(requested, key=CHECK_FLAGS.index):
        form, run = catalog_module.CHECKS[name]
        if form == "real":
            phi = real
            if real is not parsed and not notes:
                notes.append("complex map: checks run on its real identification")
        elif isinstance(parsed, ComplexPolyMap):
            phi = parsed
        else:
            raise CliError(f"--{name} needs a map between complex spaces")
        blocks = ((_first_block(args.blocks, phi),)
                  if name == "orthogonal-multiplication" else ())
        checks.append(_check_payload(run(phi, *blocks), phi.names()))
    lines = [f"note: {note}" for note in notes]
    for check in checks:
        lines.extend(_check_lines(check))
    return Report({"checks": checks, "notes": notes}, lines)


def _cmd_antilift(args) -> Report:
    parsed = _load_map(args.file)
    notes: list[str] = []
    real_map = _require_real(parsed, notes)
    outcome = anti_lift(real_map)
    payload: dict = {"split": real_map.domain_dim // 2, "notes": notes}
    if isinstance(outcome, RealPolyMap):
        components = [render(c) for c in outcome.components]
        payload.update({"result": "complete-lift", "base_components": components})
        return Report(payload, [
            "the map is a complete lift; base map (zero constants):",
            *_numbered("f", components)])
    if isinstance(outcome, MixedPartialObstruction):
        values = [render(outcome.value_jk), render(outcome.value_kj)]
        payload.update({
            "result": "mixed-partial-obstruction",
            "component": outcome.component,
            "variables": [outcome.var_j, outcome.var_k],
            "values": values,
        })
        return Report(payload, ["not a complete lift: mixed-partial obstruction",
                                f"  {outcome.describe()}",
                                f"  {values[0]} != {values[1]}"])
    assert isinstance(outcome, NotPartialLinear)
    # the JSON form prints the witness monomial; the text form exits the same
    # way when one of its exponents is too long, so the two keep one status
    try:
        str(max((*outcome.monomial, outcome.fiber_degree)))
    except ValueError as error:
        raise IntegerTooLong() from error
    payload.update({
        "result": "not-partial-linear",
        "component": outcome.component,
        "monomial": outcome.monomial,
        "fiber_degree": outcome.fiber_degree,
    })
    return Report(payload, ["not a complete lift: not linear in the fiber block",
                            f"  {outcome.describe()}"])


def _kaehler_input(parsed, notes: list) -> RealPolyMap:
    if isinstance(parsed, ComplexPolyMap):
        if parsed.codomain_dim != 1:
            raise CliError("kaehler needs a map to C (one complex component)")
        notes.append("complex map: using its real identification")
    elif isinstance(parsed, RealPolyMap):
        if parsed.codomain_dim != 2 or parsed.domain_dim % 2:
            raise CliError("kaehler needs a map R^{2m} -> R^2 read as C-valued")
    else:
        raise CliError("kaehler needs a polynomial map")
    return real_form(parsed)


def _cmd_kaehler(args) -> Report:
    for flag in ("budget", "seed"):
        if getattr(args, flag) is not None and not args.search:
            raise CliError(f"--{flag} needs --search")
    budget = 500 if args.budget is None else args.budget
    if args.search and budget < 1:
        raise CliError(f"--budget must be at least 1, got {budget}")
    parsed = _load_map(args.file)
    notes: list[str] = []
    real_map = _kaehler_input(parsed, notes)
    m = real_map.domain_dim // 2
    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as handle:
                points = parse_points(handle.read(), m)
        except OSError as error:
            raise CliError(f"cannot read {args.points}: {error}") from error
        report = span_report(real_map, points)
    else:
        report = search_points(real_map, budget, args.seed or 0)
    payload = {
        "m": m,
        "points": [[render_scalar(x) for x in p] for p in report.sample_points],
        "gradients": [[render_scalar(x) for x in g] for g in report.gradients],
        "rank": report.rank,
        "isotropy_ok": report.isotropy_ok,
        "pairwise_orthogonal": report.pairwise_orthogonal,
        "jacobian_ranks": report.jacobian_ranks,
        "verdict": report.verdict,
        "notes": [*notes, *report.notes],
    }
    lines = [f"note: {note}" for note in notes]
    lines.append(f"gradient span criterion with m = {m}:")
    for point, gradient in zip(payload["points"], payload["gradients"]):
        lines.append(f"  point ({', '.join(point)})")
        lines.append(f"    gradient ({', '.join(gradient)})")
    lines += [f"rank = {report.rank}; every gradient isotropic: "
              f"{report.isotropy_ok}; pairwise orthogonal: "
              f"{report.pairwise_orthogonal}",
              f"real Jacobian ranks at the points: {list(report.jacobian_ranks)}",
              f"verdict: {report.verdict}",
              *(f"  note: {note}" for note in report.notes)]
    return Report(payload, lines)


def _cmd_numeric(args) -> Report:
    if args.points < 1:
        raise CliError(f"--points must be at least 1, got {args.points}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {args.tol}")
    parsed = _load_map(args.file)
    if isinstance(parsed, (RealPolyMap, ComplexPolyMap)):
        raise CliError("numeric-check is for smooth maps; "
                       "use check for exact polynomial maps")
    points = sample_points(parsed, args.points, args.seed)
    report = numeric_check(parsed, points, args.tol)
    verdict = "pass" if report.verdict else "fail"
    payload = {
        "points": args.points,
        "seed": args.seed,
        "tolerance": args.tol,
        "laplacian_residuals": report.laplacian_residuals,
        "conformality_residual": report.conformality_residual,
        "verdict": verdict,
        "witness_point": report.witness_point or None,
        "notes": report.notes,
    }
    residuals = ", ".join(f"{r:.3e}" for r in report.laplacian_residuals)
    lines = [f"numeric check at {len(points)} sampled points "
             f"(seed {args.seed}, tolerance {args.tol:g}):",
             f"  max |laplacian| per component: {residuals}",
             f"  max conformality residual: {report.conformality_residual:.3e}",
             f"  verdict: {verdict}"]
    if report.witness_point is not None:
        witness = ", ".join(f"{x:.6g}" for x in report.witness_point)
        lines.append(f"  witness point: ({witness})")
    lines.extend(f"  note: {note}" for note in report.notes)
    return Report(payload, lines)


def _cmd_reproduce(args) -> Report:
    if args.all_ == (args.entry is not None):
        raise CliError("reproduce needs an entry id or --all")
    ids = catalog_module.entry_ids() if args.all_ else [args.entry]
    entries = [catalog_module.run_entry(entry_id) for entry_id in ids]
    lines = []
    for entry in entries:
        lines.append(f"[{'ok' if entry['ok'] else 'MISMATCH'}] {entry['id']}")
        for check in entry["checks"]:
            name, actual, ok = check["check"], check["actual"], check["ok"]
            if name == "kaehler-gradients":
                # one vector a line, where a generic line would print two long reprs
                lines.append(f"    {name}: {'match' if ok else 'MISMATCH'} "
                             f"({len(actual)} gradients)")
                lines.extend(f"      ({', '.join(gradient)})" for gradient in actual)
                continue
            lines.append(f"    {name}: expected {check['expected']!r}, got {actual!r} "
                         f"[{'ok' if ok else 'MISMATCH'}]")
            if check["detail"]:
                lines.append(f"        {check['detail']}")
        lines.extend(f"    note: {note}" for note in entry["notes"])
    all_ok = all(entry["ok"] for entry in entries)
    lines.append("all expectations matched" if all_ok
                 else "some expectations did not match")
    return Report({"entries": entries, "ok": all_ok}, lines, 0 if all_ok else 1)


def _cmd_catalog(args) -> Report:
    if args.action == "list":
        entries = [{"id": e.entry_id, "title": e.title, "kind": e.kind,
                    "provenance": e.provenance}
                   for e in (catalog_module.lookup(i)
                             for i in catalog_module.entry_ids())]
        return Report({"entries": entries},
                      [f"{e['id']:36} {e['kind']:12} {e['title']}" for e in entries])
    if not args.entry:
        raise CliError("catalog dump needs an entry id")
    entry = catalog_module.lookup(args.entry)
    return Report({"id": entry.entry_id, "definition": entry.definition},
                  [entry.definition])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "lift": _cmd_lift,
    "check": _cmd_check,
    "antilift": _cmd_antilift,
    "kaehler": _cmd_kaehler,
    "numeric-check": _cmd_numeric,
    "reproduce": _cmd_reproduce,
    "catalog": _cmd_catalog,
}


def cli_main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return 2 if error.code not in (0, None) else 0
    try:
        report = _HANDLERS[args.command](args)
    except (CliError, MapSyntaxError, catalog_module.UnknownEntry,
            DimensionMismatch, ShapeError, SamplingError,
            InternalConsistencyError, EvalDomainError, NotPolynomial,
            IntegerTooLong, OverflowError, RecursionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps({"schema": SCHEMA_VERSION, "command": args.command,
                              **report.payload}, indent=2, sort_keys=True), file=out)
        else:
            for line in report.lines:
                print(line, file=out)
        out.flush()
    except BrokenPipeError:
        # the reader has gone: send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return report.status


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
