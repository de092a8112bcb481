#!/usr/bin/env python3
"""morphlift benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/morphlift``; the package
is imported from there. One process, one thread, a closed loop with one
caller: each op starts after the previous one returned. The run repeats the
workload's pass of ops until ``--seconds`` have gone by (at least one pass)
and checks the output of every op outside its timer. With ``--trace 1`` it
then runs one more pass with the per-layer tracer installed.

On a shared cloud VM the speed of a fixed piece of Python can change by up
to 2x within seconds and drift over minutes, and the program slows with it.
So the run times ``reference()``, a fixed computation of the benchmark's
own, just before and after every op and, from a SIGALRM timer in the same
thread, every ``SAMPLE_EVERY_S`` during it. Each reported time is the
measured time, less the timer's samples, multiplied by ``REFERENCE_S`` over
the mean of those reference times: seconds on a host where ``reference()``
takes ``REFERENCE_S``. The ``#`` lines give the unscaled times as well, and the
ratio of the two for each kind of op.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``). Lines before it, each
starting with ``#``, give the environment, the per-op times, the probes and,
when traced, the layers with the most self time. ``--workload all`` runs
each workload in a fresh process in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("catalog", "ladder", "kaehler", "mapio")
SETUP_REPEATS = 5        # fresh processes timed for setup_s
CHILD_TIMEOUT_S = 170
REFERENCE_S = 0.001      # reference() on an unloaded 2-vCPU x86-64 VM, Python 3.11
SAMPLE_EVERY_S = 0.1
_REFERENCE_POLY = {(i % 5, i % 3, i % 2): Fraction(i + 1, 3) if i % 4 == 0 else i + 1
                   for i in range(18)}


def reference() -> float:
    """Seconds one fixed sparse product over tuple-keyed dicts with int and
    Fraction coefficients takes, the kind of work the program does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        product = {}
        for a, ca in _REFERENCE_POLY.items():
            for b, cb in _REFERENCE_POLY.items():
                key = tuple(x + y for x, y in zip(a, b))
                product[key] = product.get(key, 0) + ca * cb
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median(count: int = 5) -> float:
    return statistics.median(reference() for _ in range(count))


class HostSpeed:
    """While entered, times reference() every SAMPLE_EVERY_S from a SIGALRM
    handler, which runs in the main thread between bytecodes. The reference
    times taken between ops cannot follow the host's speed through an op
    that runs for seconds; these samples can."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0          # seconds the handler took in all

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference()               # the op has left the caches cold
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the workload, print the seconds since the given
    # time.monotonic() value (taken by the parent just before it started
    # this process) and the reference time right after, and exit.
    parser.add_argument("--setup-since", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    files = sorted((SRC / "morphlift").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        revision = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def workdir() -> tempfile.TemporaryDirectory:
    """A scratch directory for the inputs, removed on exit. It lies inside
    the benchmark's own directory, so that a run writes only there."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=HERE)


def setup_child(args) -> int:
    with workdir() as path:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, Path(path))
        elapsed = time.monotonic() - args.setup_since
        print(elapsed, reference_median())
    return 0


def measure_setup(args) -> list[list[float]]:
    """Set up in fresh processes: import, catalog registry and inputs.
    Returns (scaled, measured) seconds for each process, scaled by the
    reference times just before the process started and right after its
    set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_median()
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--setup-since", repr(time.monotonic())]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        elapsed, after = (float(x) for x in done.stdout.split())
        samples.append([elapsed * 2 * REFERENCE_S / (before + after), elapsed])
    return samples


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{name}: {detail}")


class Timing:
    """The scaled and the measured seconds of one successful op."""

    def __init__(self, name: str, measured: float, scale: float):
        self.name = name
        self.measured = measured
        self.seconds = measured * scale


def run_pass(ops, tally: Tally, tracer=None) -> tuple[list[Timing], list[float]]:
    """Run every op once. Return the timing of each op that passed and all
    the reference times taken between the ops and during them. The traced
    pass takes none during an op, where the handler's time would count as
    the self time of whatever span is open."""
    timings = []
    clock = time.perf_counter
    references = [reference_median()]
    speed = HostSpeed()
    with contextlib.nullcontext() if tracer else speed:
        for op in ops:
            tally.attempted += 1
            first, spent = len(speed.samples), speed.spent
            if tracer is not None:
                tracer.active = True
            try:
                start = clock()
                output = op.run()
                elapsed = clock() - start - (speed.spent - spent)
            except Exception:       # a failed op is counted, the run goes on
                tally.fail(op.name, traceback.format_exc(limit=3))
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
                during = speed.samples[first:]
                references += [*during, reference_median()]
            try:
                op.check(output)
            except Exception as error:
                tally.fail(op.name, f"{type(error).__name__}: {error}")
                continue
            finally:
                del output          # free a big result before the next op
            speeds = [references[-len(during) - 2], *during, references[-1]]
            timings.append(Timing(op.name, elapsed,
                                  REFERENCE_S / statistics.fmean(speeds)))
    return timings, references


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_workload(args) -> int:
    import workloads
    env = environment()
    # An op and the reference times around it must come from the same CPU:
    # a VM's CPUs need not be equally fast. The set-up processes inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_samples = measure_setup(args)
    tally = Tally()
    with workdir() as path:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(path))
        passes = []
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < args.seconds:
            passes.append(run_pass(workload.ops, tally)[0])
        # Read before the probes, so that a fix that lets them run in full
        # does not read as a larger footprint.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = {}
        for name, probe in workload.probes.items():
            try:
                probes[name] = "ok" if probe() else "wrong-output"
            except Exception as error:
                probes[name] = type(error).__name__
        traced_pass = tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced_pass, traced_references = run_pass(workload.ops, tally, tracer)
            finally:
                tracer.uninstall()

    def pass_wall(timings, field="seconds"):
        return sum(getattr(t, field) for t in timings)

    latencies = [t.seconds for timings in passes for t in timings]
    correct = tally.failed == 0
    wall_s = statistics.median(pass_wall(timings) for timings in passes)
    end_to_end = {
        "setup_s": (statistics.median(s for s, _ in setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms") if latencies else None,
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms") if latencies else None,
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = {
        "setup_s": statistics.median(m for _, m in setup_samples),
        "wall_s": statistics.median(pass_wall(t, "measured") for t in passes),
    }

    info = dict(env, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                passes=len(passes), ops=len(latencies),
                setup_samples_s=setup_samples)
    print("# env " + json.dumps(info, sort_keys=True))
    for name, value in end_to_end.items():
        if value is not None:
            unscaled = (f" (measured {measured[name]:.6g})"
                        if name in measured else "")
            print(f"# {name} = {value[0]:.6g} {value[1]}{unscaled}")
    by_op: dict[str, list[Timing]] = {}
    for timings in passes:
        for timing in timings:
            by_op.setdefault(timing.name, []).append(timing)
    for name, values in by_op.items():
        print(f"# op {name}: median "
              f"{statistics.median(t.seconds for t in values):.6g} s "
              f"(measured {statistics.median(t.measured for t in values):.6g}, "
              f"ratio {statistics.median(t.measured / t.seconds for t in values):.4f}) "
              f"over {len(values)}")
    probe_failures = sum(outcome != "ok" for outcome in probes.values())
    for name, outcome in probes.items():
        print(f"# probe {name}: {outcome}")
    total = tally.attempted + len(probes)
    print(f"# fail_ratio = {(tally.failed + probe_failures) / total:.6g} ratio "
          f"({tally.failed} ops + {probe_failures} probes of {total})")
    for failure in tally.failures:
        print(f"# FAILED {failure}", file=sys.stderr)

    if args.trace:
        overhead = pass_wall(traced_pass) / wall_s if wall_s else 0.0
        scale = REFERENCE_S / statistics.fmean(traced_references)
        tracer.self_s = {name: t * scale for name, t in tracer.self_s.items()}
        metrics = tracer.metrics(overhead)
        functions, layers = tracer.top()
        print("# top functions by self time: " + ", ".join(
            f"{name} {seconds:.4g} s" for name, seconds in functions))
        print("# top layers by self time: " + ", ".join(
            f"{name} {seconds:.4g} s" for name, seconds in layers))
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items() if value is not None}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is that workload's."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"# [{name}] {line.removeprefix('# ')}")
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morphlift" / "__init__.py").is_file():
        print(f"error: no morphlift package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_since is not None:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
