"""parinv benchmark: time to verdict through the user path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference|ladder|sweep \\
        --seed N --seconds S --trace 0|1

Each shape of the workload is verified with
``parinv.cli.main(["verify", ...])`` in this process, one shape at a time,
with the package's memo caches cleared first, as a fresh ``parinv verify``
would see them.  One pass verifies every shape once; passes repeat while
one more fits in ``--seconds`` (at least one pass runs).  Every pass uses
the same seed, so every pass must print the same reports.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see tracer.py) and prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
details (reports_sha256, sample counts, per-shape and per-check times).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import RankProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((Path(__file__).parent / "spec.json").read_text(encoding="utf-8"))

VERDICT_TIMEOUT_S = 60  # the slowest shape, Sp(12), takes about 10 s on an AMD EPYC core
SETUP_SAMPLES = 41  # one import varies by about 20%; the median of 41 holds within a few %
MODULES = ("shapes", "linalg", "sampling", "generators_gl", "generators_osp", "verification", "cli")

LADDER = (
    ("gl", 8, (2, 3, 3)),
    ("gl", 10, (2, 3, 5)),
    ("o", 9, (2, 2, 1, 2, 2)),
    ("sp", 12, (2, 2, 4, 2, 2)),
)
TRIALS = {"reference": 100, "ladder": 10, "sweep": 4}
KNOWN_SWEEP_FAILURES = frozenset(SPEC["known_sweep_failures"]["shapes"])

CHECKS = (
    "check_index_combinatorics", "check_golden_values", "check_invariance",
    "check_adjugate_minor_lemma", "check_monomial_restriction", "check_bruhat_containment",
    "check_slice_support", "check_orbit_dimension", "check_count_identity",
    "check_independence", "check_nonvanishing", "check_negative_controls",
)
# functions reported as .calls and .self_s
TIMED = (
    "linalg.det", "linalg.adjugate", "linalg.inverse", "linalg.matmul", "linalg.minor",
    "linalg.nullspace_basis", "linalg.rank", "linalg.trace_product",
    "verification.directional_jacobian",
    "sampling.sample_group_point", "sampling.sample_unipotent_radical", "sampling.sample_slice",
    "sampling.cayley", "sampling.lie_algebra_basis", "sampling.resolve_slice_sign",
    "shapes.index_set", "generators_gl.build_generators", "generators_gl.eval_generator",
    "generators_osp.build_osp_system",
)


def compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def sweep_shapes() -> list[tuple[str, int, tuple[int, ...]]]:
    """Every valid (kind, n, composition) with n <= 5: orthogonal and
    symplectic compositions are palindromic, symplectic n is even."""
    out = []
    for kind in ("gl", "sl", "o", "sp"):
        for n in range(1, 6):
            if kind == "sp" and n % 2:
                continue
            for parts in compositions(n):
                if kind in ("o", "sp") and parts != parts[::-1]:
                    continue
                out.append((kind, n, parts))
    return out


def workload_shapes(name: str, cli) -> list[tuple[str, int, tuple[int, ...]]]:
    if name == "reference":
        return list(cli.ACCEPTANCE_SHAPES)
    if name == "ladder":
        return list(LADDER)
    return sweep_shapes()


def shape_label(kind: str, n: int, parts) -> str:
    return f"{kind}{n}-" + "-".join(str(p) for p in parts)


class VerdictTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise VerdictTimeout()


@dataclass
class Verdict:
    label: str
    outcome: object  # exit code, or "timeout" / "error: ..."
    seconds: float
    stdout: str


@dataclass
class Pass:
    verdicts: list[Verdict]

    @property
    def wall_s(self) -> float:
        """Time to all verdicts, without the harness's work between them."""
        return sum(v.seconds for v in self.verdicts)

    @property
    def stdout(self) -> str:
        return "".join(v.stdout for v in self.verdicts)


class Harness:
    """Runs passes of one workload against the imported program."""

    def __init__(self, package, shapes, seed: int, trials: int):
        self.package = package
        self.cli = package.cli
        self.shapes = shapes
        self.seed = seed
        self.trials = trials
        # memo caches, collected before any tracer rebinds their names
        self.caches = list({id(obj): obj for mod in self.modules() for obj in vars(mod).values()
                            if hasattr(obj, "cache_clear")}.values())

    def modules(self):
        return [getattr(self.package, name) for name in MODULES]

    def verify(self, kind: str, n: int, parts) -> Verdict:
        argv = ["verify", "--group", kind, "--n", str(n), "--parts", ",".join(map(str, parts)),
                "--seed", str(self.seed), "--trials", str(self.trials)]
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()  # start from a clean heap and garbage-collector schedule
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, VERDICT_TIMEOUT_S)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                outcome = self.cli.main(argv)
        except VerdictTimeout:
            outcome = "timeout"
        except Exception as exc:  # a crash is a failed verdict, reported in the result
            outcome = f"error: {type(exc).__name__}: {exc}"
        finally:
            seconds = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return Verdict(shape_label(kind, n, parts), outcome, seconds, out.getvalue())

    def run_pass(self) -> Pass:
        return Pass([self.verify(*shape) for shape in self.shapes])


def parse_report(v: Verdict) -> dict | None:
    """The verdict's report, if it printed exactly one whose pass flag
    matches the exit code."""
    if v.outcome not in (0, 1) or v.stdout.count("\n") != 1:
        return None
    try:
        report = json.loads(v.stdout)
    except ValueError:
        return None
    return report if report.get("pass") is (v.outcome == 0) else None


def verdict_ok(v: Verdict, workload: str) -> bool:
    """A well-formed report that passes, unless the shape is a known sweep failure."""
    if parse_report(v) is None:
        return False
    return v.outcome == 0 or (workload == "sweep" and v.label in KNOWN_SWEEP_FAILURES)


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (1 <= q <= 99), interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_shape_medians(passes: list[Pass]) -> list[float]:
    return [statistics.median(p.verdicts[i].seconds for p in passes)
            for i in range(len(passes[0].verdicts))]


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import parinv.cli."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import parinv.cli; print(time.perf_counter() - t)")
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first import may compile bytecode
        done = subprocess.run([sys.executable, "-E", "-s", "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def report_counts(p: Pass) -> dict[str, float]:
    """Counts read from the canonical reports of one pass."""
    checks = {}
    for report in filter(None, map(parse_report, p.verdicts)):
        for c in report["checks"]:
            checks.setdefault(c["name"], []).append(c["details"])
    indep = checks.get("independence_rank", [])
    neg = checks.get("negative_controls", [])
    mutants = sum(d["mutants"] for d in neg)
    return {
        "verification.independence.skipped_nongeneric": sum(d["skipped_nongeneric"] for d in indep),
        "verification.independence.points": sum(d["points"] for d in indep),
        "verification.negative_controls.broken_frac":
            sum(d["broken"] for d in neg) / mutants if mutants else 0.0,
        "verification.nonvanishing.max_samples_needed": max(
            (d["max_samples_needed"] for d in checks.get("nonvanishing_witnesses", [])), default=0),
    }


def layer_metrics(tracer: Tracer, probe: RankProbe, p: Pass) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    out["linalg.dual_adjugate.calls"] = tracer.calls("linalg.dual_adjugate")
    out["linalg.rank.max_bits"] = probe.max_bits
    out["linalg.rank.cells"] = probe.cells
    out["verification.orbit_dimension.self_s"] = tracer.self_s("verification.orbit_dimension")
    for check in CHECKS:
        out[f"verification.{check}.s"] = tracer.span_s(f"verification.{check}")
    out["cli.main.self_s"] = tracer.self_s("cli.main")
    out["report.bytes"] = len(p.stdout.encode())
    out.update(report_counts(p))
    return out


UNITS = {"calls": "count", "self_s": "s", "s": "s", "max_bits": "bits", "cells": "count",
         "bytes": "B", "skipped_nongeneric": "count", "points": "count", "broken_frac": "frac",
         "max_samples_needed": "count", "overhead": "ratio"}


def run(package, workload: str, seed: int, seconds: float, trace: bool, shapes=None):
    """Measure one workload; returns (result, details) as printed."""
    shapes = shapes if shapes is not None else workload_shapes(workload, package.cli)
    harness = Harness(package, shapes, seed, TRIALS[workload])
    setup_s = None if trace else measure_setup_s()
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    start = perf_counter()
    while True:
        passes.append(harness.run_pass())
        if trace:
            probe = RankProbe()
            with Tracer(harness.modules(), {"linalg.rank": probe}) as tracer:
                tp = harness.run_pass()
            traced.append((tp, layer_metrics(tracer, probe, tp)))
            spans = tracer.records
        # stop unless one more round, at the mean round time, fits in the budget
        rounds = len(passes)
        if (perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break

    every = passes + [tp for tp, _ in traced]
    failed = sum(not verdict_ok(v, workload) for p in every for v in p.verdicts)
    identical = all(p.stdout == passes[0].stdout for p in every)
    wall = statistics.median(p.wall_s for p in passes)
    details = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "verdict_samples": len(shapes) * len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "reports_sha256": hashlib.sha256(passes[0].stdout.encode()).hexdigest(),
        "reports_identical": identical,
        "failing_verdicts": {v.label: v.outcome for p in every for v in p.verdicts
                             if v.outcome != 0},
    }
    if trace:
        names = traced[0][1]
        metrics = {k: statistics.median(m[k] for _, m in traced) for k in names}
        metrics["trace.overhead"] = statistics.median(tp.wall_s for tp, _ in traced) / wall
        details["traced_passes"] = len(traced)
        details["run_suite_s"] = {r.shape: r.end - r.start for r in spans
                                  if r.name == "verification.run_suite"}
        details["check_spans"] = len([r for r in spans if r.name != "verification.run_suite"])
        by_check: dict[str, dict[str, float]] = {}
        for (name, check), agg in tracer.aggregates.items():
            if name in TIMED:
                by_check.setdefault(check, {})[name] = agg.self_s
        details["self_s_by_check"] = by_check
        units = {k: UNITS[k.rsplit(".", 1)[1]] for k in metrics}
    else:
        medians = per_shape_medians(passes)
        details["verdict_s"] = {v.label: m for v, m in zip(passes[0].verdicts, medians)}
        metrics = {
            "wall_s": wall,
            "verdict_s.p50": statistics.median(medians),
            "verdict_s.p85": quantile(medians, 85),
            "pass_frac": sum(v.outcome == 0 for v in passes[0].verdicts) / len(shapes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "verdict_s.p50": "s", "verdict_s.p85": "s",
                 "pass_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": failed == 0 and identical,
        "attempted": sum(len(p.verdicts) for p in every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRIALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import parinv.cli  # noqa: F401  (loads every module of the package)
    except ImportError as exc:
        print(f"error: cannot import parinv from {SRC}: {exc}", file=sys.stderr)
        return 2
    package = sys.modules["parinv"]
    if Path(package.__file__).resolve().parent.parent != SRC:
        print(f"error: imported parinv from {package.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result, details = run(package, args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: {details['passes']} pass(es), {result['failed']} failed, "
          f"reports {'identical' if details['reports_identical'] else 'DIFFER'}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
