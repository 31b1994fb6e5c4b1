"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TWO_SHAPES = [("gl", 2, (1, 1)), ("sp", 4, (1, 2, 1))]


def _package():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import parinv.cli  # noqa: F401

    return sys.modules["parinv"]


def _bindings(package):
    mods = [m for n, m in sys.modules.items() if n == "parinv" or n.startswith("parinv.")]
    snap = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    snap[("Matrix", "__matmul__")] = id(package.linalg.Matrix.__dict__["__matmul__"])
    return snap


def test_sweep_has_81_shapes():
    shapes = run.sweep_shapes()
    assert len(shapes) == len(set(shapes)) == 81
    labels = {run.shape_label(*s) for s in shapes}
    assert run.KNOWN_SWEEP_FAILURES <= labels


def test_traced_run_restores_bindings_and_prints_declared_metrics():
    package = _package()
    before = _bindings(package)
    result, details = run.run(package, "sweep", seed=1, seconds=0, trace=True, shapes=TWO_SHAPES)
    assert _bindings(package) == before
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4  # one untraced and one traced pass
    assert details["reports_identical"]
    assert details["failing_verdicts"] == {"gl2-1-1": 1}
    assert set(details["run_suite_s"]) == {"gl2-1-1", "sp4-1-2-1"}
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["linalg.det.calls"] > 0 and metrics["linalg.matmul.calls"] > 0
    assert metrics["verification.check_invariance.s"] > 0


def test_untraced_run_prints_declared_metrics():
    package = _package()
    result, details = run.run(package, "sweep", seed=1, seconds=0, trace=False, shapes=TWO_SHAPES)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert result["metrics"]["pass_frac"]["value"] == 0.5


def test_exits_nonzero_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
