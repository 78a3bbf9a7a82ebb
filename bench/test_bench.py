"""Self-tests of the benchmark: determinism, predicted zero cells, the
traced/untraced agreement, the metric list and the refusal paths.

Run with: python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import digest_witnesses, run_items  # noqa: E402


def _results(workload: str, seed: int, tracer: Tracer | None = None):
    inputs = workloads.make_inputs(workload, seed)
    if tracer is not None:
        tracer.install()
    try:
        results = run_items(workloads.items(workload, inputs), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest_witnesses(results)
    return [(r["id"], r["passed"], r["digest"]) for r in results]


def _counts(tracer: Tracer) -> dict:
    metrics = run.layer_metrics(tracer.summary())
    return {k: v for k, v in metrics.items() if run.unit_of(k) == "count" or k.endswith("distinct_ratio")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.input_digest(workloads.make_inputs(workload, 3))
    b = workloads.input_digest(workloads.make_inputs(workload, 3))
    assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    a = workloads.input_digest(workloads.make_inputs(workload, 0))
    b = workloads.input_digest(workloads.make_inputs(workload, 1))
    assert a != b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_and_repeats(workload):
    untraced = _results(workload, 0)
    first, second = Tracer(), Tracer()
    assert _results(workload, 0, first) == untraced
    assert _results(workload, 0, second) == untraced
    assert all(passed for _, passed, _ in untraced)
    assert _counts(first) == _counts(second)
    metrics = run.layer_metrics(first.summary())
    for prefix in run.PREDICTED_ZERO.get(workload, ()):
        touched = {k: v for k, v in metrics.items() if k.startswith(prefix) and v}
        assert not touched, f"{workload} touched {prefix}*: {touched}"
    assert metrics["pfaffian.pfaffian.calls"] > 0


def test_tracer_restores_originals():
    P, Poly, V = workloads.P, workloads.R.Poly, workloads.V
    before = (P.pfaffian, Poly.__mul__, Poly.__rmul__, V.pfaffian)
    tracer = Tracer()
    tracer.install()
    assert P.pfaffian is not before[0] and V.pfaffian is P.pfaffian and Poly.__rmul__ is Poly.__mul__
    tracer.uninstall()
    assert (P.pfaffian, Poly.__mul__, Poly.__rmul__, V.pfaffian) == before


def test_failed_and_raising_items_count_as_failed():
    def boom():
        raise ValueError("no")

    results = run_items([("ok", lambda: (True, 1)), ("false", lambda: (False, 2)), ("raises", boom)])
    assert [r["passed"] for r in results] == [True, False, False]


def test_calibrator_samples_after_each_item_and_scales_times():
    calibrator = Calibrator()
    run_items([("a", lambda: (True, 1)), ("b", lambda: (True, 2))], calibrator=calibrator)
    assert calibrator.reps >= 2 and calibrator.wall_s > 0 and calibrator.slowdown() > 0
    records = [
        ("untraced", {"verify_s": 2.0, "cpu_s": 1.0, "setup_s": 0.5, "peak_rss_mib": 20.0,
                      "slowdown": 2.0, "setup_slowdown": 0.5}),
        ("setup", {"setup_s": 0.75, "setup_slowdown": 1.5}),
        ("traced", {"verify_s": 9.0, "cpu_s": 9.0, "setup_s": 9.0, "peak_rss_mib": 99.0,
                    "slowdown": 1.0, "setup_slowdown": 1.0}),
    ]
    assert run.end_to_end_samples(records) == {
        "verify_s": [1.0], "cpu_s": [0.5], "setup_s": [1.0, 0.5], "peak_rss_mib": [20.0]}
    assert run.end_to_end_samples(records, scaled=False)["setup_s"] == [0.5, 0.75]


def test_metric_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, run.unit_of(k)) for k in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def _bench_only_copy(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    return tmp_path


def test_run_refuses_without_sources(tmp_path):
    root = _bench_only_copy(tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "msf-rational", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_worker_refuses_foreign_pfaffkit(tmp_path):
    root = _bench_only_copy(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "bench/worker.py", "--workload", "msf-rational", "--seed", "0",
                           "--spawned-at", "0"], cwd=root, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "expected" in proc.stderr
