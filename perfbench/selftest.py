"""Fast checks of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run
does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run as bench  # noqa: E402

def _tiny(name: str) -> bench.Workload:
    workload = bench.WORKLOADS[name]
    return dataclasses.replace(workload, rows_per_year=40,
                               score_records=min(workload.score_records, 30))


@pytest.fixture(scope="module")
def results():
    """One tiny untraced and one tiny traced run of every workload."""
    return {(name, trace): bench.run(name, 7, 1, bool(trace),
                                     _tiny(name))["result"]
            for name in bench.WORKLOADS for trace in (0, 1)}


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert doc["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_self_times_are_nonnegative_and_within_wall(results, workload):
    metrics = {k: m["value"] for k, m in results[workload, 1]["metrics"].items()}
    self_times = [metrics[f"{layer}.self_s"] for layer in bench.LAYERS]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= metrics["trace.wall_s"]
    assert 0.0 < metrics["trace.layer_coverage"] <= metrics["trace.coverage"]
    assert metrics["trace.coverage"] <= 1.0


def test_traced_counts_show_the_redundant_work(results):
    knn = {k: m["value"] for k, m in results["knn-pipeline", 1]["metrics"].items()}
    assert knn["knn.predict_rows_calls"] == 7
    assert knn["knn.select_k_calls"] == 6
    assert knn["knn.fit_knn_calls"] == 13
    screen = {k: m["value"]
              for k, m in results["screen-forest", 1]["metrics"].items()}
    assert screen["screening.screen_predictors_calls"] == 2
    assert screen["screening.trees"] == 8
    assert screen["screening.probe_nodes"] > 0
    analytics = {k: m["value"]
                 for k, m in results["analytics", 1]["metrics"].items()}
    assert analytics["drift.drift_report_calls"] == 2
    assert analytics["stats.summarize_calls"] == 2
    score = {k: m["value"] for k, m in results["score-online", 1]["metrics"].items()}
    assert score["knn.queries"] == 30
    assert score["knn.predict_samples"] >= 30


def test_span_self_time_subtracts_covered_children():
    spans = [
        ["cli.main", 0, 100, -1, "r"],
        ["knn.select_k", 10, 50, 0, "r"],
        ["knn.fit_knn", 12, 20, 1, "r"],
        ["svgplot.scatter", 60, 70, 0, "r"],
    ]
    seconds, calls, self_s = bench.span_stats(spans)
    assert calls["knn.select_k"] == 1
    assert seconds["cli.main"] == pytest.approx(100e-9)
    assert self_s["cli.main"] == pytest.approx(50e-9)
    assert self_s["knn.select_k"] == pytest.approx(32e-9)
    assert self_s["knn.fit_knn"] == pytest.approx(8e-9)
    assert self_s["svgplot.scatter"] == pytest.approx(10e-9)
    assert sum(self_s.values()) == pytest.approx(100e-9)


def test_layer_coverage_leaves_out_the_cli_main_remainder():
    p = bench.Pass(traced=True, wall_s=200e-9)
    p.self_s.update({"cli.import": 20e-9, "cli.main": 50e-9,
                     "cli.emit_table": 10e-9, "knn.select_k": 40e-9})
    metrics = bench.layer_metrics(p)
    assert metrics["cli.self_s"] == pytest.approx(80e-9)
    assert metrics["knn.self_s"] == pytest.approx(40e-9)
    assert metrics["trace.coverage"] == pytest.approx(0.6)
    assert metrics["trace.layer_coverage"] == pytest.approx(0.35)


def test_traced_metrics_come_from_one_pass_and_compare_neighbours():
    walls = [10.0, 12.0, 14.0, 9.0, 10.0, 16.0, 12.0]
    passes = [bench.Pass(traced=i % 2 == 1, wall_s=w)
              for i, w in enumerate(walls)]
    for i, p in enumerate(passes):
        p.calls["knn.select_k"] = i
    values = bench.traced_values(passes)
    # traced walls 12, 9, 16: the median one is pass 1
    assert values["trace.wall_s"] == 12.0
    assert values["knn.select_k_calls"] == 1
    # ratios 12/12, 9/12, 16/11; their median is 1.0
    assert values["trace.overhead"] == pytest.approx(0.0)


def _tiny_bench(tmp_path: Path, expected=None) -> bench.Bench:
    workload = bench.Workload(40, (("summary",),))
    b = bench.Bench("analytics", workload, 7, tmp_path, expected or {})
    (tmp_path / "tmp").mkdir()
    b.inputs = bench.prepare(workload, 7, tmp_path)
    return b


def test_missing_data_dir_is_counted_not_raised(tmp_path):
    b = _tiny_bench(tmp_path)
    b.inputs.data_dir = tmp_path / "missing"
    p = b.run_pass(traced=False)
    assert (p.attempted, p.failed) == (1, 1)
    err = (tmp_path / "logs" / "pass0-summary.err").read_text()
    assert "data directory not found" in err and "Traceback" not in err


def test_hung_child_is_killed_at_the_deadline(tmp_path):
    start = time.perf_counter()
    result = bench.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                             tmp_path, "hang", start + 0.5)
    assert result.returncode != 0 and not result.ok
    assert result.wall_s < 30


def test_digest_mismatch_is_a_failure(tmp_path):
    b = _tiny_bench(tmp_path, {"summary": {"summary.csv": "0" * 64}})
    p = b.run_pass(traced=False)
    assert (p.attempted, p.failed) == (1, 1)


def test_traced_and_untraced_outputs_agree(tmp_path):
    b = _tiny_bench(tmp_path)
    b.run_pass(traced=False)
    p = b.run_pass(traced=True)
    assert (p.attempted, p.failed) == (1, 0)
    assert p.calls["stats.summarize"] == 1


def test_oracle_is_exact_and_detects_a_changed_prediction():
    import numpy as np
    from pemskit import Dataset, fit_knn, make_dataset, predict, split

    raw = make_dataset(rows_per_year=60, seed=4, drift=0.3)
    # rounding creates distance ties, which the (d2, index) order settles
    ds = Dataset({n: np.round(v) for n, v in raw.columns.items()}, raw.year,
                 raw.years)
    model = fit_knn(ds, split(ds, seed=4), k=5)
    queries = ds.matrix(model.predictors)[:40]
    want = bench.oracle_predictions(model, queries)
    got = [predict(model, dict(zip(model.predictors, q))) for q in queries.tolist()]
    assert bench.mismatches(got, want) == 0
    got[3] = float(np.nextafter(got[3], np.inf))
    assert bench.mismatches(got, want) == 1
    assert bench.mismatches(got[:-2], want) == 3


def test_tracer_restores_every_original():
    import pemskit
    import pemskit.cli

    modules = [m for n, m in sys.modules.items()
               if n == "pemskit" or n.startswith("pemskit.")]
    before = [dict(vars(m)) for m in modules]
    tracer = child.Tracer("t")
    tracer.install()
    try:
        assert pemskit.cli.load_dataset.__wrapped__ is before[
            modules.index(pemskit.ingest)]["load_dataset"]
        assert pemskit.predict is pemskit.knn.predict
        assert pemskit.predict.__wrapped__ is before[
            modules.index(pemskit.knn)]["predict"]
    finally:
        tracer.restore()
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "knn-pipeline", "--seed", "7", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_covers_every_workload():
    doc = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    assert set(doc) == set(bench.WORKLOADS)
    assert all(doc[w] for w in doc)
