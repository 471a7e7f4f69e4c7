"""Benchmark for pemskit: end-to-end metrics, and per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this
file.  Inputs are generated from ``--seed`` with ``pemskit.synthetic``
before any timing starts.  Each workload pass runs the program in fresh
child processes (``python -m pemskit.cli`` untraced, ``child.py``
traced), checks every output, and accounts each child with ``os.wait4``.
Passes repeat until ``--seconds`` would be exceeded.  Untraced, the
end-to-end times are scaled by the time of ``calibrate.py`` measured
during the same run, so that drift in the machine's speed cancels out.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
YEARS = (2011, 2012, 2013, 2014, 2015)
HELD_OUT_YEAR = 2016
DRIFT = 0.3
SCORE_K = 3
SETUP_SAMPLES_PER_PASS = 2
CALIBRATION_SAMPLES = 2     # calibrate.py children per gap between passes
# End-to-end times are scaled to a machine on which calibrate.py takes
# this long.  The value only sets the scale; it is near the script's time
# on the 2-vCPU machine of the first baseline.
CALIBRATION_REF_S = 0.35
RUN_DEADLINE_S = 170.0      # a run must end within 180 s; hung children die
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
LAYERS = ("ingest", "stats", "varclus", "drift", "screening", "knn",
          "svgplot", "cli")


@dataclass(frozen=True)
class Workload:
    """CLI commands run once per pass (without --data-dir, --seed and
    --out-dir), or ``score_records`` single-record predictions."""

    rows_per_year: int
    commands: tuple[tuple[str, ...], ...] = ()
    score_records: int = 0


# Sizes keep one pass short enough that a 20 s run holds several passes,
# so every reported time is a median.  knn and screen run at 5 x 1,000
# rows (KNN cost grows with rows squared); the analytics commands and the
# scoring model use the real 5 x 7,400 scale.
WORKLOADS = {
    "knn-pipeline": Workload(1000, (("knn", "--k-max", "10", "--plots"),)),
    "screen-forest": Workload(1000, (("screen", "--trees", "4", "--plots"),)),
    "analytics": Workload(7400, (("summary", "--plots"),
                                 ("correlate", "--plots"),
                                 ("cluster-vars", "--plots"),
                                 ("drift", "--plots"))),
    "score-online": Workload(7400, score_records=2000),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "knn.predict_rows_s": "s",
    "knn.predict_rows_calls": "count",
    "knn.queries": "count",
    "knn.queries_per_s": "1/s",
    "knn.distance_evals": "count",
    "knn.select_k_s": "s",
    "knn.select_k_calls": "count",
    "knn.fit_knn_calls": "count",
    "knn.compare_pooled_vs_yearly_s": "s",
    "knn.residuals_s": "s",
    "knn.split_s": "s",
    "knn.save_model_s": "s",
    "knn.model_bytes": "B",
    "knn.load_model_s": "s",
    "knn.predict_us": "us",
    "knn.predict_p50_ms": "ms",
    "knn.predict_p99_ms": "ms",
    "knn.predict_samples": "count",
    "knn.self_s": "s",
    "screening.screen_predictors_s": "s",
    "screening.screen_predictors_calls": "count",
    "screening.trees": "count",
    "screening.tree_s": "s",
    "screening.probe_nodes": "count",
    "screening.probe_node_us": "us",
    "screening.self_s": "s",
    "ingest.load_dataset_s": "s",
    "ingest.rows": "count",
    "ingest.bytes": "B",
    "ingest.rows_per_s": "1/s",
    "ingest.self_s": "s",
    "svgplot.render_s": "s",
    "svgplot.calls": "count",
    "svgplot.bytes": "B",
    "svgplot.self_s": "s",
    "stats.summarize_s": "s",
    "stats.summarize_calls": "count",
    "stats.correlation_matrix_s": "s",
    "stats.flag_high_nox_s": "s",
    "stats.self_s": "s",
    "varclus.cluster_variables_s": "s",
    "varclus.self_s": "s",
    "drift.drift_report_s": "s",
    "drift.drift_report_calls": "count",
    "drift.fit_pca_s": "s",
    "drift.project_s": "s",
    "drift.self_s": "s",
    "cli.import_s": "s",
    "cli.emit_table_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.cpu_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.layer_coverage": "ratio",
    "trace.overhead": "ratio",
}


# ------------------------------------------------------------- inputs

@dataclass
class Inputs:
    files: dict[str, str]               # manifest: path -> sha256
    dataset: object                     # pemskit Dataset
    data_dir: Path | None = None
    model: Path | None = None
    queries: Path | None = None
    oracle: list[float] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fold(selected: list[tuple[float, int]], train_y: list[float], k: int,
          weighting: str) -> float:
    if selected[0][0] == 0.0:
        total = 0.0
        count = 0
        for d2, t in selected:
            if d2 == 0.0:
                total += train_y[t]
                count += 1
        return total / count
    if weighting == "uniform":
        total = 0.0
        for _, t in selected:
            total += train_y[t]
        return total / k
    num = 0.0
    den = 0.0
    for d2, t in selected:
        d = math.sqrt(d2)
        num += train_y[t] / d
        den += 1.0 / d
    return num / den


def oracle_predictions(model, queries) -> list[float]:
    """Brute-force KNN following the exactness contract in knn.py.

    Neighbours are ordered by (squared distance, training index), the
    squared distance accumulates predictor by predictor in declared
    order, and each prediction is a left-to-right fold over the first k.
    """
    import numpy as np

    k = model.k
    q_z = (np.asarray(queries, dtype=np.float64) - model.means) / model.stds
    columns = np.ascontiguousarray(model.train_z.T)
    train_y = model.train_y.tolist()
    out = []
    for lo in range(0, q_z.shape[0], 16):
        block = q_z[lo:lo + 16]
        d2 = np.zeros((block.shape[0], columns.shape[1]))
        diff = np.empty_like(d2)
        for j, column in enumerate(columns):
            np.subtract(block[:, j:j + 1], column, out=diff)
            np.multiply(diff, diff, out=diff)
            d2 += diff
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for row, bound in zip(d2, kth):
            cand = np.flatnonzero(row <= bound)
            selected = sorted(zip(row[cand].tolist(), cand.tolist()))[:k]
            out.append(_fold(selected, train_y, k, model.weighting))
    return out


def mismatches(got: list[float], want: list[float]) -> int:
    """Predictions not bit-equal to the oracle; JSON floats round-trip
    exactly, so the comparison is on the float's exact hex form."""
    return (sum(1 for a, b in zip(got, want) if a.hex() != b.hex())
            + abs(len(got) - len(want)))


def prepare(workload: Workload, seed: int, work: Path) -> Inputs:
    from pemskit import (fit_knn, make_dataset, save_model, split,
                         write_year_files)

    ds = make_dataset(YEARS, workload.rows_per_year, seed, drift=DRIFT)
    if not workload.score_records:
        paths = write_year_files(ds, work / "data")
        return Inputs({p.relative_to(work).as_posix(): sha256_file(p)
                       for p in paths}, ds, data_dir=work / "data")
    model = fit_knn(ds, split(ds, seed=seed), k=SCORE_K)
    model_path = work / "model.json"
    save_model(model, model_path)
    held = make_dataset((HELD_OUT_YEAR,), workload.score_records, seed,
                        drift=DRIFT)
    matrix = held.matrix(model.predictors)
    records = [dict(zip(model.predictors, row)) for row in matrix.tolist()]
    queries_path = work / "queries.json"
    queries_path.write_text(json.dumps(records), encoding="utf-8")
    files = {p.name: sha256_file(p) for p in (model_path, queries_path)}
    return Inputs(files, ds, model=model_path, queries=queries_path,
                  oracle=oracle_predictions(model, matrix))


# ------------------------------------------------------------- children

@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "Traceback" not in self.stderr


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(argv: list[str], work: Path, log: str,
              deadline: float) -> ChildResult:
    """Run one child to completion, killing it at ``deadline``
    (perf_counter seconds).  Resources come from the child's own wait4
    record, never from RUSAGE_CHILDREN, which would carry the peak of
    every earlier child."""
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    err_path = logs / f"{log}.err"
    lock = threading.Lock()
    exited = False
    with (logs / f"{log}.out").open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(work),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)

        def kill_if_running():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(0.0, deadline - start), kill_if_running)
        timer.start()
        try:
            # WNOWAIT leaves the zombie in place, so the timer can never
            # signal a recycled pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       usage.ru_utime + usage.ru_stime,
                       err_path.read_text(encoding="utf-8", errors="replace"))


def digest_dir(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


# --------------------------------------------------------------- spans

def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def span_stats(spans: list[list]) -> tuple[dict, dict, dict]:
    """Total seconds, calls and self seconds per span name.

    A span's self time is its duration minus the part of its interval
    covered by its child spans.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        children[parent].append((start, end))
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        seconds[name] += (end - start) / 1e9
        calls[name] += 1
        self_ns = end - start - _covered_ns(start, end, children[index])
        self_s[name] += self_ns / 1e9
    return seconds, calls, self_s


# -------------------------------------------------------------- passes

@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    files_written: int = 0
    bytes_written: int = 0
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counters: dict = field(default_factory=lambda: defaultdict(int))
    latency_ns: list = field(default_factory=list)


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int,
                 work: Path, expected: dict[str, dict[str, str]]):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = expected
        self.inputs: Inputs | None = None
        self.setup_ok = True
        self.passes: list[Pass] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    # -- one operation per CLI command, or one per scored record
    def _check(self, label: str, digests: dict[str, str]) -> bool:
        want = self.expected.setdefault(label, digests)
        return digests == want

    def _cli_op(self, p: Pass, command: tuple[str, ...], index: int) -> None:
        label = command[0]
        out = self.work / "out" / label
        shutil.rmtree(out, ignore_errors=True)
        args = [*command, "--data-dir", str(self.inputs.data_dir),
                "--seed", str(self.seed), "--out-dir", str(out)]
        log = f"pass{index}-{label}"
        if p.traced:
            spans_path = self.work / "spans" / f"{log}.json"
            spans_path.parent.mkdir(exist_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "child.py"),
                    "--spans", str(spans_path),
                    "--run-id", f"{self.name}-{self.seed}-{log}", "cli", *args]
        else:
            argv = [sys.executable, "-m", "pemskit.cli", *args]
        result = self._account(p, argv, log)
        p.attempted += 1
        digests = digest_dir(out)
        if not (result.ok and self._check(label, digests)):
            p.failed += 1
        p.files_written += len(digests)
        p.bytes_written += sum((out / f).stat().st_size for f in digests)
        if p.traced:
            self._add_spans(p, spans_path)

    def _score_op(self, p: Pass, index: int) -> None:
        out = self.work / "out" / "score"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        pred_path = out / "predictions.json"
        log = f"pass{index}-score"
        tail = ["score", str(self.inputs.model), str(self.inputs.queries),
                str(pred_path)]
        head = [sys.executable, str(BENCH_DIR / "child.py")]
        if p.traced:
            spans_path = self.work / "spans" / f"{log}.json"
            spans_path.parent.mkdir(exist_ok=True)
            head += ["--spans", str(spans_path),
                     "--run-id", f"{self.name}-{self.seed}-{log}"]
        result = self._account(p, head + tail, log)
        want = self.inputs.oracle
        p.attempted += len(want)
        if not result.ok:
            p.failed += len(want)
            return
        doc = json.loads(pred_path.read_text(encoding="utf-8"))
        got = doc["predictions"]
        wrong = mismatches(got, want)
        digest = hashlib.sha256(
            json.dumps(got).encode("utf-8")).hexdigest()
        if not self._check("score", {"predictions": digest}):
            wrong = max(wrong, 1)
        p.failed += min(wrong, len(want))
        p.latency_ns.extend(doc["latency_ns"])
        if p.traced:
            self._add_spans(p, spans_path)

    def _account(self, p: Pass, argv: list[str], log: str) -> ChildResult:
        result = run_child(argv, self.work, log, self.deadline)
        p.wall_s += result.wall_s
        p.cpu_s += result.cpu_s
        p.maxrss_mb = max(p.maxrss_mb, result.maxrss_mb)
        return result

    @staticmethod
    def _add_spans(p: Pass, path: Path) -> None:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return      # the child failed before writing; already counted
        seconds, calls, self_s = span_stats(doc["spans"])
        for name, value in seconds.items():
            p.seconds[name] += value
        for name, value in calls.items():
            p.calls[name] += value
        for name, value in self_s.items():
            p.self_s[name] += value
        for name, value in doc["counters"].items():
            p.counters[name] += value

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        index = len(self.passes)
        if self.workload.score_records:
            self._score_op(p, index)
        for command in self.workload.commands:
            self._cli_op(p, command, index)
        self.passes.append(p)
        return p

    # -- set-up: a fresh interpreter importing pemskit.cli (+ load_model)
    def setup_sample(self) -> float:
        code = "import pemskit.cli"
        if self.inputs.model is not None:
            code += ("\nimport pemskit\n"
                     f"pemskit.load_model({str(self.inputs.model)!r})")
        result = run_child([sys.executable, "-c", code], self.work, "setup",
                           self.deadline)
        self.setup_ok = self.setup_ok and result.ok
        return result.wall_s

    def calibrate(self) -> float:
        """Wall time of one fresh calibrate.py child, run now."""
        result = run_child([sys.executable, str(BENCH_DIR / "calibrate.py")],
                           self.work, "calibrate", self.deadline)
        self.setup_ok = self.setup_ok and result.ok
        return result.wall_s

    def probe_tree(self) -> tuple[int, float]:
        """Grow one CART tree on all rows, in this process."""
        from pemskit import PREDICTORS, TARGET, ForestConfig, \
            fit_regression_tree

        start = time.perf_counter_ns()
        tree = fit_regression_tree(self.inputs.dataset, PREDICTORS, TARGET,
                                   ForestConfig(seed=self.seed))
        elapsed = time.perf_counter_ns() - start
        return tree.n_nodes, elapsed / 1e3 / tree.n_nodes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(p: Pass) -> dict[str, float]:
    s, c, n = p.seconds, p.calls, p.counters
    predict_s = s["knn.predict_rows"] + s["knn.predict"]
    trees = c["screening.grow_tree"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in p.self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    # cli.main's own time is, by construction, whatever no other span
    # covers; leaving it out shows how much of the pass the layers' own
    # spans explain.
    in_layers = sum(value for name, value in p.self_s.items()
                    if name != "cli.main")
    metrics = {
        "knn.predict_rows_s": s["knn.predict_rows"],
        "knn.predict_rows_calls": c["knn.predict_rows"],
        "knn.queries": n["knn.queries"],
        "knn.queries_per_s": n["knn.queries"] / predict_s if predict_s else 0.0,
        "knn.distance_evals": n["knn.distance_evals"],
        "knn.select_k_s": s["knn.select_k"],
        "knn.select_k_calls": c["knn.select_k"],
        "knn.fit_knn_calls": c["knn.fit_knn"],
        "knn.compare_pooled_vs_yearly_s": s["knn.compare_pooled_vs_yearly"],
        "knn.residuals_s": s["knn.residuals"],
        "knn.split_s": s["knn.split"],
        "knn.save_model_s": s["knn.save_model"],
        "knn.model_bytes": n["knn.model_bytes"],
        "knn.load_model_s": s["knn.load_model"],
        "knn.predict_us": (s["knn.predict"] / c["knn.predict"] * 1e6
                           if c["knn.predict"] else 0.0),
        "screening.screen_predictors_s": s["screening.screen_predictors"],
        "screening.screen_predictors_calls": c["screening.screen_predictors"],
        "screening.trees": trees,
        "screening.tree_s": s["screening.grow_tree"] / trees if trees else 0.0,
        "ingest.load_dataset_s": s["ingest.load_dataset"],
        "ingest.rows": n["ingest.rows"],
        "ingest.bytes": n["ingest.bytes"],
        "ingest.rows_per_s": (n["ingest.rows"] / s["ingest.load_dataset"]
                              if s["ingest.load_dataset"] else 0.0),
        "svgplot.render_s": sum(s[f"svgplot.{f}"]
                                for f in ("scatter", "line", "bars")),
        "svgplot.calls": sum(c[f"svgplot.{f}"]
                             for f in ("scatter", "line", "bars")),
        "svgplot.bytes": n["svgplot.bytes"],
        "stats.summarize_s": s["stats.summarize"],
        "stats.summarize_calls": c["stats.summarize"],
        "stats.correlation_matrix_s": s["stats.correlation_matrix"],
        "stats.flag_high_nox_s": s["stats.flag_high_nox"],
        "varclus.cluster_variables_s": s["varclus.cluster_variables"],
        "drift.drift_report_s": s["drift.drift_report"],
        "drift.drift_report_calls": c["drift.drift_report"],
        "drift.fit_pca_s": s["drift.fit_pca"],
        "drift.project_s": s["drift.project"],
        "cli.import_s": s["cli.import"],
        "cli.emit_table_s": s["cli.emit_table"],
        "cli.bytes_written": p.bytes_written,
        "cli.files_written": p.files_written,
        "cli.cpu_s": p.cpu_s,
        "trace.wall_s": p.wall_s,
        "trace.spans": sum(c.values()),
        "trace.coverage": sum(layer_self.values()) / p.wall_s,
        "trace.layer_coverage": in_layers / p.wall_s,
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    return metrics


# ----------------------------------------------------------------- main

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(bench: Bench, seconds: int, trace: bool) -> dict:
    import importlib.util

    import numpy

    return {
        "workload": bench.name,
        "seed": bench.seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "rows_per_year": bench.workload.rows_per_year,
        "score_records": bench.workload.score_records,
        "inputs": bench.inputs.files,
    }


def load_reference(name: str, seed: int, workload: Workload) -> dict:
    if seed != DEFAULT_SEED or workload != WORKLOADS.get(name):
        return {}
    try:
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    return {label: dict(d) for label, d in doc.get(name, {}).items()}


def measure(bench: Bench, seconds: float,
            trace: bool) -> tuple[list[float], list[float]]:
    """Passes until the next step would overrun ``seconds``; returns the
    set-up samples and the calibration times.

    Untraced, the run opens with calibrations, and a step is one pass,
    then set-up samples, then calibrations, so the samples spread over
    the whole run like the passes do.  With tracing, the run opens with
    an untraced pass and each step is a traced pass followed by an
    untraced one, so every traced pass has an untraced neighbour on
    either side; nothing is calibrated.
    """
    bench.setup_sample()        # warms the file and bytecode caches
    setup: list[float] = []
    calibration: list[float] = []
    start = time.perf_counter()
    if trace:
        bench.run_pass(traced=False)
    else:
        calibration += [bench.calibrate() for _ in range(CALIBRATION_SAMPLES)]
    step = (True, False) if trace else (False,)
    while True:
        for traced in step:
            bench.run_pass(traced)
        if not trace:
            setup += [bench.setup_sample()
                      for _ in range(SETUP_SAMPLES_PER_PASS)]
            calibration += [bench.calibrate()
                            for _ in range(CALIBRATION_SAMPLES)]
        done = len(bench.passes)
        elapsed = time.perf_counter() - start
        if elapsed + len(step) * elapsed / done > seconds:
            return setup, calibration


def traced_values(passes: list[Pass]) -> dict[str, float]:
    """Per-layer metrics of the traced pass with the median wall time, so
    that they all come from one pass, and the tracer's overhead: the
    median over traced passes of the ratio of its wall time to the mean
    of the untraced passes either side of it, minus 1."""
    ratios = []
    for i in range(1, len(passes) - 1, 2):
        neighbours = (passes[i - 1].wall_s + passes[i + 1].wall_s) / 2
        ratios.append(passes[i].wall_s / neighbours)
    traced = sorted(passes[1::2], key=lambda p: p.wall_s)
    values = layer_metrics(traced[(len(traced) - 1) // 2])
    values["trace.overhead"] = statistics.median(ratios) - 1.0
    return values


def run(name: str, seed: int, seconds: int, trace: bool,
        workload: Workload, update_reference: bool = False) -> dict:
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    bench = Bench(name, workload, seed, work,
                  load_reference(name, seed, workload))
    bench.inputs = prepare(workload, seed, work)
    setup, calibration = measure(bench, seconds, trace)

    plain = [p for p in bench.passes if not p.traced]
    attempted = sum(p.attempted for p in bench.passes)
    failed = sum(p.failed for p in bench.passes)
    if trace:
        values = traced_values(bench.passes)
        latency = [ns / 1e6 for p in plain for ns in p.latency_ns]
        values["knn.predict_p50_ms"] = percentile(latency, 50) if latency else 0.0
        values["knn.predict_p99_ms"] = percentile(latency, 99) if latency else 0.0
        values["knn.predict_samples"] = len(latency)
        values["screening.probe_nodes"], values["screening.probe_node_us"] = (
            bench.probe_tree() if any(c[0] == "screen" for c in
                                      workload.commands) else (0, 0.0))
        units = PER_LAYER
    else:
        # Both times are scaled to the reference machine speed.
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain) * scale,
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": max(p.maxrss_mb for p in plain),
        }
        units = END_TO_END

    if update_reference:
        doc = json.loads(REFERENCE.read_text(encoding="utf-8")) \
            if REFERENCE.is_file() else {}
        doc[name] = bench.expected
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

    result = {
        "correct": failed == 0 and bench.setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    detail = {
        "manifest": manifest(bench, seconds, trace),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "peak_rss_mb": p.maxrss_mb, "cpu_s": p.cpu_s,
                    "attempted": p.attempted, "failed": p.failed}
                   for p in bench.passes],
        "setup_samples_s": setup,
        "calibration_s": calibration,
        "result": result,
    }
    if not trace:
        detail["unscaled"] = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(setup)}
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n",
                                      encoding="utf-8")
    return detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's output digests as the "
                             "default seed's reference")
    args = parser.parse_args(argv)

    if not (SRC / "pemskit" / "__init__.py").is_file():
        print(f"error: no pemskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != DEFAULT_SEED:
        print("error: --update-reference needs the default seed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    detail = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 WORKLOADS[args.workload], args.update_reference)
    result = detail["result"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(detail['passes'])} "
          f"calibrations={len(detail['calibration_s'])}")
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:.6g} {metric['unit']}")
    for key, value in detail.get("unscaled", {}).items():
        print(f"  {key + ' (unscaled)':36s} {value:.6g} s")
    print("manifest " + json.dumps(detail["manifest"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
