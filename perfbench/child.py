"""Child process for the pemskit benchmark.

Modes:

    python perfbench/child.py [--spans FILE --run-id ID] cli ARGV...
    python perfbench/child.py [--spans FILE --run-id ID] score MODEL QUERIES OUT

``cli`` runs ``pemskit.cli.main(ARGV)`` in this process; ``score`` loads a
model and predicts each query record with one ``pemskit.predict`` call,
timing every call.  With ``--spans`` the public functions of each layer
are wrapped with ``perf_counter_ns`` spans for the duration of the run,
the originals are restored afterwards, and the spans and counters are
written to FILE as JSON.  Without it nothing is patched.

The child needs ``src`` on ``PYTHONPATH``; the harness sets it.
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, attribute, span name).  Private names are wrapped only where a
# layer's work has no public entry point of its own: one tree's growth.
TRACED = (
    ("pemskit.ingest", "load_dataset", "ingest.load_dataset"),
    ("pemskit.stats", "summarize", "stats.summarize"),
    ("pemskit.stats", "correlation_matrix", "stats.correlation_matrix"),
    ("pemskit.stats", "flag_high_nox", "stats.flag_high_nox"),
    ("pemskit.varclus", "cluster_variables", "varclus.cluster_variables"),
    ("pemskit.drift", "drift_report", "drift.drift_report"),
    ("pemskit.drift", "fit_pca", "drift.fit_pca"),
    ("pemskit.drift", "project", "drift.project"),
    ("pemskit.screening", "screen_predictors", "screening.screen_predictors"),
    ("pemskit.screening", "fit_regression_tree",
     "screening.fit_regression_tree"),
    ("pemskit.screening", "_grow_tree", "screening.grow_tree"),
    ("pemskit.knn", "split", "knn.split"),
    ("pemskit.knn", "fit_knn", "knn.fit_knn"),
    ("pemskit.knn", "select_k", "knn.select_k"),
    ("pemskit.knn", "predict_rows", "knn.predict_rows"),
    ("pemskit.knn", "predict", "knn.predict"),
    ("pemskit.knn", "evaluate", "knn.evaluate"),
    ("pemskit.knn", "evaluate_all", "knn.evaluate_all"),
    ("pemskit.knn", "compare_pooled_vs_yearly", "knn.compare_pooled_vs_yearly"),
    ("pemskit.knn", "residuals", "knn.residuals"),
    ("pemskit.knn", "save_model", "knn.save_model"),
    ("pemskit.knn", "load_model", "knn.load_model"),
    ("pemskit.svgplot", "scatter", "svgplot.scatter"),
    ("pemskit.svgplot", "line", "svgplot.line"),
    ("pemskit.svgplot", "bars", "svgplot.bars"),
    ("pemskit.cli", "emit_table", "cli.emit_table"),
)


def _count_load_dataset(counters, args, kwargs, result):
    data_dir = Path(kwargs.get("data_dir", args[0] if args else "."))
    years = kwargs.get("years", args[1] if len(args) > 1 else ())
    counters["ingest.rows"] += result.n_records
    counters["ingest.bytes"] += sum(
        p.stat().st_size for y in years
        for p in (data_dir / f"gt_{y}.csv",) if p.is_file())


def _count_predict_rows(counters, args, kwargs, result):
    model = kwargs.get("model", args[0])
    counters["knn.queries"] += int(result.shape[0])
    counters["knn.distance_evals"] += int(result.shape[0]) * model.n_training


def _count_predict(counters, args, kwargs, result):
    model = kwargs.get("model", args[0])
    counters["knn.queries"] += 1
    counters["knn.distance_evals"] += model.n_training


def _count_save_model(counters, args, kwargs, result):
    path = Path(kwargs.get("path", args[1] if len(args) > 1 else ""))
    counters["knn.model_bytes"] += path.stat().st_size


def _count_svg(counters, args, kwargs, result):
    counters["svgplot.bytes"] += len(result.encode("utf-8"))


# Counters are updated after a span closes, so their cost is not charged
# to the layer they count.
COUNTERS = {
    "ingest.load_dataset": _count_load_dataset,
    "knn.predict_rows": _count_predict_rows,
    "knn.predict": _count_predict,
    "knn.save_model": _count_save_model,
    "svgplot.scatter": _count_svg,
    "svgplot.line": _count_svg,
    "svgplot.bars": _count_svg,
}
COUNTER_NAMES = ("ingest.rows", "ingest.bytes", "knn.queries",
                 "knn.distance_evals", "knn.model_bytes", "svgplot.bytes")


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent, run_id]``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a pemskit module binds it,
        so that ``from .x import f`` copies (as in ``pemskit.cli``) and
        the package namespace are traced too."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pemskit" or n.startswith("pemskit.")]
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans,
               "counters": self.counters}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def import_cli(tracer: Tracer | None):
    """Import the CLI; traced, a ``cli.import`` span runs from the start
    of this script to the end of the import, so set-up is attributed."""
    import pemskit.cli

    if tracer is not None:
        tracer.spans.append(["cli.import", STARTED_NS, time.perf_counter_ns(),
                             -1, tracer.run_id])
    return pemskit.cli


def run_cli(argv: list[str], tracer: Tracer | None) -> int:
    main = import_cli(tracer).main
    if tracer is None:
        return main(argv)
    tracer.install()
    try:
        return tracer.wrap("cli.main", main)(argv)
    finally:
        tracer.restore()


def run_score(model_path: str, queries_path: str, out_path: str,
              tracer: Tracer | None) -> int:
    """Closed loop of single-record predictions, one call per record."""
    import_cli(tracer)
    import pemskit

    records = json.loads(Path(queries_path).read_text(encoding="utf-8"))
    if tracer is not None:
        tracer.install()
    try:
        model = pemskit.load_model(model_path)
        predictions = []
        latency_ns = []
        clock = time.perf_counter_ns
        for record in records:
            start = clock()
            predictions.append(pemskit.predict(model, record))
            latency_ns.append(clock() - start)
    finally:
        if tracer is not None:
            tracer.restore()
    Path(out_path).write_text(
        json.dumps({"predictions": predictions, "latency_ns": latency_ns}),
        encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    spans_path = None
    run_id = ""
    while argv and argv[0] in ("--spans", "--run-id"):
        if argv[0] == "--spans":
            spans_path = argv[1]
        else:
            run_id = argv[1]
        argv = argv[2:]
    if not argv or argv[0] not in ("cli", "score"):
        print("usage: child.py [--spans FILE --run-id ID] "
              "{cli ARGV... | score MODEL QUERIES OUT}", file=sys.stderr)
        return 2
    tracer = Tracer(run_id) if spans_path else None
    try:
        if argv[0] == "cli":
            return run_cli(argv[1:], tracer)
        if len(argv) != 4:
            print("usage: child.py score MODEL QUERIES OUT", file=sys.stderr)
            return 2
        return run_score(argv[1], argv[2], argv[3], tracer)
    finally:
        if tracer is not None:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
