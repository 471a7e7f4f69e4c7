"""Command-line front end.

One subcommand per analysis (summary, correlate, cluster-vars, screen,
drift, knn, report).  Every table is emitted as either CSV or JSON
(--out), with identical numeric content: floats are serialized with
repr, so files are byte-reproducible for fixed (inputs, config, seed)
and round-trip exactly.

Configuration precedence: built-in defaults < --config key=value file
< explicit flags.  Exit codes: 0 success, 2 input/IO error, 3 config
error, 4 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import drift as drift_mod
from . import knn as knn_mod
from . import svgplot
from .errors import ConfigError, DataError, DegenerateDataError, PemskitError
from .ingest import (Dataset, OPTIONAL_TARGET, PREDICTORS, PROCESS_PREDICTORS,
                     TARGET, load_dataset)
from .screening import ForestConfig, ScreeningResult, screen_predictors
from .stats import (DEFAULT_HIGH_NOX_QUANTILE, VariableSummary,
                    correlation_matrix, flag_high_nox, summarize)
from .varclus import DEFAULT_THRESHOLD, cluster_variables, dependence_tag

ENV_DATA_DIR = "PEMSKIT_DATA_DIR"
DEFAULT_YEARS = (2011, 2012, 2013, 2014, 2015)
COMMANDS = ("summary", "correlate", "cluster-vars", "screen", "drift", "knn",
            "report")
KNOWN_VARIABLES = PREDICTORS + (TARGET, OPTIONAL_TARGET)


@dataclass(frozen=True)
class RunConfig:
    command: str
    data_dir: str
    years: tuple[int, ...]
    target: str
    predictors: tuple[str, ...] | None
    exclude_weather: bool
    split: tuple[float, float, float]
    seed: int
    k: int | None
    k_max: int
    weighting: str
    threshold: float
    trees: int
    out: str
    plots: bool
    out_dir: str
    reference_year: int | None
    tep_unit: str
    leave_self_out: bool

    def resolved_predictors(self) -> tuple[str, ...]:
        if self.predictors is not None:
            return self.predictors
        return PROCESS_PREDICTORS if self.exclude_weather else PREDICTORS


# ------------------------------------------------------- option parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_years(text: str) -> tuple[int, ...]:
    years: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:
            lo_s, hi_s = token.split("-", 1)
            lo, hi = _parse_int(lo_s, "years"), _parse_int(hi_s, "years")
            if hi < lo:
                raise ConfigError(f"years: empty range {token!r}")
            years.extend(range(lo, hi + 1))
        else:
            years.append(_parse_int(token, "years"))
    if not years:
        raise ConfigError("years: no years requested")
    return tuple(dict.fromkeys(years))


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    return knn_mod._check_fractions(
        [_parse_float(p, "split") for p in parts])


def _parse_variables(text: str, key: str) -> tuple[str, ...]:
    names = tuple(t.strip().lower() for t in text.split(",") if t.strip())
    if not names:
        raise ConfigError(f"{key}: empty variable list")
    for name in names:
        if name not in KNOWN_VARIABLES:
            raise ConfigError(
                f"{key}: unknown variable '{name}' "
                f"(known: {', '.join(KNOWN_VARIABLES)})")
    return names


_DEFAULTS: dict[str, object] = {
    "data_dir": None,           # env var / ./data resolved later
    "years": ",".join(str(y) for y in DEFAULT_YEARS),
    "target": TARGET,
    "predictors": None,
    "exclude_weather": False,
    "split": "0.7,0.15,0.15",
    "seed": 0,
    "k": None,
    "k_max": 10,
    "weighting": "inverse_distance",
    "threshold": DEFAULT_THRESHOLD,
    "trees": 100,
    "out": "csv",
    "plots": False,
    "out_dir": "pemskit_out",
    "reference_year": None,
    "tep_unit": "bar",
    "leave_self_out": True,
}

_CONFIG_PARSERS = {
    "data_dir": lambda v: v,
    "years": lambda v: v,
    "target": lambda v: v.strip().lower(),
    "predictors": lambda v: v,
    "exclude_weather": lambda v: _parse_bool(v, "exclude_weather"),
    "split": lambda v: v,
    "seed": lambda v: _parse_int(v, "seed"),
    "k": lambda v: _parse_int(v, "k"),
    "k_max": lambda v: _parse_int(v, "k_max"),
    "weighting": lambda v: v.strip(),
    "threshold": lambda v: _parse_float(v, "threshold"),
    "trees": lambda v: _parse_int(v, "trees"),
    "out": lambda v: v.strip(),
    "plots": lambda v: _parse_bool(v, "plots"),
    "out_dir": lambda v: v,
    "reference_year": lambda v: _parse_int(v, "reference_year"),
    "tep_unit": lambda v: v.strip(),
    "leave_self_out": lambda v: _parse_bool(v, "leave_self_out"),
}


def _read_config_file(path: str) -> dict[str, object]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _CONFIG_PARSERS[key](value.strip())
    return values


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--data-dir", dest="data_dir", default=None)
    p.add_argument("--years", default=None,
                   help="comma list and/or ranges, e.g. 2011-2013,2015")
    p.add_argument("--target", default=None)
    p.add_argument("--predictors", default=None, metavar="NAMES")
    p.add_argument("--exclude-weather", dest="exclude_weather",
                   action="store_const", const=True, default=None)
    p.add_argument("--split", default=None, metavar="A,B,C")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--weighting", choices=knn_mod.WEIGHTINGS, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--out", choices=("csv", "json"), default=None)
    p.add_argument("--plots", action="store_const", const=True, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--reference-year", dest="reference_year", type=int,
                   default=None)
    p.add_argument("--tep-unit", dest="tep_unit", choices=("mbar", "bar"),
                   default=None)
    p.add_argument("--no-leave-self-out", dest="leave_self_out",
                   action="store_const", const=False, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pemskit",
                     description="Turbine telemetry analytics: summaries, "
                                 "clustering, screening, drift, KNN NOx model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(sub.add_parser(name))
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag

    data_dir = merged["data_dir"] or os.environ.get(ENV_DATA_DIR) or "data"
    predictors = merged["predictors"]
    if isinstance(predictors, str):
        predictors = _parse_variables(predictors, "predictors")
    if predictors is not None and merged["exclude_weather"]:
        raise ConfigError("--predictors and --exclude-weather are mutually "
                          "exclusive")
    target = str(merged["target"])
    if target not in KNOWN_VARIABLES:
        raise ConfigError(f"target: unknown variable '{target}'")
    if merged["weighting"] not in knn_mod.WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {knn_mod.WEIGHTINGS}, "
                          f"got {merged['weighting']!r}")
    if merged["out"] not in ("csv", "json"):
        raise ConfigError(f"out must be csv or json, got {merged['out']!r}")
    if merged["tep_unit"] not in ("mbar", "bar"):
        raise ConfigError(f"tep_unit must be mbar or bar, got "
                          f"{merged['tep_unit']!r}")
    threshold = float(merged["threshold"])
    if threshold <= 0.0:
        raise ConfigError(f"threshold must be > 0, got {threshold}")
    trees = int(merged["trees"])
    if trees < 1:
        raise ConfigError(f"trees must be >= 1, got {trees}")
    k_max = int(merged["k_max"])
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    k = merged["k"]
    if k is not None and int(k) < 1:
        raise ConfigError(f"k must be >= 1, got {k}")

    return RunConfig(
        command=args.command,
        data_dir=str(data_dir),
        years=_parse_years(str(merged["years"])),
        target=target,
        predictors=predictors,
        exclude_weather=bool(merged["exclude_weather"]),
        split=_parse_fractions(str(merged["split"])),
        seed=int(merged["seed"]),
        k=None if k is None else int(k),
        k_max=k_max,
        weighting=str(merged["weighting"]),
        threshold=threshold,
        trees=trees,
        out=str(merged["out"]),
        plots=bool(merged["plots"]),
        out_dir=str(merged["out_dir"]),
        reference_year=None if merged["reference_year"] is None
        else int(merged["reference_year"]),
        tep_unit=str(merged["tep_unit"]),
        leave_self_out=bool(merged["leave_self_out"]),
    )


# ------------------------------------------------------------- emission

Table = dict    # {"columns": [...], "rows": [[...], ...]}


def _table(columns: Sequence[str], rows: Sequence[Sequence]) -> Table:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def emit_table(out_dir: Path, name: str, table: Table, fmt: str) -> Path:
    if fmt == "csv":
        lines = [",".join(table["columns"])]
        lines.extend(",".join(_csv_cell(v) for v in row)
                     for row in table["rows"])
        return _write_text(out_dir / f"{name}.csv", "\n".join(lines) + "\n")
    return _write_text(out_dir / f"{name}.json",
                       json.dumps(table, indent=2) + "\n")


# -------------------------------------------------------- table builders

def _load(config: RunConfig) -> Dataset:
    return load_dataset(config.data_dir, config.years)


def _summaries(ds: Dataset, config: RunConfig) -> list[VariableSummary]:
    variables = list(config.resolved_predictors()) + [config.target]
    return summarize(ds, variables=variables)


def _summary_tables(summaries: Sequence[VariableSummary]) -> dict[str, Table]:
    stat_rows = []
    hist_rows = []
    for s in summaries:
        stat_rows.append([s.name, s.count, s.mean, s.std, s.min,
                          s.q1, s.median, s.q3, s.max])
        for lo, hi, count in s.histogram:
            hist_rows.append([s.name, lo, hi, count])
    return {
        "summary": _table(
            ["variable", "count", "mean", "std", "min", "q1", "median",
             "q3", "max"], stat_rows),
        "histograms": _table(
            ["variable", "bin_lo", "bin_hi", "count"], hist_rows),
    }


def _correlation_tables(ds: Dataset, config: RunConfig) -> dict[str, Table]:
    variables = list(config.resolved_predictors())
    if config.target not in variables:
        variables.append(config.target)
    cm = correlation_matrix(ds, variables)
    rows = [[name] + [float(v) for v in cm.matrix[i]]
            for i, name in enumerate(cm.variables)]
    return {"correlations": _table(["variable", *cm.variables], rows)}


def _cluster_tables(ds: Dataset, config: RunConfig) -> dict[str, Table]:
    report = cluster_variables(ds, config.resolved_predictors(),
                               threshold=config.threshold)
    rows = [[r.cluster_id, r.variable, dependence_tag(r.variable),
             r.r2_own, r.r2_next, r.ratio] for r in report.rows]
    cluster_rows = [[c.id, " ".join(c.members), len(c.members),
                     c.eigenvalue1, c.eigenvalue2] for c in report.clusters]
    return {
        "clusters": _table(
            ["cluster", "variable", "dependence", "r2_own", "r2_next",
             "ratio"], rows),
        "cluster_summary": _table(
            ["cluster", "members", "size", "eigenvalue1", "eigenvalue2"],
            cluster_rows),
    }


def _screening(ds: Dataset, config: RunConfig) -> ScreeningResult:
    cfg = ForestConfig(n_trees=config.trees, seed=config.seed)
    return screen_predictors(ds, config.resolved_predictors(), config.target,
                             cfg)


def _screen_tables(result: ScreeningResult) -> dict[str, Table]:
    rows = [[r.rank, r.predictor, r.contribution, r.portion]
            for r in result.rows]
    return {"screening": _table(
        ["rank", "predictor", "contribution", "portion"], rows)}


def _drift(ds: Dataset, config: RunConfig) -> drift_mod.DriftReport:
    scale = drift_mod.DEFAULT_TEP_SCALE if config.tep_unit == "bar" else 1.0
    ref = config.reference_year if config.reference_year is not None \
        else ds.years[0]
    return drift_mod.drift_report(ds, ref, config.resolved_predictors(),
                                  x_unit_scale=scale)


def _drift_tables(report: drift_mod.DriftReport) -> dict[str, Table]:
    fit_rows = [[yd.year, yd.fit.n, yd.fit.intercept, yd.fit.slope,
                 yd.fit.r_squared] for yd in report.years]
    centroid_rows = [[yd.year, yd.centroid[0], yd.centroid[1],
                      yd.displacement] for yd in report.years]
    return {
        "drift_fits": _table(
            ["year", "n", "intercept", "slope", "r_squared"], fit_rows),
        "drift_centroids": _table(
            ["year", "pc1", "pc2", "displacement"], centroid_rows),
    }


def _drift_score_table(ds: Dataset, scores) -> Table:
    rows = [[i, int(ds.year[i]), float(scores[i, 0]), float(scores[i, 1])]
            for i in range(ds.n_records)]
    return _table(["row", "year", "pc1", "pc2"], rows)


def _metrics_row(scope: str, k, partition: str,
                 m: knn_mod.EvalMetrics) -> list:
    return [scope, partition, k, m.freq, m.r_squared, m.rase, m.aae]


def _knn_tables(ds: Dataset, config: RunConfig
                ) -> tuple[dict[str, Table], knn_mod.KnnModel,
                           knn_mod.ResidualTable]:
    """Metric and selection tables, the final model, and its residuals,
    all from one all-records prediction pass of that model."""
    names = config.resolved_predictors()
    metrics_rows: list[list] = []
    selection_rows: list[list] = []

    if config.k is None and len(ds.years) >= 2:
        cmp = knn_mod.compare_pooled_vs_yearly(
            ds, config.split, config.seed, config.k_max, names,
            config.target, config.weighting, config.leave_self_out)
        model, res = cmp.pooled_model, cmp.pooled_residuals
        for evaluation in (cmp.pooled, *cmp.yearly):
            for k, rase in evaluation.curve.points:
                selection_rows.append([evaluation.label, k, rase])
            for part, m in evaluation.metrics.items():
                metrics_rows.append(_metrics_row(
                    evaluation.label, evaluation.chosen_k, part, m))
        for part, m in cmp.by_year_aggregate.items():
            metrics_rows.append(_metrics_row("by_year_aggregate", None,
                                             part, m))
    else:
        assignment = knn_mod.split(ds, config.split, config.seed)
        k = config.k
        if k is None:
            curve = knn_mod.select_k(ds, assignment, names, config.target,
                                     config.k_max, config.weighting,
                                     config.leave_self_out)
            k = curve.chosen_k
            for kk, rase in curve.points:
                selection_rows.append(["pooled", kk, rase])
        model = knn_mod.fit_knn(ds, assignment, names, config.target, k,
                                config.weighting, config.leave_self_out)
        metrics, res = knn_mod._evaluate_with_residuals(
            model, ds, assignment, config.target)
        for part, m in metrics.items():
            metrics_rows.append(_metrics_row("pooled", k, part, m))

    tables = {"knn_metrics": _table(
        ["scope", "partition", "k", "freq", "r_squared", "rase", "aae"],
        metrics_rows)}
    if selection_rows:
        tables["knn_selection"] = _table(
            ["scope", "k", "validation_rase"], selection_rows)
    return tables, model, res


def _residual_table(res: knn_mod.ResidualTable, ds: Dataset) -> Table:
    rows = [[int(res.rows[i]), int(ds.year[i]), res.partitions[i],
             float(res.actual[i]), float(res.predicted[i]),
             float(res.residual[i])] for i in range(ds.n_records)]
    return _table(["row", "year", "partition", "actual", "predicted",
                   "residual"], rows)


# --------------------------------------------------------------- plots

def _emit_plot(out_dir: Path, name: str, content: str,
               written: list[Path]) -> None:
    written.append(_write_text(out_dir / f"{name}.svg", content))


def _summary_plots(summaries, out_dir, written):
    for s in summaries:
        lo = [b[0] for b in s.histogram]
        hi = [b[1] for b in s.histogram]
        counts = [b[2] for b in s.histogram]
        _emit_plot(out_dir, f"hist_{s.name}",
                   svgplot.bars(lo, hi, counts,
                                f"{s.name} distribution", s.name), written)


def _correlate_plots(ds, config, out_dir, written):
    high = flag_high_nox(ds, DEFAULT_HIGH_NOX_QUANTILE)
    target = ds.column(config.target)
    for name in config.resolved_predictors():
        x = ds.column(name)
        series = [
            ("normal", x[~high].tolist(), target[~high].tolist()),
            ("high NOx", x[high].tolist(), target[high].tolist()),
        ]
        _emit_plot(out_dir, f"scatter_{name}_{config.target}",
                   svgplot.scatter(series, f"{config.target} vs {name}",
                                   name, config.target), written)


def _screen_plots(result, out_dir, written):
    lo = [float(r.rank) - 0.5 for r in result.rows]
    hi = [float(r.rank) + 0.5 for r in result.rows]
    portions = [r.portion for r in result.rows]
    order = " ".join(r.predictor for r in result.rows)
    _emit_plot(out_dir, "screening_portions",
               svgplot.bars(lo, hi, portions,
                            f"split contribution portion by rank ({order})",
                            "rank", "portion"), written)


def _drift_plots(ds, report, scores, out_dir, written):
    ref = report.reference_year
    series = []
    for year in ds.years:
        mask = ds.year == year
        series.append((str(year), scores[mask, 0].tolist(),
                       scores[mask, 1].tolist()))
    _emit_plot(out_dir, "drift_pc",
               svgplot.scatter(series, f"PC scores by year (reference {ref})",
                               "PC1", "PC2"), written)
    years = [yd.year for yd in report.years]
    r2s = [yd.fit.r_squared for yd in report.years]
    _emit_plot(out_dir, "drift_r2",
               svgplot.line([("cdp~tep r2", years, r2s)],
                            "Yearly cdp~tep fit r2", "year", "r2"), written)


def _knn_plots(tables, residual_table, out_dir, written):
    selection = tables.get("knn_selection")
    if selection is not None:
        pooled = [(r[1], r[2]) for r in selection["rows"] if r[0] == "pooled"]
        if pooled:
            _emit_plot(out_dir, "knn_k_curve",
                       svgplot.line([("validation RASE",
                                      [p[0] for p in pooled],
                                      [p[1] for p in pooled])],
                                    "Validation RASE vs K", "k", "RASE"),
                       written)
    rows = residual_table["rows"]
    by_part: dict[str, tuple[list, list, list]] = {}
    for r in rows:
        part = r[2]
        actual, predicted, residual = r[3], r[4], r[5]
        by_part.setdefault(part, ([], [], []))
        by_part[part][0].append(actual)
        by_part[part][1].append(predicted)
        by_part[part][2].append(residual)
    order = [p for p in (*knn_mod.PARTITIONS,) if p in by_part]
    _emit_plot(out_dir, "knn_actual_vs_predicted",
               svgplot.scatter([(p, by_part[p][0], by_part[p][1])
                                for p in order],
                               "Predicted vs actual", "actual", "predicted"),
               written)
    _emit_plot(out_dir, "knn_residuals",
               svgplot.scatter([(p, by_part[p][1], by_part[p][2])
                                for p in order],
                               "Residual vs predicted", "predicted",
                               "residual"), written)


# -------------------------------------------------------------- commands

def _emit_tables(tables: dict[str, Table], config: RunConfig,
                 written: list[Path]) -> None:
    out_dir = Path(config.out_dir)
    for name, table in tables.items():
        written.append(emit_table(out_dir, name, table, config.out))


def cmd_summary(config: RunConfig) -> list[Path]:
    ds = _load(config)
    summaries = _summaries(ds, config)
    written: list[Path] = []
    _emit_tables(_summary_tables(summaries), config, written)
    if config.plots:
        _summary_plots(summaries, Path(config.out_dir), written)
    return written


def cmd_correlate(config: RunConfig) -> list[Path]:
    ds = _load(config)
    written: list[Path] = []
    _emit_tables(_correlation_tables(ds, config), config, written)
    if config.plots:
        _correlate_plots(ds, config, Path(config.out_dir), written)
    return written


def cmd_cluster_vars(config: RunConfig) -> list[Path]:
    ds = _load(config)
    written: list[Path] = []
    _emit_tables(_cluster_tables(ds, config), config, written)
    return written


def cmd_screen(config: RunConfig) -> list[Path]:
    ds = _load(config)
    result = _screening(ds, config)
    written: list[Path] = []
    _emit_tables(_screen_tables(result), config, written)
    if config.plots:
        _screen_plots(result, Path(config.out_dir), written)
    return written


def cmd_drift(config: RunConfig) -> list[Path]:
    ds = _load(config)
    report = _drift(ds, config)
    scores = drift_mod.project(report.pca, ds, 2)
    written: list[Path] = []
    _emit_tables({**_drift_tables(report),
                  "drift_scores": _drift_score_table(ds, scores)},
                 config, written)
    if config.plots:
        _drift_plots(ds, report, scores, Path(config.out_dir), written)
    return written


def cmd_knn(config: RunConfig) -> list[Path]:
    ds = _load(config)
    written: list[Path] = []
    tables, model, res = _knn_tables(ds, config)
    residual_table = _residual_table(res, ds)
    tables["knn_residuals"] = residual_table
    _emit_tables(tables, config, written)
    model_path = Path(config.out_dir) / "model.json"
    model_path.parent.mkdir(parents=True, exist_ok=True)
    knn_mod.save_model(model, model_path)
    written.append(model_path)
    if config.plots:
        _knn_plots(tables, residual_table, Path(config.out_dir), written)
    return written


_INDEX_HTML = """<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>pemskit report</title></head>
<body>
<h1>pemskit report</h1>
<p>Sections in <code>report.json</code>:</p>
<ul>
<li>summary — variable statistics and histograms</li>
<li>correlations — pairwise Pearson matrix</li>
<li>clusters — variable clustering memberships and fit ratios</li>
<li>screening — bootstrap-forest predictor ranking</li>
<li>drift — yearly PC centroids and cdp~tep fits</li>
<li>knn — K selection, pooled vs. yearly metrics</li>
</ul>
</body>
</html>
"""


def cmd_report(config: RunConfig) -> list[Path]:
    ds = _load(config)
    knn_tables, _, _ = _knn_tables(ds, config)
    report = {
        "summary": _summary_tables(_summaries(ds, config)),
        "correlations": _correlation_tables(ds, config),
        "clusters": _cluster_tables(ds, config),
        "screening": _screen_tables(_screening(ds, config)),
        "drift": _drift_tables(_drift(ds, config)),
        "knn": knn_tables,
    }
    out_dir = Path(config.out_dir)
    written = [
        _write_text(out_dir / "report.json",
                    json.dumps(report, indent=2) + "\n"),
        _write_text(out_dir / "index.html", _INDEX_HTML),
    ]
    return written


_COMMANDS = {
    "summary": cmd_summary,
    "correlate": cmd_correlate,
    "cluster-vars": cmd_cluster_vars,
    "screen": cmd_screen,
    "drift": cmd_drift,
    "knn": cmd_knn,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        written = _COMMANDS[config.command](config)
        for path in written:
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PemskitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
