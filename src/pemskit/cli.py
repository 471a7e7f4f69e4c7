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
import math
import os
import sys
from dataclasses import dataclass
from datetime import MAXYEAR, MINYEAR
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import drift as drift_mod
from . import knn as knn_mod
from . import svgplot
from .errors import ConfigError, DataError, DegenerateDataError, PemskitError
from .ingest import (Dataset, OPTIONAL_TARGET, PREDICTORS, PROCESS_PREDICTORS,
                     TARGET, atomic_open, load_dataset)
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
#
# Each option is one OPTIONS entry: its default and the one parse
# function that turns a flag's text or a config-file value into a checked
# value (raising ConfigError).  The flags are generated from the table.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class Option(NamedTuple):
    default: object
    parse: Callable[[str], object]
    metavar: str | None = None
    help: str | None = None


def _checked(convert: Callable[[str], object], rule: str,
             ok: Callable[[object], bool] = lambda value: True
             ) -> Callable[[str], object]:
    """A parse function: ``convert`` the text and require ``ok`` of the
    result, or raise ConfigError saying the value should be ``rule``."""
    def parse(text: str) -> object:
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, KeyError):
            pass
        raise ConfigError(f"expected {rule}, got {text!r}")
    return parse


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
_parse_bool = _checked(lambda text: _BOOLEANS[text.lower()],
                       "true/false, 1/0, yes/no or on/off")
_parse_int = _checked(int, "an integer")
_at_least_1 = _checked(int, "an integer >= 1", lambda v: v >= 1)
_parse_year = _checked(int, f"a year in [{MINYEAR}, {MAXYEAR}]",
                       lambda v: MINYEAR <= v <= MAXYEAR)
_parse_float = _checked(float, "a number")
_parse_variable = _checked(lambda text: text.strip().lower(),
                           f"one of {', '.join(KNOWN_VARIABLES)}",
                           KNOWN_VARIABLES.__contains__)


def _parse_years(text: str) -> tuple[int, ...]:
    years: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo_s, dash, hi_s = token.partition("-")
        lo, hi = _parse_year(lo_s), _parse_year(hi_s if dash else lo_s)
        if hi < lo:
            raise ConfigError(f"empty range {token!r}")
        years.extend(range(lo, hi + 1))
    if not years:
        raise ConfigError("no years requested")
    return tuple(dict.fromkeys(years))


def _parse_fractions(text: str) -> tuple[float, float, float]:
    return knn_mod._check_fractions(
        [_parse_float(p) for p in text.split(",") if p.strip()])


def _parse_predictors(text: str) -> tuple[str, ...]:
    names = tuple(_parse_variable(t) for t in text.split(",") if t.strip())
    if not names:
        raise ConfigError("empty variable list")
    return names


def _choice(default: str, allowed: Sequence[str]) -> Option:
    return Option(default, _checked(str, f"one of {', '.join(allowed)}",
                                    allowed.__contains__),
                  "{" + ",".join(allowed) + "}")


#: Flags are `--<key>` with `-` for `_`; a boolean option is a bare flag
#: that flips its default (`--no-<key>` when the default is true).
OPTIONS: dict[str, Option] = {
    "data_dir": Option(None, str),      # None: $PEMSKIT_DATA_DIR, then ./data
    "years": Option(DEFAULT_YEARS, _parse_years,
                    help="comma list and/or ranges, e.g. 2011-2013,2015"),
    "target": Option(TARGET, _parse_variable),
    "predictors": Option(None, _parse_predictors, "NAMES"),
    "exclude_weather": Option(False, _parse_bool),
    "split": Option(knn_mod.DEFAULT_FRACTIONS, _parse_fractions, "A,B,C"),
    "seed": Option(0, _parse_int),
    "k": Option(None, _at_least_1),
    "k_max": Option(10, _at_least_1),
    "weighting": _choice("inverse_distance", knn_mod.WEIGHTINGS),
    "threshold": Option(DEFAULT_THRESHOLD, _checked(
        float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0.0)),
    "trees": Option(100, _at_least_1),
    "out": _choice("csv", ("csv", "json")),
    "plots": Option(False, _parse_bool),
    "out_dir": Option("pemskit_out", str),
    "reference_year": Option(None, _parse_year),
    "tep_unit": _choice("bar", ("mbar", "bar")),
    "leave_self_out": Option(True, _parse_bool),
}


def _parse(key: str, text: str, where: str) -> object:
    try:
        return OPTIONS[key].parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_config_file(path: str) -> dict[str, object]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _parse(key, value.strip(), f"{path}:{lineno}: {key}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pemskit",
                     description="Turbine telemetry analytics: summaries, "
                                 "clustering, screening, drift, KNN NOx model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="FILE")
        for key, opt in OPTIONS.items():
            flag = key.replace("_", "-")
            if isinstance(opt.default, bool):
                p.add_argument(f"--no-{flag}" if opt.default else f"--{flag}",
                               dest=key, action="store_const",
                               const=not opt.default)
            else:
                p.add_argument(f"--{flag}", dest=key, metavar=opt.metavar,
                               help=opt.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < --config file < flags, each value parsed by its option."""
    values = {key: opt.default for key, opt in OPTIONS.items()}
    if args.config is not None:
        values.update(_read_config_file(args.config))
    for key in OPTIONS:
        given = getattr(args, key)
        if isinstance(given, str):
            given = _parse(key, given, "--" + key.replace("_", "-"))
        if given is not None:
            values[key] = given
    values["data_dir"] = (values["data_dir"] or os.environ.get(ENV_DATA_DIR)
                          or "data")
    config = RunConfig(command=args.command, **values)
    if config.predictors is not None and config.exclude_weather:
        raise ConfigError("--predictors and --exclude-weather are mutually "
                          "exclusive")
    if config.target in config.resolved_predictors():
        raise ConfigError(f"target '{config.target}' is also a predictor")
    return config


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
    with atomic_open(path) as fh:
        fh.write(text)
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
    cm = correlation_matrix(ds, [*config.resolved_predictors(), config.target])
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
