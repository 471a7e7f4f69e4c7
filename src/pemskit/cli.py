"""Command-line front end.

One subcommand per analysis (summary, correlate, cluster-vars, screen,
drift, knn, report).  Every table is emitted as either CSV or JSON
(--out), with identical numeric content: floats are serialized with
repr, so files are byte-reproducible for fixed (inputs, config, seed)
and round-trip exactly.

Each command is ``cmd_<name>(ds, config)``: given the dataset, loaded
once by main, it builds and yields its outputs as (name, content) pairs
in write order, tables first, then plots.  Content is a table,
SVG/JSON/HTML text, or the KNN model, and one writer, _write, puts every
output on disk; the ``wrote`` lines are printed once all are written.
``report`` runs the other six commands without plots: each section of
report.json is exactly its command's tables, up to the first per-record
one (drift_scores, knn_residuals), which stays out.

Each option is a RunConfig field: its default, parse function, metavar
and help are the field's, and the flags and config-file keys come from
the fields.  A subcommand takes the run-wide options and the ones it
reads (_COMMANDS), spelled out in full, and any other flag is a config
error; a config file may set any option, as one file also serves
``report``.  Configuration precedence: built-in defaults < --config
key=value file < explicit flags.  Exit codes: 0 success, 2 input/IO
error, 3 config error, 4 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import MAXYEAR, MINYEAR
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import drift as drift_mod
from . import knn as knn_mod
from . import svgplot
from .errors import ConfigError, DataError, DegenerateDataError, PemskitError
from .ingest import (Dataset, OPTIONAL_TARGET, PREDICTORS, PROCESS_PREDICTORS,
                     TARGET, atomic_open, load_dataset, resolve_predictors)
from .screening import ForestConfig, screen_predictors
from .stats import check_spread, correlation_matrix, flag_high_nox, summarize
from .varclus import DEFAULT_THRESHOLD, cluster_variables, dependence_tag

ENV_DATA_DIR = "PEMSKIT_DATA_DIR"
DEFAULT_YEARS = (2011, 2012, 2013, 2014, 2015)
KNOWN_VARIABLES = PREDICTORS + (TARGET, OPTIONAL_TARGET)


# ------------------------------------------------------- option parsing
#
# An option's parse function turns a flag's text or a config-file value
# into a checked value, or raises ConfigError.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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
    return resolve_predictors(
        [_parse_variable(t) for t in text.split(",") if t.strip()])


def _option(default, parse: Callable[[str], object],
            metavar: str | None = None, help: str | None = None):
    """A RunConfig field that is an option.  Its flag is `--<name>` with
    `-` for `_`; a boolean option is a bare flag that flips its default
    (`--no-<name>` when the default is true)."""
    return field(default=default, metadata={"parse": parse,
                                            "metavar": metavar, "help": help})


def _choice(default: str, allowed: Sequence[str]):
    return _option(default, _checked(str, f"one of {', '.join(allowed)}",
                                     allowed.__contains__),
                   "{" + ",".join(allowed) + "}")


@dataclass(frozen=True)
class RunConfig:
    command: str
    data_dir: str = _option(None, str)  # None: $PEMSKIT_DATA_DIR, then ./data
    years: tuple[int, ...] = _option(
        DEFAULT_YEARS, _parse_years,
        help="comma list and/or ranges, e.g. 2011-2013,2015")
    target: str = _option(TARGET, _parse_variable)
    predictors: tuple[str, ...] | None = _option(None, _parse_predictors,
                                                 "NAMES")
    exclude_weather: bool = _option(False, _parse_bool)
    split: tuple[float, float, float] = _option(knn_mod.DEFAULT_FRACTIONS,
                                                _parse_fractions, "A,B,C")
    seed: int = _option(0, _parse_int)
    k: int | None = _option(None, _at_least_1)
    k_max: int = _option(10, _at_least_1)
    weighting: str = _choice("inverse_distance", knn_mod.WEIGHTINGS)
    threshold: float = _option(DEFAULT_THRESHOLD, _checked(
        float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0.0))
    trees: int = _option(100, _at_least_1)
    out: str = _choice("csv", ("csv", "json"))
    plots: bool = _option(False, _parse_bool)
    out_dir: str = _option("pemskit_out", str)
    reference_year: int | None = _option(None, _parse_year)
    tep_unit: str = _choice("bar", ("mbar", "bar"))
    leave_self_out: bool = _option(True, _parse_bool)

    def resolved_predictors(self) -> tuple[str, ...]:
        if self.predictors is not None:
            return self.predictors
        return PROCESS_PREDICTORS if self.exclude_weather else PREDICTORS


_OPTIONS = {f.name: f for f in fields(RunConfig) if f.metadata}


def _parse(key: str, text: str, where: str) -> object:
    try:
        return _OPTIONS[key].metadata["parse"](text)
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
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _parse(key, value.strip(), f"{path}:{lineno}: {key}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pemskit", allow_abbrev=False,
                     description="Turbine telemetry analytics: summaries, "
                                 "clustering, screening, drift, KNN NOx model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)    # flags exact, as keys
        p.add_argument("--config", metavar="FILE")
        for key in _RUN_WIDE + options:
            opt = _OPTIONS[key]
            flag = key.replace("_", "-")
            if isinstance(opt.default, bool):
                p.add_argument(f"--no-{flag}" if opt.default else f"--{flag}",
                               dest=key, action="store_const",
                               const=not opt.default)
            else:
                p.add_argument(f"--{flag}", dest=key,
                               metavar=opt.metadata["metavar"],
                               help=opt.metadata["help"])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < --config file < flags, each value parsed by its option."""
    values = {} if args.config is None else _read_config_file(args.config)
    for key in _OPTIONS:
        given = getattr(args, key, None)     # None: not this command's
        if isinstance(given, str):
            given = _parse(key, given, "--" + key.replace("_", "-"))
        if given is not None:
            values[key] = given
    values["data_dir"] = (values.get("data_dir")
                          or os.environ.get(ENV_DATA_DIR) or "data")
    config = RunConfig(command=args.command, **values)
    if config.predictors is not None and config.exclude_weather:
        raise ConfigError("--predictors and --exclude-weather are mutually "
                          "exclusive")
    resolve_predictors(config.resolved_predictors(), config.target)
    return config


# ------------------------------------------------------------- emission

Table = dict    # {"columns": [...], "rows": [[...], ...]}


def _table(columns: Sequence[str], rows: Iterable[Sequence]) -> Table:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def _csv_cell(v) -> str:
    if type(v) is float:    # most cells; skips the checks below
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_text(path: Path, text: str) -> Path:
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def emit_table(out_dir: Path, name: str, table: Table, fmt: str) -> Path:
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with atomic_open(path) as fh:
            fh.write(",".join(table["columns"]) + "\n")
            # line by line, so a 37k-row table is never one string
            fh.writelines(",".join(map(_csv_cell, row)) + "\n"
                          for row in table["rows"])
        return path
    return _write_text(out_dir / f"{name}.json",
                       json.dumps(table, indent=2) + "\n")


def _write(config: RunConfig, name: str,
           content: Table | str | knn_mod.KnnModel) -> Path:
    """Write one command output under --out-dir: a table as <name>.csv or
    <name>.json, a model with save_model, and text (SVG, JSON, HTML) as
    it is."""
    path = Path(config.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, knn_mod.KnnModel):
        knn_mod.save_model(content, path)
        return path
    if isinstance(content, str):
        return _write_text(path, content)
    return emit_table(path.parent, name, content, config.out)


# -------------------------------------------------------------- commands

Output = tuple[str, "Table | str | knn_mod.KnnModel"]


def cmd_summary(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    summaries = summarize(ds, variables=[*config.resolved_predictors(),
                                         config.target])
    yield "summary", _table(
        ["variable", "count", "mean", "std", "min", "q1", "median", "q3",
         "max"],
        [[s.name, s.count, s.mean, s.std, s.min, s.q1, s.median, s.q3, s.max]
         for s in summaries])
    yield "histograms", _table(
        ["variable", "bin_lo", "bin_hi", "count"],
        [[s.name, lo, hi, count]
         for s in summaries for lo, hi, count in s.histogram])
    if config.plots:
        for s in summaries:
            lo, hi, counts = zip(*s.histogram)
            yield f"hist_{s.name}.svg", svgplot.bars(
                lo, hi, counts, f"{s.name} distribution", s.name)


def cmd_correlate(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    cm = correlation_matrix(ds, [*config.resolved_predictors(), config.target])
    yield "correlations", _table(
        ["variable", *cm.variables],
        [[name, *row]
         for name, row in zip(cm.variables, cm.matrix.tolist())])
    if not config.plots:
        return
    high = flag_high_nox(ds)
    target = ds.column(config.target)
    for name in config.resolved_predictors():
        x = ds.column(name)
        series = [("normal", x[~high], target[~high]),
                  ("high NOx", x[high], target[high])]
        yield f"scatter_{name}_{config.target}.svg", svgplot.scatter(
            series, f"{config.target} vs {name}", name, config.target)


def cmd_cluster_vars(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    report = cluster_variables(ds, config.resolved_predictors(),
                               threshold=config.threshold)
    yield "clusters", _table(
        ["cluster", "variable", "dependence", "r2_own", "r2_next", "ratio"],
        [[r.cluster_id, r.variable, dependence_tag(r.variable), r.r2_own,
          r.r2_next, r.ratio] for r in report.rows])
    yield "cluster_summary", _table(
        ["cluster", "members", "size", "eigenvalue1", "eigenvalue2"],
        [[c.id, " ".join(c.members), len(c.members), c.eigenvalue1,
          c.eigenvalue2] for c in report.clusters])


def cmd_screen(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    result = screen_predictors(
        ds, config.resolved_predictors(), config.target,
        ForestConfig(n_trees=config.trees, seed=config.seed))
    yield "screening", _table(
        ["rank", "predictor", "contribution", "portion"],
        [[r.rank, r.predictor, r.contribution, r.portion]
         for r in result.rows])
    if config.plots:
        order = " ".join(r.predictor for r in result.rows)
        yield "screening_portions.svg", svgplot.bars(
            [float(r.rank) - 0.5 for r in result.rows],
            [float(r.rank) + 0.5 for r in result.rows],
            [r.portion for r in result.rows],
            f"split contribution portion by rank ({order})", "rank", "portion")


def cmd_drift(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    scale = drift_mod.DEFAULT_TEP_SCALE if config.tep_unit == "bar" else 1.0
    report = drift_mod.drift_report(ds, config.reference_year,
                                    config.resolved_predictors(),
                                    x_unit_scale=scale)
    scores = report.scores
    yield "drift_fits", _table(
        ["year", "n", "intercept", "slope", "r_squared"],
        [[yd.year, yd.fit.n, yd.fit.intercept, yd.fit.slope,
          yd.fit.r_squared] for yd in report.years])
    yield "drift_centroids", _table(
        ["year", "pc1", "pc2", "displacement"],
        [[yd.year, yd.centroid[0], yd.centroid[1], yd.displacement]
         for yd in report.years])
    yield "drift_scores", _table(
        ["row", "year", "pc1", "pc2"],
        zip(range(ds.n_records), ds.year.tolist(), scores[:, 0].tolist(),
            scores[:, 1].tolist()))
    if not config.plots:
        return
    series = []
    for year in ds.years:
        mask = ds.year == year
        series.append((str(year), scores[mask, 0], scores[mask, 1]))
    yield "drift_pc.svg", svgplot.scatter(
        series, f"PC scores by year (reference {report.reference_year})",
        "PC1", "PC2")
    years = [yd.year for yd in report.years]
    r2s = [yd.fit.r_squared for yd in report.years]
    yield "drift_r2.svg", svgplot.line(
        [("cdp~tep r2", years, r2s)], "Yearly cdp~tep fit r2", "year", "r2")


def _metrics_row(scope: str, k, partition: str,
                 m: knn_mod.EvalMetrics) -> list:
    return [scope, partition, k, m.freq, m.r_squared, m.rase, m.aae]


def cmd_knn(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    names = config.resolved_predictors()
    if config.k is None and len(ds.years) >= 2:
        cmp = knn_mod.compare_pooled_vs_yearly(
            ds, config.split, config.seed, config.k_max, names,
            config.target, config.weighting, config.leave_self_out)
        scopes, assignment = (cmp.pooled, *cmp.yearly), cmp.assignment
        aggregate = cmp.by_year_aggregate
    else:
        assignment = knn_mod.split(ds, config.split, config.seed)
        scopes = (knn_mod._evaluate_scope(
            "pooled", ds, assignment, names, config.target, config.k,
            config.k_max, config.weighting, config.leave_self_out),)
        aggregate = {}

    metrics_rows: list[list] = []
    selection_rows: list[list] = []
    for scope in scopes:
        if scope.curve is not None:
            for k, rase in scope.curve.points:
                selection_rows.append([scope.label, k, rase])
        for part, m in scope.metrics.items():
            metrics_rows.append(_metrics_row(scope.label, scope.chosen_k,
                                             part, m))
    for part, m in aggregate.items():
        metrics_rows.append(_metrics_row("by_year_aggregate", None, part, m))
    yield "knn_metrics", _table(
        ["scope", "partition", "k", "freq", "r_squared", "rase", "aae"],
        metrics_rows)
    if selection_rows:
        yield "knn_selection", _table(
            ["scope", "k", "validation_rase"], selection_rows)
    pooled = scopes[0]
    actual, predicted = ds.column(config.target), pooled.predicted
    residual = actual - predicted
    labels = assignment.labels()
    yield "knn_residuals", _table(
        ["row", "year", "partition", "actual", "predicted", "residual"],
        zip(range(ds.n_records), ds.year.tolist(), labels, actual.tolist(),
            predicted.tolist(), residual.tolist()))
    yield "model.json", pooled.model
    if not config.plots:
        return
    curve = pooled.curve
    if curve is not None:
        yield "knn_k_curve.svg", svgplot.line(
            [("validation RASE", [k for k, _ in curve.points],
              [rase for _, rase in curve.points])],
            "Validation RASE vs K", "k", "RASE")
    fits, residuals = [], []
    for i, name in enumerate(knn_mod.PARTITIONS):
        mine = assignment.codes == i
        if mine.any():
            fits.append((name, actual[mine], predicted[mine]))
            residuals.append((name, predicted[mine], residual[mine]))
    yield "knn_actual_vs_predicted.svg", svgplot.scatter(
        fits, "Predicted vs actual", "actual", "predicted")
    yield "knn_residuals.svg", svgplot.scatter(
        residuals, "Residual vs predicted", "predicted", "residual")


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

_PER_RECORD = ("drift_scores", "knn_residuals")


def cmd_report(ds: Dataset, config: RunConfig) -> Iterator[Output]:
    config = replace(config, plots=False)
    report = {section: dict(takewhile(lambda out: out[0] not in _PER_RECORD,
                                      run(ds, config)))
              for run, section, _ in _COMMANDS.values() if section}
    yield "report.json", json.dumps(report, indent=2) + "\n"
    yield "index.html", _INDEX_HTML


#: Taken by every command, though not all read --seed, --plots or --out.
_RUN_WIDE = ("data_dir", "years", "target", "predictors", "exclude_weather",
             "seed", "out", "plots", "out_dir")
#: name: (function, report.json section, options it reads besides _RUN_WIDE)
_COMMANDS = {
    "summary": (cmd_summary, "summary", ()),
    "correlate": (cmd_correlate, "correlations", ()),
    "cluster-vars": (cmd_cluster_vars, "clusters", ("threshold",)),
    "screen": (cmd_screen, "screening", ("trees",)),
    "drift": (cmd_drift, "drift", ("reference_year", "tep_unit")),
    "knn": (cmd_knn, "knn", ("split", "k", "k_max", "weighting",
                             "leave_self_out")),
}
_COMMANDS["report"] = (cmd_report, None, tuple(
    key for _, _, options in _COMMANDS.values() for key in options))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        ds = load_dataset(config.data_dir, config.years)
        check_spread(ds, (*config.resolved_predictors(), config.target))
        written = []
        for name, content in _COMMANDS[config.command][0](ds, config):
            written.append(_write(config, name, content))
            del content     # free a large table before the command resumes
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
