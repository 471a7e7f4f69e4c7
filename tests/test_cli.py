import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pemskit.cli import (_COMMANDS, ENV_DATA_DIR, build_parser, emit_table,
                         main, resolve_config)
from pemskit.errors import ConfigError
from pemskit.ingest import (REQUIRED, Dataset, load_dataset,
                            write_year_files)
from pemskit.knn import load_model, split
from pemskit.synthetic import make_dataset


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_data")
    ds = make_dataset(rows_per_year=120, seed=11, drift=0.25)
    write_year_files(ds, root)
    return root


@pytest.fixture(scope="session")
def degenerate_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_degenerate")
    ds = make_dataset(years=(2011,), rows_per_year=60, seed=1)
    cols = {k: v.copy() for k, v in ds.columns.items()}
    cols["afdp"] = np.full(ds.n_records, 4.0)  # zero variance on purpose
    write_year_files(Dataset(cols, ds.year.copy(), ds.years), root)
    return root


@pytest.fixture(scope="session")
def uneven_dir(tmp_path_factory) -> Path:
    """A 60-row 2011 and a 120-row 2012: a 0.98,0.01,0.01 split deals
    2011 no Test row and 2012 one."""
    root = tmp_path_factory.mktemp("cli_uneven")
    ds = make_dataset(years=(2011, 2012), rows_per_year=120, seed=1)
    write_year_files(ds.subset(np.r_[0:60, 120:240]), root)
    return root


@pytest.fixture(scope="session")
def overflow_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_overflow")
    ds = make_dataset(rows_per_year=60, seed=1)
    at = ds.column("at").copy()
    at[:2] = (1.5e308, -1.5e308)    # finite cells, overflowing spread
    write_year_files(Dataset({**ds.columns, "at": at}, ds.year.copy(),
                             ds.years), root)
    return root


def _run(*argv) -> int:
    return main(list(argv))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# Flags that keep a command's run short, for the commands that read them
_SMALL_RUNS = {"screen": ["--trees", "2"], "knn": ["--k-max", "3"],
               "report": ["--trees", "2", "--k-max", "3"]}


def test_summary_writes_default_tables(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("summary", "--data-dir", str(data_dir), "--out-dir", str(out)) == 0
    printed = capsys.readouterr().out.splitlines()
    files = sorted(p.name for p in out.iterdir())
    assert files == ["histograms.csv", "summary.csv"]
    assert len(printed) == 2 and all(line.startswith("wrote ") for line in printed)
    header, rows = _read_csv(out / "summary.csv")
    assert header[0] == "variable"
    assert len(rows) == 10  # nine predictors + nox
    assert [r[0] for r in rows][-1] == "nox"


def test_exclude_weather_trims_summary(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("summary", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--exclude-weather") == 0
    _, rows = _read_csv(out / "summary.csv")
    names = [r[0] for r in rows]
    assert len(names) == 7  # six process predictors + nox
    assert "at" not in names and "tit" in names


def test_csv_and_json_agree_numerically(data_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run("correlate", "--data-dir", str(data_dir), "--out-dir", str(a)) == 0
    assert _run("correlate", "--data-dir", str(data_dir), "--out-dir", str(b),
                "--out", "json") == 0
    header, rows = _read_csv(a / "correlations.csv")
    doc = json.loads((b / "correlations.json").read_text())
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(rows)
    for crow, jrow in zip(rows, doc["rows"]):
        for cval, jval in zip(crow, jrow):
            if isinstance(jval, float):
                assert float(cval) == jval  # repr round-trips exactly
                assert cval == repr(jval)
            else:
                assert cval == str(jval)


class _Reading(float):
    pass


def test_csv_and_json_tables_agree_on_numpy_and_subclassed_floats(tmp_path):
    table = {"columns": ["a", "b", "c"],
             "rows": [[np.float64(1.5), _Reading(0.1), np.float64(-2e-308)],
                      [np.float64(1 / 3), _Reading(-0.0), np.float64(1e16)]]}
    _, rows = _read_csv(emit_table(tmp_path, "t", table, "csv"))
    doc = json.loads(emit_table(tmp_path, "t", table, "json").read_text())
    assert rows == [[repr(v) for v in row] for row in doc["rows"]]
    assert rows[0] == ["1.5", "0.1", "-2e-308"]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_table_cell_is_a_plain_python_value(data_dir, command):
    config = resolve_config(build_parser().parse_args(
        [command, "--plots", "--data-dir", str(data_dir),
         *_SMALL_RUNS.get(command, [])]))
    plain = {type(None), bool, int, float, str}
    for name, content in _COMMANDS[command][0](
            load_dataset(config.data_dir, config.years), config):
        if isinstance(content, dict):
            for row in content["rows"]:
                assert {type(cell) for cell in row} <= plain, (name, row)


def test_knn_outputs_are_byte_reproducible(data_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run("knn", "--data-dir", str(data_dir), "--out-dir", str(out),
                    "--k-max", "5", "--seed", "3") == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["knn_metrics.csv", "knn_residuals.csv",
                     "knn_selection.csv", "model.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_knn_model_file_is_loadable(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("knn", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--years", "2011", "--k", "4") == 0
    model = load_model(out / "model.json")
    assert model.k == 4
    assert model.predictors == ("at", "ap", "ah", "afdp", "tit", "tat",
                                "tep", "tey", "cdp")


def test_k1_without_leave_self_out_memorizes_training(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("knn", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--years", "2011", "--k", "1", "--no-leave-self-out") == 0
    header, rows = _read_csv(out / "knn_metrics.csv")
    training = next(r for r in rows if r[1] == "Training")
    row = dict(zip(header, training))
    assert row["scope"] == "pooled"
    assert row["k"] == "1"
    assert row["r_squared"] == "1.0"
    assert row["rase"] == "0.0"
    assert row["aae"] == "0.0"


def test_knn_compares_pooled_and_yearly_scopes(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("knn", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--k-max", "4") == 0
    _, rows = _read_csv(out / "knn_metrics.csv")
    scopes = {r[0] for r in rows}
    assert scopes == {"pooled", "2011", "2012", "2013", "2014", "2015",
                      "by_year_aggregate"}
    _, sel = _read_csv(out / "knn_selection.csv")
    assert {r[0] for r in sel} == scopes - {"by_year_aggregate"}
    assert len(sel) == 6 * 4  # every scope sweeps k = 1..4


@pytest.mark.parametrize("argv, fits, queries", [
    (("--k-max", "4"), 6, 2 * 600),
    (("--k", "4"), 1, 600),
    (("--years", "2013", "--k-max", "4"), 1, 120),
], ids=["selection", "fixed-k", "one-year"])
def test_knn_fits_each_scope_once_and_predicts_each_record_once(
        data_dir, tmp_path, knn_work, argv, fits, queries):
    assert _run("knn", "--data-dir", str(data_dir), "--out-dir",
                str(tmp_path), "--plots", *argv) == 0
    assert knn_work == {"fits": fits, "queries": queries}


def test_k_max_at_training_size_under_leave_self_out(tmp_path, capsys):
    # Validation rows are never their own neighbors, so the sweep at
    # k_max = n_train runs; the training rows then need the chosen k to
    # leave room for their own exclusion.
    ds = make_dataset(years=(2011,), rows_per_year=12, seed=2)
    train = split(ds).rows("Training")
    n_train = train.shape[0]
    constant = np.full(ds.n_records, 7.0)    # every k is exact: k = 1
    # only the mean of all training targets hits the other rows' 5.0
    mean_only = np.full(ds.n_records, 5.0)
    mean_only[train] = 0.0
    mean_only[train[0]] = 5.0 * n_train

    def run(name, nox):
        cols = {**ds.columns, "nox": nox}
        write_year_files(Dataset(cols, ds.year.copy(), ds.years),
                         tmp_path / name)
        return _run("knn", "--data-dir", str(tmp_path / name), "--years",
                    "2011", "--out-dir", str(tmp_path / name / "out"),
                    "--k-max", str(n_train), "--weighting", "uniform")

    assert run("constant", constant) == 0
    _, rows = _read_csv(tmp_path / "constant" / "out" / "knn_metrics.csv")
    assert {r[2] for r in rows} == {"1"}
    assert run("mean-only", mean_only) == 4
    assert "k exceeds available neighbors" in capsys.readouterr().err


def test_a_k_max_above_a_years_training_rows_exits_3_naming_the_year(
        tmp_path, capsys):
    # 40 rows a year leave 28 Training rows per yearly model, while the
    # pooled model's 140 take k = 100
    write_year_files(make_dataset(rows_per_year=40, seed=1), tmp_path / "data")
    out = tmp_path / "out"
    assert _run("knn", "--k-max", "100", "--data-dir", str(tmp_path / "data"),
                "--out-dir", str(out)) == 3
    assert capsys.readouterr().err == \
        "error: year 2011: k must be in [1, 28], got 100\n"
    assert not out.exists()


def test_years_ranges_select_files(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("drift", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--years", "2011-2013,2015") == 0
    _, rows = _read_csv(out / "drift_fits.csv")
    assert [r[0] for r in rows] == ["2011", "2012", "2013", "2015"]


def test_tep_unit_rescales_slope(data_dir, tmp_path):
    bar = tmp_path / "bar"
    mbar = tmp_path / "mbar"
    assert _run("drift", "--data-dir", str(data_dir), "--out-dir", str(bar)) == 0
    assert _run("drift", "--data-dir", str(data_dir), "--out-dir", str(mbar),
                "--tep-unit", "mbar") == 0
    _, rows_bar = _read_csv(bar / "drift_fits.csv")
    _, rows_mbar = _read_csv(mbar / "drift_fits.csv")
    for rb, rm in zip(rows_bar, rows_mbar):
        assert float(rb[3]) == pytest.approx(float(rm[3]) * 1000.0, rel=1e-9)
        assert float(rb[4]) == pytest.approx(float(rm[4]), abs=1e-12)


def test_reference_year_flag(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("drift", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--reference-year", "2013") == 0
    _, rows = _read_csv(out / "drift_centroids.csv")
    ref = next(r for r in rows if r[0] == "2013")
    assert float(ref[3]) == 0.0  # the reference year sits at the origin


def test_screen_portions_sum_to_one(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("screen", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--trees", "15") == 0
    header, rows = _read_csv(out / "screening.csv")
    assert header == ["rank", "predictor", "contribution", "portion"]
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_cluster_vars_tables(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("cluster-vars", "--data-dir", str(data_dir),
                "--out-dir", str(out)) == 0
    header, rows = _read_csv(out / "clusters.csv")
    assert header == ["cluster", "variable", "dependence", "r2_own",
                      "r2_next", "ratio"]
    assert {r[1] for r in rows} == {"at", "ap", "ah", "afdp", "tit", "tat",
                                    "tep", "tey", "cdp"}
    assert all(r[2] in ("process", "weather") for r in rows)
    assert (out / "cluster_summary.csv").exists()


def test_plots_emit_valid_svg(data_dir, tmp_path):
    out = tmp_path / "out"
    assert _run("knn", "--data-dir", str(data_dir), "--out-dir", str(out),
                "--k-max", "3", "--plots") == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs == ["knn_actual_vs_predicted.svg", "knn_k_curve.svg",
                    "knn_residuals.svg"]
    for p in out.glob("*.svg"):
        minidom.parse(str(p))


def test_report_sections_and_idempotence(data_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert _run("report", "--data-dir", str(data_dir), "--out-dir",
                    str(out), "--trees", "10", "--k-max", "3") == 0
    doc = json.loads((a / "report.json").read_text())
    assert list(doc) == ["summary", "correlations", "clusters", "screening",
                         "drift", "knn"]
    assert "drift_scores" not in doc["drift"]  # per-record scores stay out
    assert (a / "index.html").read_text().startswith("<!DOCTYPE html>")
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_report_sections_are_the_commands_tables(data_dir, tmp_path, capsys):
    common = ("--data-dir", str(data_dir), "--out", "json", "--seed", "3")
    assert _run("report", *common, *_SMALL_RUNS["report"],
                "--out-dir", str(tmp_path / "report")) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    commands = {"summary": "summary", "correlations": "correlate",
                "clusters": "cluster-vars", "screening": "screen",
                "drift": "drift", "knn": "knn"}
    per_record = {"drift": ["drift_scores"], "knn": ["knn_residuals"]}
    assert list(report) == list(commands)
    capsys.readouterr()
    for section, command in commands.items():
        out = tmp_path / command
        assert _run(command, *common, *_SMALL_RUNS.get(command, []),
                    "--out-dir", str(out)) == 0
        written = [Path(line.removeprefix("wrote ")) for line
                   in capsys.readouterr().out.splitlines()]
        tables = {p.stem: json.loads(p.read_text()) for p in written
                  if p.suffix == ".json" and p.name != "model.json"}
        for name in per_record.get(section, []):
            assert name in tables and name not in report[section]
            del tables[name]
        assert list(report[section]) == list(tables), section
        assert report[section] == tables, section


def test_config_file_provides_defaults_flags_override(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg_out = tmp_path / "from_config"
    flag_out = tmp_path / "from_flag"
    cfg.write_text(f"data_dir = {data_dir}\n"
                   "# comment line\n"
                   "out = json\n"
                   "years = 2011\n"
                   "k = 3\n"
                   "seed = 5\n"
                   f"out-dir = {cfg_out}\n")
    assert _run("knn", "--config", str(cfg), "--out-dir", str(flag_out)) == 0
    assert not cfg_out.exists()                      # flag beat the file
    assert (flag_out / "knn_metrics.json").exists()  # file set the format
    twin = tmp_path / "twin"
    assert _run("knn", "--data-dir", str(data_dir), "--years", "2011",
                "--k", "3", "--seed", "5", "--out", "json",
                "--out-dir", str(twin)) == 0
    assert (flag_out / "knn_metrics.json").read_bytes() == \
        (twin / "knn_metrics.json").read_bytes()


def test_environment_variable_sets_data_dir(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_DATA_DIR, str(data_dir))
    out = tmp_path / "out"
    assert _run("summary", "--out-dir", str(out)) == 0
    assert (out / "summary.csv").exists()


def test_exit_code_2_for_data_problems(tmp_path, data_dir):
    assert _run("summary", "--data-dir", str(tmp_path / "nope"),
                "--out-dir", str(tmp_path / "o1")) == 2
    assert _run("summary", "--data-dir", str(data_dir), "--years", "2031",
                "--out-dir", str(tmp_path / "o2")) == 2
    assert _run("summary", "--config", str(tmp_path / "absent.cfg"),
                "--out-dir", str(tmp_path / "o3")) == 2
    latin1_cfg = tmp_path / "latin1.cfg"
    latin1_cfg.write_bytes(b"out-dir = caf\xe9\n")
    assert _run("summary", "--config", str(latin1_cfg),
                "--data-dir", str(data_dir)) == 2
    blocker = tmp_path / "regular_file"
    blocker.write_text("")
    assert _run("summary", "--data-dir", str(data_dir),
                "--out-dir", str(blocker / "sub")) == 2


@pytest.mark.parametrize("command", ["summary", "correlate", "screen", "drift"])
def test_a_header_only_year_file_exits_2_naming_it(data_dir, tmp_path, capsys,
                                                   command):
    data = tmp_path / "data"
    data.mkdir()
    for year in (2011, 2012):
        text = (data_dir / f"gt_{year}.csv").read_text()
        (data / f"gt_{year}.csv").write_text(
            text.splitlines(keepends=True)[0] if year == 2012 else text)
    out = tmp_path / "out"
    assert _run(command, "--years", "2011,2012", "--data-dir", str(data),
                "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == "error: gt_2012.csv: no data rows\n"
    assert not out.exists()


def test_exit_code_3_for_config_problems(data_dir, tmp_path):
    out = str(tmp_path / "out")
    base = ("--data-dir", str(data_dir), "--out-dir", out)
    assert _run("knn", *base, "--split", "0.5,0.4,0.3") == 3
    assert _run("summary", *base, "--years", "20x1") == 3
    assert _run("summary", *base, "--predictors", "at,bogus") == 3
    assert _run("summary", *base, "--predictors", "at",
                "--exclude-weather") == 3
    assert _run("knn", *base, "--k", "0") == 3
    assert _run("summary", *base, "--not-a-flag") == 3        # argparse error
    assert _run("drift", *base, "--tep-unit", "psi") == 3     # bad choice
    # the target may not also be a predictor, given or by default
    assert _run("screen", *base, "--predictors", "at,ap,nox") == 3
    assert _run("knn", *base, "--predictors", "at,nox", "--years", "2011",
                "--k", "1", "--no-leave-self-out") == 3
    assert _run("summary", *base, "--target", "at") == 3
    # a predictor may be listed only once, whichever command reads the list
    for command in ("screen", "knn", "drift", "correlate", "cluster-vars"):
        assert _run(command, *base, "--predictors", "at,at,ap") == 3
    dup_cfg = tmp_path / "dup.cfg"
    dup_cfg.write_text("predictors = ap, at, AT\n")
    assert _run("screen", *base, "--config", str(dup_cfg)) == 3
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("mystery = 1\n")
    assert _run("summary", *base, "--config", str(bad_cfg)) == 3
    noisy_cfg = tmp_path / "noisy.cfg"
    noisy_cfg.write_text("just some words\n")
    assert _run("summary", *base, "--config", str(noisy_cfg)) == 3


def test_target_ignores_case_in_flags_and_config_files(data_dir, tmp_path):
    flag_out = tmp_path / "flag"
    cfg_out = tmp_path / "cfg"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"target = NOX\nout-dir = {cfg_out}\n")
    base = ("summary", "--data-dir", str(data_dir))
    assert _run(*base, "--target", "NOX", "--out-dir", str(flag_out)) == 0
    assert _run(*base, "--config", str(cfg)) == 0
    for name in ("summary.csv", "histograms.csv"):
        assert (flag_out / name).read_bytes() == (cfg_out / name).read_bytes()


def test_duplicate_predictor_is_named(data_dir, tmp_path, capsys):
    assert _run("screen", "--data-dir", str(data_dir), "--predictors",
                "at,at,ap", "--out-dir", str(tmp_path / "out")) == 3
    assert "predictor 'at' is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_empty_predictor_list_is_named(data_dir, tmp_path, capsys):
    assert _run("summary", "--data-dir", str(data_dir), "--predictors", ",",
                "--out-dir", str(tmp_path / "out")) == 3
    assert "--predictors: empty predictor list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_short_year_does_not_match_a_longer_one(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("summary", "--data-dir", str(data_dir), "--years", "13",
                "--out-dir", str(out)) == 2
    assert "no CSV for year 13" in capsys.readouterr().err
    assert not out.exists()


def test_drift_with_one_variable_says_why(data_dir, tmp_path, capsys):
    assert _run("drift", "--data-dir", str(data_dir), "--predictors", "at",
                "--out-dir", str(tmp_path / "out")) == 3
    assert "at least 2 variables" in capsys.readouterr().err


def test_failed_write_leaves_no_partial_or_temp_file(data_dir, tmp_path,
                                                     monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    out = tmp_path / "out"
    assert _run("summary", "--data-dir", str(data_dir),
                "--out-dir", str(out)) == 2
    assert list(out.iterdir()) == []


NON_BOOLEAN_OPTIONS = ("data_dir", "years", "target", "predictors", "split",
                       "seed", "k", "k_max", "weighting", "threshold",
                       "trees", "out", "out_dir", "reference_year",
                       "tep_unit")

# Text that a flag and a config line carry unchanged: one line, no
# surrounding whitespace, and no leading "-" (argparse would read a flag).
_OPTION_TEXT = st.one_of(
    st.sampled_from(["NOX", "nox", "Co", "at,ap", "at,nox", "AT, tit",
                     "2011-2013,2015", "2013-2011", "0.7,0.15,0.15",
                     "0.5,0.5", "csv", "json", "JSON", "mbar", "bar",
                     "uniform", "inverse_distance", "0", "1", "3", "1e3",
                     "nan", "inf", "2.5", "0x10", "1_000", "", ","]),
    st.integers(min_value=0).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
).filter(lambda t: t == t.strip() and len(t.splitlines()) <= 1
         and not t.startswith("-"))


_PARSER = build_parser()


def _resolve(argv: list[str]):
    try:
        return resolve_config(_PARSER.parse_args(argv))
    except ConfigError:
        return ConfigError


@pytest.mark.parametrize("key", NON_BOOLEAN_OPTIONS)
@given(text=_OPTION_TEXT)
def test_flag_and_config_line_parse_alike(key, text, tmp_path_factory):
    cfg = tmp_path_factory.getbasetemp() / f"equivalence_{key}.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    from_flag = _resolve(["report", "--" + key.replace("_", "-"), text])
    from_file = _resolve(["report", "--config", str(cfg)])
    assert from_flag == from_file


def test_exit_code_4_for_degenerate_data(degenerate_dir, tmp_path):
    assert _run("cluster-vars", "--data-dir", str(degenerate_dir),
                "--years", "2011", "--out-dir", str(tmp_path / "out")) == 4


@pytest.mark.parametrize("argv, scope", [
    (("knn", "--years", "2011", "--k", "3"), ""),
    (("knn", "--years", "2011,2012", "--k-max", "3"), "year 2011: "),
    (("report", "--years", "2011,2012", "--k-max", "3", "--trees", "2"),
     "year 2011: "),
], ids=["one-year", "selection", "report"])
def test_an_empty_partition_exits_4_naming_it(uneven_dir, tmp_path, capsys,
                                              argv, scope):
    out = tmp_path / "out"
    assert _run(*argv, "--split", "0.98,0.01,0.01", "--data-dir",
                str(uneven_dir), "--out-dir", str(out)) == 4
    assert capsys.readouterr().err == \
        f"error: {scope}partition 'Test' is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("summary", "--plots"), ("correlate",), ("correlate", "--plots"),
    ("cluster-vars",), ("screen", "--trees", "2"), ("drift",),
    ("knn", "--k-max", "3"), ("report", "--trees", "2"),
], ids=" ".join)
def test_a_variance_that_overflows_exits_4_naming_the_variable(
        overflow_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _run(*argv, "--data-dir", str(overflow_dir), "--out-dir",
                str(out)) == 4
    assert capsys.readouterr().err == (
        "error: variable 'at' spans [-1.5e+308, 1.5e+308]: its variance "
        "overflows float64\n")
    assert not out.exists()


def test_drift_exits_4_on_a_fit_column_whose_variance_overflows(
        tmp_path, capsys):
    # tep is not a predictor here, so only the yearly tep/cdp fit meets it
    ds = make_dataset(rows_per_year=60, seed=1)
    tep = ds.column("tep").copy()
    tep[:2] = (1.5e308, -1.5e308)
    write_year_files(Dataset({**ds.columns, "tep": tep}, ds.year.copy(),
                             ds.years), tmp_path / "data")
    out = tmp_path / "out"
    assert _run("drift", "--predictors", "at,ap", "--data-dir",
                str(tmp_path / "data"), "--out-dir", str(out)) == 4
    assert capsys.readouterr().err == (
        "error: year 2011: variable 'tep' spans [-1.5e+308, 1.5e+308]: its "
        "variance overflows float64\n")
    assert not out.exists()


def test_a_chart_axis_that_overflows_exits_4_naming_the_variable(
        tmp_path, capsys):
    # one row has no spread to overflow, but the histogram pads its
    # single value by 5 %, past the largest float64
    ds = make_dataset(years=(2011,), rows_per_year=1, seed=1)
    ap = ds.column("ap").copy()
    ap[0] = 1.75e308
    write_year_files(Dataset({**ds.columns, "ap": ap}, ds.year.copy(),
                             ds.years), tmp_path / "data")
    assert _run("summary", "--plots", "--years", "2011", "--data-dir",
                str(tmp_path / "data"), "--out-dir",
                str(tmp_path / "out")) == 4
    assert capsys.readouterr().err == (
        "error: the x axis 'ap' cannot span [1.75e+308, 1.75e+308]: its "
        "padded range overflows float64\n")


# How a fuzzed column departs from the synthetic one: no spread, a copy
# of another column, two distinct values, or two cells at ±1e308.
_COLUMN_KINDS = ("constant", "duplicated", "tied", "huge")


@st.composite
def _odd_year_files(draw):
    """1-3 years of 1-29 rows, up to three odd columns, and a seed."""
    sizes = draw(st.lists(st.integers(1, 29), min_size=1, max_size=3))
    odd = draw(st.dictionaries(st.sampled_from(REQUIRED),
                               st.sampled_from(_COLUMN_KINDS), max_size=3))
    return sizes, odd, draw(st.integers(0, 2**32 - 1))


def _odd_dataset(sizes, odd, seed) -> Dataset:
    rng = np.random.default_rng(seed)
    years = range(2011, 2011 + len(sizes))
    ds = make_dataset(years, rows_per_year=max(sizes), seed=seed)
    ds = ds.subset(np.concatenate([np.nonzero(ds.year == year)[0][:n]
                                   for year, n in zip(years, sizes)]))
    cols = {name: col.copy() for name, col in ds.columns.items()}
    for name, kind in odd.items():
        col = cols[name]
        if kind == "constant":
            col[:] = col[0]
        elif kind == "duplicated":
            col[:] = ds.column(REQUIRED[rng.integers(len(REQUIRED))])
        elif kind == "tied":
            col[:] = rng.choice(col[:2], ds.n_records)
        else:
            col[rng.integers(ds.n_records, size=2)] = (1e308, -1e308)
    return Dataset(cols, ds.year.copy(), ds.years)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(files=_odd_year_files())
def test_no_command_raises_on_small_odd_year_files(files):
    # a traceback, or a warning (an error in this suite), fails the test
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp, "data")
        ds = _odd_dataset(*files)
        write_year_files(ds, data)
        years = ",".join(map(str, ds.years))
        for command in _COMMANDS:
            code = main([command, "--plots", *_SMALL_RUNS.get(command, []),
                         "--years", years, "--data-dir", str(data),
                         "--out-dir", str(Path(tmp, command))])
            assert code in (0, 2, 3, 4), command


# Every option's argparse action, written out by hand as (flags, dest,
# metavar, help, default, const, nargs): a change to how the options are
# declared must leave the command-line surface exactly as it is.
OPTION_SURFACE = [
    (["-h", "--help"], "help", None, "show this help message and exit",
     argparse.SUPPRESS, None, 0),
    (["--config"], "config", "FILE", None, None, None, None),
    (["--data-dir"], "data_dir", None, None, None, None, None),
    (["--years"], "years", None,
     "comma list and/or ranges, e.g. 2011-2013,2015", None, None, None),
    (["--target"], "target", None, None, None, None, None),
    (["--predictors"], "predictors", "NAMES", None, None, None, None),
    (["--exclude-weather"], "exclude_weather", None, None, None, True, 0),
    (["--split"], "split", "A,B,C", None, None, None, None),
    (["--seed"], "seed", None, None, None, None, None),
    (["--k"], "k", None, None, None, None, None),
    (["--k-max"], "k_max", None, None, None, None, None),
    (["--weighting"], "weighting", "{inverse_distance,uniform}", None, None,
     None, None),
    (["--threshold"], "threshold", None, None, None, None, None),
    (["--trees"], "trees", None, None, None, None, None),
    (["--out"], "out", "{csv,json}", None, None, None, None),
    (["--plots"], "plots", None, None, None, True, 0),
    (["--out-dir"], "out_dir", None, None, None, None, None),
    (["--reference-year"], "reference_year", None, None, None, None, None),
    (["--tep-unit"], "tep_unit", "{mbar,bar}", None, None, None, None),
    (["--no-leave-self-out"], "leave_self_out", None, None, None, False, 0),
]

ACTION_OF = {action[0][-1]: action for action in OPTION_SURFACE}
RUN_WIDE_FLAGS = ["--help", "--config", "--data-dir", "--years", "--target",
                  "--predictors", "--exclude-weather", "--seed", "--out",
                  "--plots", "--out-dir"]
# Each subcommand's own flags; report reads all of them.
OWN_FLAGS = {
    "summary": [],
    "correlate": [],
    "cluster-vars": ["--threshold"],
    "screen": ["--trees"],
    "drift": ["--reference-year", "--tep-unit"],
    "knn": ["--split", "--k", "--k-max", "--weighting", "--no-leave-self-out"],
}
OWN_FLAGS["report"] = [flag for own in OWN_FLAGS.values() for flag in own]


def test_every_subcommand_has_the_written_out_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["summary", "correlate", "cluster-vars",
                                 "screen", "drift", "knn", "report"]
    for command, p in sub.choices.items():
        surface = [(a.option_strings, a.dest, a.metavar, a.help, a.default,
                    a.const, a.nargs) for a in p._actions]
        assert surface == [ACTION_OF[flag] for flag
                           in RUN_WIDE_FLAGS + OWN_FLAGS[command]], command
    assert sum(len(p._actions) - 1 for p in sub.choices.values()) == 88


# A valid value for each flag that only some subcommands read
_OWN_FLAG_VALUES = {"--threshold": ["1.0"], "--trees": ["2"],
                    "--reference-year": ["2011"], "--tep-unit": ["mbar"],
                    "--split": ["0.7,0.15,0.15"], "--k": ["3"],
                    "--k-max": ["3"], "--weighting": ["uniform"],
                    "--no-leave-self-out": []}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, own in OWN_FLAGS.items()
    for flag in _OWN_FLAG_VALUES if flag not in own])
def test_a_flag_the_subcommand_does_not_read_exits_3(command, flag, tmp_path,
                                                     capsys):
    # the data directory is missing too: the flag is refused before any read
    out = tmp_path / "out"
    assert _run(command, flag, *_OWN_FLAG_VALUES[flag], "--data-dir",
                str(tmp_path / "missing"), "--out-dir", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ")
    assert flag in err.split()
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("summary", "--t", "nox"), ("summary", "--s", "5"),
    ("drift", "--tep", "mbar"), ("knn", "--k-m", "3"),
    ("report", "--out-d", "elsewhere")])
def test_a_shortened_flag_exits_3(argv, tmp_path, capsys):
    # a flag, like a config key, must be spelled out in full
    out = tmp_path / "out"
    assert _run(*argv, "--data-dir", str(tmp_path / "missing"),
                "--out-dir", str(out)) == 3
    assert argv[1] in capsys.readouterr().err.split()
    assert not out.exists()


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "pemskit.cli", "knn", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--no-leave-self-out" in proc.stdout
    assert "--weighting" in proc.stdout
