import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pemskit.cli import ENV_DATA_DIR, build_parser, main, resolve_config
from pemskit.errors import ConfigError
from pemskit.ingest import Dataset, write_year_files
from pemskit.knn import load_model
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


def _run(*argv) -> int:
    return main(list(argv))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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


def test_exit_code_3_for_config_problems(data_dir, tmp_path):
    out = str(tmp_path / "out")
    base = ("--data-dir", str(data_dir), "--out-dir", out)
    assert _run("summary", *base, "--split", "0.5,0.4,0.3") == 3
    assert _run("summary", *base, "--years", "20x1") == 3
    assert _run("summary", *base, "--predictors", "at,bogus") == 3
    assert _run("summary", *base, "--predictors", "at",
                "--exclude-weather") == 3
    assert _run("knn", *base, "--k", "0") == 3
    assert _run("summary", *base, "--not-a-flag") == 3        # argparse error
    assert _run("summary", *base, "--tep-unit", "psi") == 3   # bad choice
    # the target may not also be a predictor, given or by default
    assert _run("screen", *base, "--predictors", "at,ap,nox") == 3
    assert _run("knn", *base, "--predictors", "at,nox", "--years", "2011",
                "--k", "1", "--no-leave-self-out") == 3
    assert _run("summary", *base, "--target", "at") == 3
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
    from_flag = _resolve(["summary", "--" + key.replace("_", "-"), text])
    from_file = _resolve(["summary", "--config", str(cfg)])
    assert from_flag == from_file


def test_exit_code_4_for_degenerate_data(degenerate_dir, tmp_path):
    assert _run("cluster-vars", "--data-dir", str(degenerate_dir),
                "--years", "2011", "--out-dir", str(tmp_path / "out")) == 4


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "pemskit.cli", "knn", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--no-leave-self-out" in proc.stdout
    assert "--weighting" in proc.stdout
