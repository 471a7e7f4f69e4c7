import numpy as np
import pytest
from hypothesis import given, strategies as st

from pemskit.errors import ConfigError, DataError
from pemskit.ingest import (
    PREDICTORS,
    Dataset,
    load_dataset,
    read_csv,
    to_csv,
    validate,
    write_year_files,
)

HEADER = "AT,AP,AH,AFDP,TIT,TAT,TEP,TEY,CDP,NOX"
ROW_A = "17.0,1013.0,77.0,4.0,1086.0,546.0,25.0,134.0,12.0,65.0"
ROW_B = "20.0,1010.0,60.0,4.5,1090.0,545.0,26.0,140.0,12.5,70.0"


def _write(path, header=HEADER, rows=(ROW_A, ROW_B)):
    path.write_text("\n".join([header, *rows]) + "\n")


def test_load_single_year(tmp_path):
    _write(tmp_path / "gt_2011.csv")
    ds = load_dataset(tmp_path, [2011])
    assert ds.n_records == 2
    assert ds.years == (2011,)
    assert not ds.has_co
    assert ds.column("at")[1] == 20.0
    assert ds.column("nox")[0] == 65.0
    assert np.array_equal(ds.year, np.array([2011, 2011]))


def test_alternate_spellings_map_to_same_sensors(tmp_path):
    _write(tmp_path / "gt_2011.csv")
    alt = HEADER.replace("TAT", "TET").replace("TEP", "GTEP")
    _write(tmp_path / "gt_2012.csv", header=alt)
    ds = load_dataset(tmp_path, [2011, 2012])
    assert np.array_equal(ds.for_year(2011).column("tat"),
                          ds.for_year(2012).column("tat"))
    assert np.array_equal(ds.for_year(2011).column("tep"),
                          ds.for_year(2012).column("tep"))


def test_header_case_and_whitespace_tolerated(tmp_path):
    _write(tmp_path / "gt_2011.csv", header=" at ,Ap,AH,afdp,TiT,tat,tep,tey,cdp,NOx")
    ds = load_dataset(tmp_path, [2011])
    assert ds.column("tit")[0] == 1086.0


def test_duplicate_alias_rejected(tmp_path):
    # TAT and TET are the same sensor; both in one header is ambiguous
    _write(tmp_path / "gt_2011.csv", header=HEADER + ",TET",
           rows=(ROW_A + ",546.0",))
    with pytest.raises(DataError, match="both map to 'tat'"):
        load_dataset(tmp_path, [2011])


def test_missing_column_named_in_error(tmp_path):
    _write(tmp_path / "gt_2011.csv",
           header=HEADER.replace(",NOX", ""),
           rows=(ROW_A.rsplit(",", 1)[0],))
    with pytest.raises(DataError, match="missing required column.*NOX"):
        load_dataset(tmp_path, [2011])


def test_non_numeric_cell_reports_coordinates(tmp_path):
    bad = ROW_B.replace("1090.0", "oops")
    _write(tmp_path / "gt_2011.csv", rows=(ROW_A, bad))
    with pytest.raises(DataError, match=r"gt_2011\.csv: row 2, column TIT"):
        load_dataset(tmp_path, [2011])


def test_non_finite_cell_rejected(tmp_path):
    _write(tmp_path / "gt_2011.csv", rows=(ROW_A.replace("65.0", "nan"),))
    with pytest.raises(DataError, match="row 1, column NOX.*non-finite"):
        load_dataset(tmp_path, [2011])


def test_short_row_rejected(tmp_path):
    _write(tmp_path / "gt_2011.csv", rows=(ROW_A, "17.0,1013.0"))
    with pytest.raises(DataError, match="row 2 has only 2 column"):
        load_dataset(tmp_path, [2011])


def test_blank_lines_skipped(tmp_path):
    _write(tmp_path / "gt_2011.csv", rows=(ROW_A, "", "  ,  ", ROW_B))
    assert load_dataset(tmp_path, [2011]).n_records == 2


def test_empty_file_rejected(tmp_path):
    (tmp_path / "gt_2011.csv").write_text("")
    with pytest.raises(DataError, match="file is empty"):
        load_dataset(tmp_path, [2011])


def test_missing_year_file_and_directory(tmp_path):
    with pytest.raises(DataError, match="no CSV for year 2011"):
        load_dataset(tmp_path, [2011])
    with pytest.raises(DataError, match="data directory not found"):
        load_dataset(tmp_path / "absent", [2011])


def test_fallback_glob_and_ambiguity(tmp_path):
    _write(tmp_path / "turbine_2011_hourly.csv")
    assert load_dataset(tmp_path, [2011]).n_records == 2
    _write(tmp_path / "other_2011.csv")
    with pytest.raises(DataError, match="ambiguous files for year 2011"):
        load_dataset(tmp_path, [2011])


def test_no_years_requested_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_dataset(tmp_path, [])


def test_co_kept_only_when_every_year_has_it(tmp_path):
    _write(tmp_path / "gt_2011.csv", header=HEADER + ",CO",
           rows=(ROW_A + ",2.0", ROW_B + ",2.5"))
    assert load_dataset(tmp_path, [2011]).has_co
    _write(tmp_path / "gt_2012.csv")
    ds = load_dataset(tmp_path, [2011, 2012])
    assert not ds.has_co


def test_years_load_in_ascending_order(tmp_path):
    _write(tmp_path / "gt_2012.csv", rows=(ROW_B,))
    _write(tmp_path / "gt_2011.csv", rows=(ROW_A,))
    ds = load_dataset(tmp_path, [2012, 2011])
    assert ds.years == (2011, 2012)
    assert list(ds.year) == [2011, 2012]


def test_dataset_accessors(tiny_ds):
    assert tiny_ds.n_records == 80
    m = tiny_ds.matrix(["at", "nox"])
    assert m.shape == (80, 2)
    m[0, 0] = 1e9  # matrix() is a copy; the dataset must not change
    assert tiny_ds.column("at")[0] != 1e9
    with pytest.raises(DataError, match="unknown variable 'bogus'"):
        tiny_ds.column("bogus")
    with pytest.raises(DataError, match="year 1999 not present"):
        tiny_ds.for_year(1999)
    sub = tiny_ds.for_year(2012)
    assert sub.years == (2012,)
    assert sub.n_records == 40


def test_columns_are_read_only(tiny_ds):
    with pytest.raises(ValueError):
        tiny_ds.column("at")[0] = 0.0


def test_record_round_trips_values(tiny_ds):
    rec = tiny_ds.record(3)
    assert rec.year == 2011
    assert rec.co is None
    for name in PREDICTORS:
        assert rec.predictor(name) == tiny_ds.column(name)[3]
    assert rec.nox == tiny_ds.column("nox")[3]
    assert sum(1 for _ in tiny_ds.iter_records()) == 80


def test_validate_flags_each_rule():
    n = 6
    cols = {name: np.full(n, 10.0) for name in PREDICTORS + ("nox",)}
    cols["ah"] = np.array([50.0, 101.0, -1.0, 100.0, 0.0, 50.0])
    cols["ap"] = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    cols["tey"] = np.array([1.0, 1.0, 1.0, -2.0, 1.0, 1.0])
    cols["nox"] = np.array([0.0, 1.0, 1.0, 1.0, -0.5, np.nan])
    year = np.array([2011] * 5 + [2035], dtype=np.int64)
    ds = Dataset(cols, year, (2011,))
    report = validate(ds)
    assert report.rows_checked == n
    counts = report.counts_by_rule()
    assert counts["humidity out of range"] == 2
    assert counts["non-positive ambient pressure"] == 1
    assert counts["non-positive energy yield"] == 1
    assert counts["negative NOx"] == 1
    assert counts["non-finite value"] == 1
    assert counts["year not declared"] == 1
    assert report.n_violations == 7
    v = next(x for x in report.violations if x.rule == "negative NOx")
    assert (v.row, v.variable, v.value) == (4, "nox", -0.5)


def test_validate_clean_dataset(iid_ds):
    assert validate(iid_ds).n_violations == 0


def test_to_csv_read_csv_round_trip(tmp_path, tiny_ds):
    path = tmp_path / "export.csv"
    to_csv(tiny_ds, path)
    back = read_csv(path)
    assert back == tiny_ds
    # bit-exact floats survive the repr round trip
    assert np.array_equal(back.column("nox"), tiny_ds.column("nox"))


def test_read_csv_requires_year_column(tmp_path):
    _write(tmp_path / "flat.csv")
    with pytest.raises(DataError, match="YEAR"):
        read_csv(tmp_path / "flat.csv")
    with pytest.raises(DataError, match="file not found"):
        read_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("cell", ["inf", "1e400", "2011.7", "x", ""])
def test_read_csv_rejects_bad_year_cells(tmp_path, cell):
    _write(tmp_path / "export.csv", header=HEADER + ",YEAR",
           rows=(ROW_A + ",2011", ROW_B + "," + cell))
    with pytest.raises(DataError, match="row 2, column YEAR"):
        read_csv(tmp_path / "export.csv")


@pytest.mark.parametrize("cell", [b"\xff", b"9" * 200_000],
                         ids=["undecodable", "oversized"])
def test_undecodable_or_oversized_cell_rejected(tmp_path, cell):
    (tmp_path / "gt_2011.csv").write_bytes(
        f"{HEADER}\n{ROW_A[:-4]}".encode() + cell + b"\n")
    with pytest.raises(DataError, match="gt_2011.csv: unreadable CSV"):
        load_dataset(tmp_path, [2011])


# Cells as a file might hold them: numbers in every spelling, words,
# and arbitrary text, including commas, quotes and line breaks.
_CELL = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "2011", "2011.0",
                     "2011.7", "1e19", "0x10", "1_0", '"', ","]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@given(cells=st.lists(_CELL, min_size=22, max_size=22))
def test_fuzzed_year_file_cells_load_or_raise_data_error(cells,
                                                         tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "fuzz_year_file"
    root.mkdir(exist_ok=True)
    rows = (",".join(cells[:11]), ",".join(cells[11:]))
    (root / "gt_2011.csv").write_text(
        "\n".join([HEADER + ",CO", *rows]) + "\n", encoding="utf-8")
    try:
        assert isinstance(load_dataset(root, [2011]), Dataset)
    except DataError:
        pass


@given(years=st.lists(_CELL, min_size=1, max_size=3))
def test_fuzzed_export_year_cells_load_or_raise_data_error(years,
                                                           tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz_export.csv"
    _write(path, header=HEADER + ",YEAR",
           rows=[f"{ROW_A},{y}" for y in years])
    try:
        assert isinstance(read_csv(path), Dataset)
    except DataError:
        pass


def test_write_year_files_round_trip(tmp_path, turbine_ds):
    paths = write_year_files(turbine_ds, tmp_path / "data")
    assert [p.name for p in paths] == [f"gt_{y}.csv" for y in turbine_ds.years]
    back = load_dataset(tmp_path / "data", turbine_ds.years)
    assert back == turbine_ds
