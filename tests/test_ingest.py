import csv
import math
import re

import numpy as np
import pytest
from conftest import same_dataset
from hypothesis import given, settings, strategies as st

from pemskit import ingest
from pemskit.drift import drift_report, fit_pca
from pemskit.errors import ConfigError, DataError, DegenerateDataError
from pemskit.ingest import (
    OPTIONAL_TARGET,
    PREDICTORS,
    REQUIRED,
    Dataset,
    load_dataset,
    write_year_files,
)
from pemskit.knn import compare_pooled_vs_yearly, fit_knn, split
from pemskit.screening import (ForestConfig, fit_regression_tree,
                               screen_predictors)
from pemskit.stats import correlation_matrix, summarize
from pemskit.synthetic import make_dataset
from pemskit.varclus import cluster_variables

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


@pytest.mark.parametrize("extra", [",YEAR", ",YEAR,YEAR"], ids=["one", "two"])
def test_a_year_column_is_not_read(tmp_path, extra):
    # the year comes from the file name; YEAR cells may hold anything
    cells = [",x", ",2011.7"] if extra == ",YEAR" else [",x,2011.7", ",2011.7,"]
    _write(tmp_path / "gt_2013.csv", header=HEADER + extra,
           rows=(ROW_A + cells[0], ROW_B + cells[1]))
    ds = load_dataset(tmp_path, [2013])
    assert ds.years == (2013,)
    assert ds.year.tolist() == [2013, 2013]
    assert "year" not in ds.columns
    assert ds.column("nox").tolist() == [65.0, 70.0]


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


@pytest.mark.parametrize("rows", [(), ("",), ("", "  ,  ", " , , ")],
                         ids=["header-only", "one-blank-line", "blank-rows"])
def test_a_year_file_without_data_rows_is_rejected(tmp_path, rows):
    _write(tmp_path / "gt_2011.csv")
    _write(tmp_path / "gt_2012.csv", rows=rows)
    with pytest.raises(DataError, match=r"^gt_2012\.csv: no data rows$"):
        load_dataset(tmp_path, [2011, 2012])


def test_missing_year_file_and_directory(tmp_path):
    with pytest.raises(DataError, match="no CSV for year 2011"):
        load_dataset(tmp_path, [2011])
    with pytest.raises(DataError, match="data directory not found"):
        load_dataset(tmp_path / "absent", [2011])


@pytest.mark.parametrize("name", ["2011.csv", "plant_2011.csv"])
def test_only_gt_year_csv_is_read(tmp_path, name):
    _write(tmp_path / name)
    with pytest.raises(DataError, match=r"^no CSV for year 2011 in .* "
                                        r"\(expected gt_2011\.csv\)$"):
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("name", ["at", "nox"])
def test_a_dataset_refuses_a_non_finite_cell_by_name(tiny_ds, name, value):
    # checked once, when the Dataset is made: no analysis meets the cell,
    # and it is a DataError, as the CSV reader calls it
    col = tiny_ds.column(name).copy()
    col[[3, 5]] = value
    with pytest.raises(DataError, match=rf"^variable '{name}': non-finite "
                                        rf"value {value!r} in record 3$"):
        Dataset({**tiny_ds.columns, name: col}, tiny_ds.year, tiny_ds.years)


@pytest.mark.parametrize("name", ["at", "nox", "co"])
def test_a_dataset_refuses_a_column_whose_spread_overflows(name):
    # finite cells whose squared deviations overflow float64, in a column
    # an analysis reads or not: no variance of it can be computed
    ds = make_dataset(years=(2011, 2012), rows_per_year=5, seed=2,
                      include_co=True)
    col = ds.column(name).copy()
    col[[3, 6]] = (1.5e308, -1.5e308)
    with pytest.raises(DegenerateDataError,
                       match=rf"^variable '{name}' spans \[-1.5e\+308, "
                             rf"1.5e\+308\]: its variance overflows float64$"):
        Dataset({**ds.columns, name: col}, ds.year, ds.years)


def test_a_dataset_names_a_mean_that_overflows():
    # the variance is 0, but the cells' sum, 1e309, has no float64
    with pytest.raises(DegenerateDataError,
                       match=r"^variable 'at' spans \[1e\+306, 1e\+306\]: "
                             r"its mean overflows float64$"):
        Dataset({"at": np.full(1000, 1e306)}, np.full(1000, 2011), (2011,))


def _edge_dataset(edge: str, seed: int) -> tuple[dict, np.ndarray, tuple]:
    """The columns, year tags and years of a 40-row synthetic dataset
    with one edge column: centred, with its squared deviations summing
    to within a few ulps ("ulps") or 2**-19 ("margin") of float64's
    largest value, or cells at most 2 ulps apart around 1e165..1e169
    ("offset"), whose mean can move by an ulp between summation orders."""
    rng = np.random.default_rng(seed)
    ds = make_dataset(years=(2011, 2012), rows_per_year=20, seed=seed)
    name = PREDICTORS[seed % len(PREDICTORS)]
    col = ds.column(name) - ds.column(name).mean()
    if edge == "offset":
        v = 10.0 ** rng.uniform(165, 169)
        col = v + rng.integers(-1, 2, col.size) * np.spacing(v)
    else:
        shy = (rng.integers(8) * 2.0**-52 if edge == "ulps"
               else rng.uniform(0, 2.0**-19))
        top = np.finfo(np.float64).max * (1 - shy)
        col = col * np.sqrt(top / np.dot(col, col))
    return {**ds.columns, name: col}, ds.year, ds.years


@pytest.mark.parametrize("edge", ["ulps", "margin", "offset"])
def test_no_analysis_meets_an_overflow_in_a_dataset_it_accepts(edge):
    # the Dataset is the one check of a column's spread: where it takes
    # an edge column, every analysis's means, spreads and standardized
    # values are finite, whatever order it sums in; warnings are errors
    accepted = 0
    for seed in range(50):
        try:
            ds = Dataset(*_edge_dataset(edge, seed))
        except DegenerateDataError as exc:
            assert str(exc).endswith(" overflows float64"), exc
            continue
        accepted += 1
        for s in summarize(ds, PREDICTORS):
            assert np.isfinite([s.mean, s.std, s.q1, s.q3, *(
                bound for low, high, _ in s.histogram for bound in (low, high))]).all()
        assert np.isfinite(correlation_matrix(ds).matrix).all()
        report = cluster_variables(ds)
        assert np.isfinite([c.eigenvalue1 for c in report.clusters]).all()
        assert np.isfinite([(r.r2_own, r.r2_next) for r in report.rows]).all()
        model = fit_knn(ds, split(ds, seed=seed))
        for arr in (model.means, model.stds, model.train_z):
            assert np.isfinite(arr).all()
        pca = fit_pca(ds)
        for arr in (pca.means, pca.stds, pca.eigenvalues, pca.loadings):
            assert np.isfinite(arr).all()
    # within a few ulps of float64's end, every column is refused
    assert (accepted == 0) if edge == "ulps" else accepted >= 10


def test_a_dataset_refuses_a_ragged_column(tiny_ds):
    with pytest.raises(DataError, match=r"^variable 'ah' has shape \(3,\), "
                                        r"the year tags \(80,\)$"):
        Dataset({**tiny_ds.columns, "ah": tiny_ds.column("ah")[:3]},
                tiny_ds.year, tiny_ds.years)


@pytest.mark.parametrize("years", [(2011,), (2011, 2012, 2013), (2012, 2011),
                                   ()], ids=["short", "long", "unsorted", "none"])
def test_a_dataset_refuses_years_that_are_not_its_year_tags(tiny_ds, years):
    # split would give the records of an unlisted year no partition code
    message = f"years {list(years)} are not the distinct year tags [2011, 2012]"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        Dataset(tiny_ds.columns, tiny_ds.year, years)


def test_a_dataset_takes_an_empty_or_one_row_column_without_a_warning():
    # an empty column has no mean, and one row has no spread to overflow
    # even at 1.75e308; warnings are errors here
    empty = Dataset({"at": np.empty(0)}, np.empty(0, dtype=np.int64), ())
    assert (empty.n_records, empty.years) == (0, ())
    one = Dataset({"at": np.array([1.75e308])}, np.array([2011]), (2011,))
    assert one.record(0) == {"at": 1.75e308, "year": 2011}


def test_record_round_trips_values(tiny_ds):
    rec = tiny_ds.record(3)
    assert rec["year"] == 2011
    assert "co" not in rec
    for name in PREDICTORS:
        assert rec[name] == tiny_ds.column(name)[3]
    assert rec["nox"] == tiny_ds.column("nox")[3]


@pytest.mark.parametrize("include_co", [False, True])
def test_record_holds_the_columns_in_order_and_the_year(include_co):
    ds = make_dataset(years=(2011, 2012), rows_per_year=5, seed=2,
                      include_co=include_co)
    assert ds.has_co is include_co
    for i in (0, 7):
        rec = ds.record(i)
        assert list(rec) == [*ds.columns, "year"]
        assert ("co" in rec) is include_co
        assert type(rec["year"]) is int and rec["year"] == ds.year[i]
        for name, col in ds.columns.items():
            assert type(rec[name]) is float and rec[name] == col[i]


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
    except DegenerateDataError as exc:
        # finite cells whose squared deviations overflow float64, such as
        # a CO column of 0.0 and 1.9e154, or whose sum does, such as two
        # cells of 1e308
        assert str(exc).endswith((": its variance overflows float64",
                                  ": its mean overflows float64")), exc


def test_write_year_files_round_trip(tmp_path, turbine_ds):
    paths = write_year_files(turbine_ds, tmp_path / "data")
    assert [p.name for p in paths] == [f"gt_{y}.csv" for y in turbine_ds.years]
    back = load_dataset(tmp_path / "data", turbine_ds.years)
    assert same_dataset(back, turbine_ds)


# ------------------------------------------------ the C parse vs float()

def _reference_read_columns(path):
    """The per-cell reader the C parse replaced, kept as the reference:
    every accepted file, value and error message must match it."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path.name}: file is empty") from None
            positions = ingest._map_header(header, path)
            names = list(REQUIRED) + ([OPTIONAL_TARGET] if OPTIONAL_TARGET in positions else [])
            out = {n: [] for n in names}
            fields = [(n, positions[n], out[n]) for n in names]
            for row_no, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                for name, idx, values in fields:
                    try:
                        cell = row[idx]
                    except IndexError:
                        raise DataError(f"{path.name}: row {row_no} has only {len(row)} "
                                        f"column(s), expected value for {name.upper()}") from None
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(f"{path.name}: row {row_no}, column {name.upper()}: "
                                        f"non-numeric value {cell!r}") from None
                    if not math.isfinite(value):
                        raise DataError(f"{path.name}: row {row_no}, column {name.upper()}: "
                                        f"non-finite value {cell!r}")
                    values.append(value)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path.name}: unreadable CSV: {exc}") from None
    return out


def _outcome(read, *args):
    """What a reader returns, or the message of the DataError it raises."""
    try:
        return read(*args)
    except DataError as exc:
        return f"DataError: {exc}"


_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**6, 10**6).map(str),
                    st.floats(-1e4, 1e4).map(lambda v: f" {v:.3f} "))
# Cells that the C parser refuses, or that it and csv + float() could
# read differently
ODD_CELLS = [
    '"1.5"', '"1,5"', '" 2 "', '""', "#1", "# 1", "1_0", "nan", "-inf",
    "inf", "1e400", "", " ", "2011.5", "0", "10000", "\ufeff1", "1\x1c",
    "\x1d1", "1\x1e", "\x1f2", "1\x00", "\u0661", "1\u2003", "1\x85",
    "+.5", "0x10", "x", "1.5e", "-0"]


@st.composite
def _csv_text(draw):
    """A CSV text: a header holding the required columns (maybe CO and an
    unknown NOTE) in any order, then numeric rows, numeric rows with one
    odd cell, rows of another length, and blank rows, joined by LF, CRLF
    or CR, maybe after a BOM."""
    names = [*REQUIRED]
    names += [n for n in (OPTIONAL_TARGET, "note") if draw(st.booleans())]
    names = draw(st.permutations(names))
    numeric = st.tuples(*[_NUMBER for _ in names]).map(list)
    odd = st.tuples(numeric, st.integers(0, len(names) - 1),
                    st.sampled_from(ODD_CELLS))
    rows = draw(st.lists(st.one_of(
        numeric,
        odd.map(lambda r: r[0][:r[1]] + [r[2]] + r[0][r[1] + 1:]),
        st.lists(_NUMBER, min_size=len(names) - 2, max_size=len(names) + 2),
        st.sampled_from([[], [""], [" ", " ", " "]])), max_size=6))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(n.upper() for n in names), *map(",".join, rows)]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + eol.join(lines) + (eol if draw(st.booleans()) else "")


def _write_text(tmp_path_factory, name, text):
    path = tmp_path_factory.getbasetemp() / name
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _assert_same(new, ref, what):
    # compared outside the assert: pytest's diff of two messages that
    # quote a 140k-character cell would take minutes
    same = new == ref
    assert same, f"{what}: {str(new)[:300]!r} != {str(ref)[:300]!r}"


def _assert_same_columns(new, ref):
    if isinstance(ref, str) or isinstance(new, str):
        _assert_same(new, ref, "outcome")
        return
    assert list(new) == list(ref)
    for name, values in ref.items():
        want = np.asarray(values, dtype=np.float64)
        assert new[name].dtype == want.dtype
        _assert_same(new[name].tobytes(), want.tobytes(), name)


@settings(max_examples=300)
@given(text=_csv_text())
def test_c_parse_matches_the_per_cell_reader(text, tmp_path_factory):
    path = _write_text(tmp_path_factory, "gt_2011.csv", text)
    _assert_same_columns(_outcome(ingest._read_columns, path),
                         _outcome(_reference_read_columns, path))


# Each odd cell in a column that is read, in YEAR (which is not read),
# and in an unknown column before the ones that are read (where a quoted
# comma would shift loadtxt's columns); plus cells longer than csv's
# field limit that float() reads as finite numbers.
@pytest.mark.parametrize("where", ["TIT", "YEAR", "NOTE"])
@pytest.mark.parametrize("cell", [*ODD_CELLS, "0." + "0" * 140_000 + "1",
                                  "1" + " " * 140_000],
                         ids=[*map(repr, ODD_CELLS), "long-zero", "long-one"])
def test_each_odd_cell_reads_as_the_per_cell_reader_reads_it(tmp_path, cell,
                                                             where):
    header = "NOTE," + HEADER + ",YEAR"
    rows = [f"n,{ROW_A},2011", f"n,{ROW_B},2012"]
    col = header.split(",").index(where)
    rows.append(",".join(cell if i == col else c
                         for i, c in enumerate(rows[0].split(","))))
    path = tmp_path / "gt_2011.csv"
    _write(path, header=header, rows=rows)
    _assert_same_columns(_outcome(ingest._read_columns, path),
                         _outcome(_reference_read_columns, path))


@pytest.mark.parametrize("rows", [
    ['"n,1",2,' + ROW_A, 'n,m,' + ROW_B],
    ["n,m," + ROW_A, '"n,m,' + ROW_B + '\n' + "n,m," + ROW_A + '",m,' + ROW_B],
], ids=["quoted-comma", "quoted-newline"])
def test_quoted_cells_of_unknown_columns_leave_the_rows_alone(tmp_path, rows):
    # the C parse splits inside quotes, so it would shift or add rows here
    path = tmp_path / "gt_2011.csv"
    _write(path, header="NOTE,MEMO," + HEADER, rows=rows)
    cols = ingest._read_columns(path)
    _assert_same_columns(cols, _reference_read_columns(path))
    assert cols["at"].tolist() == [17.0, 20.0]


def test_a_bad_byte_past_the_first_chunk_gets_the_same_message(tmp_path):
    path = tmp_path / "gt_2011.csv"
    path.write_bytes(f"{HEADER}\n".encode() + f"{ROW_A}\n".encode() * 300
                     + b"\xff\n")
    message = _outcome(_reference_read_columns, path)
    assert message.startswith("DataError: gt_2011.csv: unreadable CSV")
    assert _outcome(ingest._read_columns, path) == message


@pytest.mark.parametrize("eol, bom", [("\n", ""), ("\r\n", "\ufeff"), ("\r", "")],
                         ids=["lf", "crlf-bom", "cr"])
def test_a_plain_numeric_file_takes_the_c_parse(tmp_path, monkeypatch,
                                                turbine_ds, eol, bom):
    write_year_files(turbine_ds.for_year(2011), tmp_path)
    path = tmp_path / "gt_2011.csv"
    path.write_bytes((bom + eol.join(path.read_text().splitlines()) + eol)
                     .encode())
    want = _reference_read_columns(path)

    def refuse(*args):
        raise AssertionError("the per-cell pass ran")

    monkeypatch.setattr(ingest, "_read_cells", refuse)
    _assert_same_columns(ingest._read_columns(path), want)


# Each entry point that takes a predictor (or variable) list, called on
# a list; the ones with a target use "nox".
_TAKES_PREDICTORS = {
    "fit_knn": lambda ds, names: fit_knn(ds, split(ds), names),
    "compare_pooled_vs_yearly":
        lambda ds, names: compare_pooled_vs_yearly(ds, predictors=names),
    "fit_regression_tree": lambda ds, names: fit_regression_tree(
        ds, names, "nox", ForestConfig(n_trees=1)),
    "screen_predictors": lambda ds, names: screen_predictors(
        ds, names, cfg=ForestConfig(n_trees=1)),
    "cluster_variables": cluster_variables,
    "fit_pca": fit_pca,
    "drift_report": lambda ds, names: drift_report(ds, variables=names),
    "correlation_matrix": correlation_matrix,
    "summarize": lambda ds, names: summarize(ds, variables=names),
}
_WITH_TARGET = ("fit_knn", "compare_pooled_vs_yearly", "fit_regression_tree",
                "screen_predictors")


@pytest.mark.parametrize("entry", _TAKES_PREDICTORS)
def test_every_entry_point_resolves_a_predictor_list_alike(entry, tiny_ds,
                                                           knn_work):
    call = _TAKES_PREDICTORS[entry]
    with pytest.raises(ConfigError, match="^empty predictor list$"):
        call(tiny_ds, [])
    with pytest.raises(ConfigError,
                       match="^predictor 'at' is listed twice$"):
        call(tiny_ds, ["at", "at", "ap"])
    if entry in _WITH_TARGET:
        with pytest.raises(ConfigError,
                           match="^target 'nox' is also a predictor$"):
            call(tiny_ds, ["at", "nox"])
    # a list is rejected before any KNN model is fitted
    assert knn_work["fits"] == 0
    result = call(tiny_ds, None)    # None stands for PREDICTORS
    for names in ("predictors", "variables"):
        assert getattr(result, names, PREDICTORS) == PREDICTORS
