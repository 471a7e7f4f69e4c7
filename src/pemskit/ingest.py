"""Loading, validation, and re-export of hourly turbine telemetry CSVs.

One CSV per year, one header row, decimal-point numbers.  Column names
are mapped through an alias table because the public files and the
engineering literature spell two sensors differently: the exhaust
pressure appears as GTEP or TEP and the exhaust temperature as TAT or
TET.  Internally everything uses the canonical lowercase names.

Rows with a non-numeric or non-finite required cell are rejected at
load time with their coordinates; no imputation is attempted.  One
reader parses both the per-year files and the single-file export, and
one writer writes both.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import MAXYEAR, MINYEAR
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError

#: Canonical predictor order, also the re-export column order.
PREDICTORS = ("at", "ap", "ah", "afdp", "tit", "tat", "tep", "tey", "cdp")

WEATHER_PREDICTORS = ("at", "ap", "ah")
PROCESS_PREDICTORS = ("afdp", "tit", "tat", "tep", "tey", "cdp")

TARGET = "nox"
OPTIONAL_TARGET = "co"

#: Uppercase header spelling -> canonical name.  TET/TAT and GTEP/TEP
#: are alternate spellings of the same sensors.  Only the export needs
#: YEAR; the per-year files take the year from their name.
COLUMN_ALIASES = {
    "AT": "at",
    "AP": "ap",
    "AH": "ah",
    "AFDP": "afdp",
    "TIT": "tit",
    "TAT": "tat",
    "TET": "tat",
    "TEP": "tep",
    "GTEP": "tep",
    "TEY": "tey",
    "CDP": "cdp",
    "NOX": "nox",
    "CO": "co",
    "YEAR": "year",
}

REQUIRED = PREDICTORS + (TARGET,)

#: Canonical header used by to_csv, matching the documented export order.
EXPORT_HEADER = ("AT", "AP", "AH", "AFDP", "TIT", "TAT", "TEP", "TEY", "CDP", "NOX")


@dataclass(frozen=True)
class ObservationRecord:
    """One hourly reading: nine predictors, NOx, optional CO, year tag."""

    at: float
    ap: float
    ah: float
    afdp: float
    tit: float
    tat: float
    tep: float
    tey: float
    cdp: float
    nox: float
    year: int
    co: float | None = None

    def predictor(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar store of year-tagged observations.

    ``columns`` maps canonical variable names to read-only float arrays
    of equal length; ``year`` carries the per-record year tag.  Records
    keep their source-file order within each year, and years are laid
    out in ascending order.
    """

    columns: dict[str, np.ndarray]
    year: np.ndarray
    years: tuple[int, ...]
    variable_names: tuple[str, ...] = PREDICTORS

    def __post_init__(self):
        for arr in self.columns.values():
            arr.setflags(write=False)
        self.year.setflags(write=False)

    @property
    def n_records(self) -> int:
        return int(self.year.shape[0])

    @property
    def has_co(self) -> bool:
        return OPTIONAL_TARGET in self.columns

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"unknown variable '{name}'") from None

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Records-by-variables matrix for the named columns (a copy)."""
        return np.column_stack([self.column(n) for n in names])

    def subset(self, index) -> "Dataset":
        """New Dataset holding the rows selected by a mask or index array."""
        cols = {k: v[index].copy() for k, v in self.columns.items()}
        yr = self.year[index].copy()
        years = tuple(sorted(set(int(y) for y in yr)))
        return Dataset(cols, yr, years, self.variable_names)

    def for_year(self, year: int) -> "Dataset":
        if year not in self.years:
            raise DataError(f"year {year} not present (have {list(self.years)})")
        return self.subset(self.year == year)

    def record(self, i: int) -> ObservationRecord:
        kwargs = {name: float(self.columns[name][i]) for name in REQUIRED}
        if self.has_co:
            kwargs["co"] = float(self.columns["co"][i])
        return ObservationRecord(year=int(self.year[i]), **kwargs)

    def iter_records(self) -> Iterator[ObservationRecord]:
        for i in range(self.n_records):
            yield self.record(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.years != other.years or set(self.columns) != set(other.columns):
            return False
        if not np.array_equal(self.year, other.year):
            return False
        return all(np.array_equal(v, other.columns[k]) for k, v in self.columns.items())


@dataclass(frozen=True)
class Violation:
    row: int
    variable: str
    rule: str
    value: float


@dataclass
class ValidationReport:
    rows_checked: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return counts


def _candidate_files(data_dir: Path, year: int) -> list[Path]:
    names = [data_dir / f"gt_{year}.csv", data_dir / f"{year}.csv"]
    found = [p for p in names if p.is_file()]
    if found:
        return found[:1]
    globbed = sorted(p for p in data_dir.glob(f"*{year}*.csv") if p.is_file())
    return globbed


def _map_header(header: Sequence[str], path: Path,
                required: Sequence[str]) -> dict[str, int]:
    """Map canonical names to column positions, checking for duplicates."""
    positions: dict[str, int] = {}
    for idx, raw in enumerate(header):
        name = raw.strip().lstrip("\ufeff").upper()
        canon = COLUMN_ALIASES.get(name)
        if canon is None:
            continue
        if canon in positions:
            raise DataError(f"{path.name}: columns {header[positions[canon]]!r} and {raw!r} "
                            f"both map to '{canon}'")
        positions[canon] = idx
    missing = [c for c in required if c not in positions]
    if missing:
        raise DataError(f"{path.name}: header is missing required column(s) "
                        f"{', '.join(m.upper() for m in missing)}")
    return positions


def _read_columns(path: Path, required: Sequence[str]) -> dict[str, list[float]]:
    """The ``required`` columns of one CSV, and CO when present.  Each cell
    must be a finite number, and a YEAR cell a whole year in [MINYEAR,
    MAXYEAR]; otherwise DataError names the row and column."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path.name}: file is empty") from None
            positions = _map_header(header, path, required)
            names = list(required) + ([OPTIONAL_TARGET] if OPTIONAL_TARGET in positions else [])
            out: dict[str, list[float]] = {n: [] for n in names}
            fields = [(n, positions[n], out[n]) for n in names]
            years = out.get("year")
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
                if years is not None and not (years[-1].is_integer()
                                              and MINYEAR <= years[-1] <= MAXYEAR):
                    raise DataError(f"{path.name}: row {row_no}, column YEAR: expected a "
                                    f"whole year, got {row[positions['year']]!r}")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path.name}: unreadable CSV: {exc}") from None
    return out


def load_dataset(data_dir: str | Path, years: Iterable[int]) -> Dataset:
    """Load the per-year CSVs for ``years`` into one year-tagged Dataset.

    Looks for ``gt_<year>.csv`` or ``<year>.csv`` in ``data_dir`` (a
    unique ``*<year>*.csv`` is accepted as a fallback).  The CO column
    is kept only when every requested file has it.
    """
    year_list = sorted(set(int(y) for y in years))
    if not year_list:
        raise ConfigError("no years requested")
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")

    per_year: list[tuple[int, dict[str, list[float]]]] = []
    for year in year_list:
        candidates = _candidate_files(data_dir, year)
        if not candidates:
            raise DataError(f"no CSV for year {year} in {data_dir} "
                            f"(tried gt_{year}.csv, {year}.csv, *{year}*.csv)")
        if len(candidates) > 1:
            raise DataError(f"ambiguous files for year {year}: "
                            f"{', '.join(p.name for p in candidates)}")
        per_year.append((year, _read_columns(candidates[0], REQUIRED)))

    keep_co = all(OPTIONAL_TARGET in cols for _, cols in per_year)
    names = list(REQUIRED) + ([OPTIONAL_TARGET] if keep_co else [])
    columns = {n: np.concatenate([np.asarray(cols[n], dtype=np.float64)
                                  for _, cols in per_year]) if per_year else np.empty(0)
               for n in names}
    year_tags = np.concatenate([np.full(len(cols[TARGET]), yr, dtype=np.int64)
                                for yr, cols in per_year])
    return Dataset(columns, year_tags, tuple(year_list))


def validate(ds: Dataset) -> ValidationReport:
    """Report every invariant violation in ``ds`` without modifying it.

    Violations are data, not errors: out-of-range humidity, non-positive
    pressures/yield, negative NOx, non-finite values, unknown year tags.
    """
    report = ValidationReport(rows_checked=ds.n_records)
    rules = [
        ("ah", "humidity out of range", lambda v: (v < 0.0) | (v > 100.0)),
        ("ap", "non-positive ambient pressure", lambda v: v <= 0.0),
        ("cdp", "non-positive compressor discharge pressure", lambda v: v <= 0.0),
        ("tey", "non-positive energy yield", lambda v: v <= 0.0),
        ("nox", "negative NOx", lambda v: v < 0.0),
    ]
    for name in list(REQUIRED) + (["co"] if ds.has_co else []):
        col = ds.column(name)
        for row in np.flatnonzero(~np.isfinite(col)):
            report.violations.append(Violation(int(row), name, "non-finite value",
                                               float(col[row])))
    for name, rule, pred in rules:
        col = ds.column(name)
        finite = np.isfinite(col)
        for row in np.flatnonzero(pred(col) & finite):
            report.violations.append(Violation(int(row), name, rule, float(col[row])))
    year_set = set(ds.years)
    for row in np.flatnonzero([int(y) not in year_set for y in ds.year]):
        report.violations.append(Violation(int(row), "year", "year not declared",
                                           float(ds.year[row])))
    return report


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Write UTF-8 text to a temporary file beside ``path`` that replaces
    ``path`` only if the block succeeds; on failure it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(ds: Dataset, path: Path, with_year: bool) -> None:
    """The canonical CSV of ``ds``: predictors, NOX, [CO], [YEAR]."""
    names = list(REQUIRED) + (["co"] if ds.has_co else [])
    header = list(EXPORT_HEADER) + (["CO"] if ds.has_co else [])
    # repr round-trips floats exactly
    columns: list[Iterable] = [map(repr, ds.column(n).tolist()) for n in names]
    if with_year:
        header.append("YEAR")
        columns.append(ds.year.tolist())
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def to_csv(ds: Dataset, path: str | Path) -> None:
    """Write the canonical single-file export: predictors, NOX, [CO], YEAR."""
    _write_csv(ds, Path(path), with_year=True)


def read_csv(path: str | Path) -> Dataset:
    """Read back a canonical export produced by :func:`to_csv`."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"file not found: {path}")
    cols = _read_columns(path, REQUIRED + ("year",))
    year = np.asarray(cols.pop("year")).astype(np.int64)
    columns = {n: np.asarray(v, dtype=np.float64) for n, v in cols.items()}
    return Dataset(columns, year, tuple(np.unique(year).tolist()))


def write_year_files(ds: Dataset, data_dir: str | Path,
                     pattern: str = "gt_{year}.csv") -> list[Path]:
    """Write one canonical per-year CSV per year; returns the paths."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for year in ds.years:
        path = data_dir / pattern.format(year=year)
        _write_csv(ds.for_year(year), path, with_year=False)
        paths.append(path)
    return paths
