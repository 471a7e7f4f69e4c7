"""Loading and writing of hourly turbine telemetry CSVs.

One CSV per year, one header row, decimal-point numbers.  Column names
are mapped through an alias table because the public files and the
engineering literature spell two sensors differently: the exhaust
pressure appears as GTEP or TEP and the exhaust temperature as TAT or
TET.  Internally everything uses the canonical lowercase names.

Rows with a non-numeric or non-finite required cell are rejected at
load time with their coordinates; no imputation is attempted.  A year
file with a header but no data rows is rejected too.  The year comes
from the file's name; a YEAR column, like any column the alias table
does not name, is not read.  One writer writes the per-year files.

The reader maps the header with ``csv``, then parses the body's numeric
columns in one ``np.loadtxt`` call (numpy's C parser, correctly rounded
like ``float()``) and checks finiteness on whole arrays.  When that
parse fails, the check fails, or the body holds what the C parser reads
differently from ``csv`` and ``float()`` (quotes, NUL, the U+001C..U+001F
separators, an over-long line), a per-cell pass with ``csv`` and
``float()`` reads the file instead.  It accepts what the C parser
refused (quoted cells, blank rows, ``1_0``) or raises the DataError that
names the row, column and cell.  So the set of accepted files, their
values and the error messages do not depend on which path ran.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError

#: Canonical predictor order, also the written column order.
PREDICTORS = ("at", "ap", "ah", "afdp", "tit", "tat", "tep", "tey", "cdp")

WEATHER_PREDICTORS = ("at", "ap", "ah")
PROCESS_PREDICTORS = ("afdp", "tit", "tat", "tep", "tey", "cdp")

TARGET = "nox"
OPTIONAL_TARGET = "co"

#: Uppercase header spelling -> canonical name.  TET/TAT and GTEP/TEP
#: are alternate spellings of the same sensors.
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
}

REQUIRED = PREDICTORS + (TARGET,)


def resolve_predictors(names: Sequence[str] | None = None,
                       target: str | None = None) -> tuple[str, ...]:
    """``names`` as a tuple, PREDICTORS when None; ConfigError if the
    list is empty, names a predictor twice, or holds the target."""
    names = PREDICTORS if names is None else tuple(names)
    if not names:
        raise ConfigError("empty predictor list")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"predictor '{name}' is listed twice")
    if target is not None and target in names:
        raise ConfigError(f"target '{target}' is also a predictor")
    return names


def check_rows(rows, n_records: int) -> np.ndarray:
    """``rows`` as int64 record indices; ConfigError unless they form a
    1-D integer array within [0, n_records) (an empty one passes)."""
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ConfigError(f"rows must be 1-D, got shape {rows.shape}")
    if rows.size:
        if not np.issubdtype(rows.dtype, np.integer):
            raise ConfigError(f"rows must be integers, got {rows.dtype}")
        if rows.min() < 0 or rows.max() >= n_records:
            raise ConfigError(f"rows must lie in [0, {n_records}), got "
                              f"[{rows.min()}, {rows.max()}]")
    return rows.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
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
        return Dataset(cols, yr, tuple(sorted(set(yr.tolist()))))

    def for_year(self, year: int) -> "Dataset":
        if year not in self.years:
            raise DataError(f"year {year} not present (have {list(self.years)})")
        return self.subset(self.year == year)

    def record(self, i: int) -> dict[str, float | int]:
        """Row ``i`` as a mapping: each column's value as a float, in
        column order, then ``"year"`` as an int."""
        rec = {name: float(col[i]) for name, col in self.columns.items()}
        return rec | {"year": int(self.year[i])}



def _map_header(header: Sequence[str], path: Path) -> dict[str, int]:
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
    missing = [c for c in REQUIRED if c not in positions]
    if missing:
        raise DataError(f"{path.name}: header is missing required column(s) "
                        f"{', '.join(m.upper() for m in missing)}")
    return positions


#: Characters for which the C parse hands a body to the per-cell pass: a
#: quote (csv reads quoted cells, and a quoted comma would shift
#: loadtxt's columns), NUL (csv rejects it before Python 3.11), and
#: U+001C..U+001F, which numpy strips around a number and float() does not.
_CELL_PASS_CHARS = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_body(body: str, usecols: list[int]) -> np.ndarray | None:
    """The ``usecols`` cells of a header-less CSV body as a (column, row)
    float64 array, or None unless every row parses to finite numbers the
    way the per-cell pass would parse them."""
    if not body.strip() or any(c in body for c in _CELL_PASS_CHARS):
        return None
    # csv ends a record at \r, \n or \r\n; the empty line this makes of a
    # \r\n is skipped by both readers
    lines = body.replace("\r", "\n").split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols,
                           dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return table.T.copy() if np.isfinite(table).all() else None


def _read_cells(path: Path, names: Sequence[str],
                positions: dict[str, int]) -> dict[str, np.ndarray]:
    """The per-cell pass: ``float()`` on each named cell of each non-blank
    row, or the DataError that names the first bad row and column."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        out: dict[str, list[float]] = {n: [] for n in names}
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
    return {n: np.asarray(v, dtype=np.float64) for n, v in out.items()}


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    """The REQUIRED columns of one CSV, and CO when present, as float64
    arrays.  Each cell must be a finite number; otherwise DataError names
    the row and column.  numpy's C parser reads the body; when it
    declines, the per-cell pass decides, so both paths accept the same
    files, return the same values and raise the same messages."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path.name}: file is empty") from None
            positions = _map_header(header, path)
            names = list(REQUIRED) + ([OPTIONAL_TARGET] if OPTIONAL_TARGET in positions else [])
            try:
                table = _parse_body(fh.read(), [positions[n] for n in names])
            except UnicodeDecodeError:
                table = None    # the per-cell pass re-reads and names the bad bytes
        if table is None:
            return _read_cells(path, names, positions)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path.name}: unreadable CSV: {exc}") from None
    return dict(zip(names, table))


def load_dataset(data_dir: str | Path, years: Iterable[int]) -> Dataset:
    """Load the per-year CSVs for ``years`` into one year-tagged Dataset.

    Reads ``gt_<year>.csv`` in ``data_dir`` for each year.  The CO
    column is kept only when every requested file has it.
    """
    year_list = sorted(set(int(y) for y in years))
    if not year_list:
        raise ConfigError("no years requested")
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")

    per_year: list[tuple[int, dict[str, np.ndarray]]] = []
    for year in year_list:
        path = data_dir / f"gt_{year}.csv"
        if not path.is_file():
            raise DataError(f"no CSV for year {year} in {data_dir} "
                            f"(expected {path.name})")
        cols = _read_columns(path)
        if not len(cols[TARGET]):
            raise DataError(f"{path.name}: no data rows")
        per_year.append((year, cols))

    keep_co = all(OPTIONAL_TARGET in cols for _, cols in per_year)
    names = list(REQUIRED) + ([OPTIONAL_TARGET] if keep_co else [])
    columns = {n: np.concatenate([cols[n] for _, cols in per_year]) for n in names}
    year_tags = np.concatenate([np.full(len(cols[TARGET]), yr, dtype=np.int64)
                                for yr, cols in per_year])
    return Dataset(columns, year_tags, tuple(year_list))


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


def write_year_files(ds: Dataset, data_dir: str | Path) -> list[Path]:
    """Write one canonical per-year CSV, ``gt_<year>.csv``, per year:
    predictors, NOX, [CO]; returns the paths."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    names = list(REQUIRED) + ([OPTIONAL_TARGET] if ds.has_co else [])
    paths = []
    for year in ds.years:
        part = ds.for_year(year)
        path = data_dir / f"gt_{year}.csv"
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([n.upper() for n in names])
            # repr round-trips floats exactly
            writer.writerows(zip(*(map(repr, part.column(n).tolist()) for n in names)))
        paths.append(path)
    return paths
