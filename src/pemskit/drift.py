"""Process-change detection across years.

Two complementary views of drift:

* a correlation-matrix PCA fitted on a reference year, with later years
  projected through the same standardization and loadings, so that
  centroid movement in (PC1, PC2) space indicates a shifted operating
  regime;
* per-year ordinary-least-squares fits of compressor discharge pressure
  on turbine exhaust pressure, whose declining r-squared traces the
  weakening of a physical relationship over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError
from .ingest import Dataset, check_finite, resolve_predictors
from .stats import correlation_matrix, eigenpairs, standardize

# Exhaust pressure arrives in mbar; the discharge-pressure fit is
# conventionally reported with it rescaled to bar.
DEFAULT_TEP_SCALE = 0.001


@dataclass(frozen=True)
class PcaModel:
    """Correlation-matrix PCA: standardization parameters + eigenpairs.

    `loadings` holds eigenvectors as columns in descending eigenvalue
    order, each column signed so its largest-magnitude entry is
    positive.  Eigenvalues sum to the variable count (trace identity).
    """

    variables: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    eigenvalues: np.ndarray
    loadings: np.ndarray

    def __post_init__(self):
        for arr in (self.means, self.stds, self.eigenvalues, self.loadings):
            arr.setflags(write=False)

    @property
    def n_variables(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class LinearFit:
    intercept: float
    slope: float
    r_squared: float
    n: int


@dataclass(frozen=True)
class YearDrift:
    year: int
    centroid: tuple[float, float]
    displacement: float
    fit: LinearFit


@dataclass(frozen=True)
class DriftReport:
    reference_year: int
    years: tuple[YearDrift, ...]
    scores: np.ndarray = field(compare=False, repr=False)  # PC1, PC2 by row

    def __post_init__(self):
        self.scores.setflags(write=False)


def fit_pca(ds: Dataset, variables: Sequence[str] | None = None) -> PcaModel:
    """PCA of the correlation matrix of the given variables.

    Standardization uses means/stds (ddof=1) of the fitting data; they
    are retained so other data can be projected in the same frame.
    """
    names = resolve_predictors(variables)
    x = ds.matrix(names)
    if x.shape[0] <= len(names):
        raise DegenerateDataError(
            f"PCA needs more rows than variables ({x.shape[0]} <= {len(names)})")
    # raises on a zero spread; ds refused an overflowing one
    eigvals, eigvecs = eigenpairs(correlation_matrix(ds, names).matrix)
    means, stds = x.mean(axis=0), x.std(axis=0, ddof=1)
    for name, s in zip(names, stds):
        if s == 0.0:    # a subnormal sum of squares that / (n - 1) underflows
            raise DegenerateDataError(f"variable '{name}' has zero variance")
    return PcaModel(names, means, stds, eigvals, np.ascontiguousarray(eigvecs))


def project(model: PcaModel, ds: Dataset, n_components: int = 2) -> np.ndarray:
    """Score matrix of ds in the model's frame (model means/stds).

    DegenerateDataError names the first cell, in row order, more than
    2**960 standard deviations from the model's mean.  Below that no
    score of at most 16 variables, no sum of 2**31 scores and no distance
    between two of their means overflows float64.
    """
    if not 1 <= n_components <= model.n_variables:
        raise ConfigError(
            f"n_components must be in [1, {model.n_variables}], got {n_components}")
    z = standardize(ds.matrix(model.variables), model.means, model.stds)
    if not (-2.0**960 <= z.min() and z.max() <= 2.0**960):   # copies nothing
        far = np.flatnonzero(~(np.abs(z) <= 2.0**960))
        row, j = divmod(int(far[0]), model.n_variables)
        name = model.variables[j]
        raise DegenerateDataError(
            f"variable '{name}' of row {row} is {float(ds.column(name)[row])!r}, "
            "more than 2**960 standard deviations from the fitted mean: its "
            "scores would overflow float64")
    return z @ model.loadings[:, :n_components]


def linear_fit(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Simple OLS y = intercept + slope*x with r² = 1 − SSE/SST.

    x and y are finite 1-D arrays of one length (DataError otherwise),
    checked here for an overflowing variance: they pass no Dataset.
    SST = 0 (constant y) yields r² = 1: the flat line fits exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise DataError("x and y must be 1-D of one length, got shapes "
                        f"{x.shape} and {y.shape}")
    check_finite("x", x)
    check_finite("y", y)
    n = x.shape[0]
    if n < 2:
        raise DegenerateDataError(f"linear fit needs >= 2 rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        xm, ym = float(x.mean()), float(y.mean())
        sxx = float(((x - xm) ** 2).sum())
        sst = float(((y - ym) ** 2).sum())
    for axis, spread in (("x", sxx), ("y", sst)):
        if not math.isfinite(spread):
            raise DegenerateDataError(f"variable '{axis}': its variance overflows float64")
    if sxx == 0.0:
        raise DegenerateDataError("x has zero variance")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    sse = float((resid ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return LinearFit(intercept, slope, min(max(r2, 0.0), 1.0), n)


def yearly_fit(ds: Dataset, x: str = "tep", y: str = "cdp",
               x_unit_scale: float = 1.0) -> dict[int, LinearFit]:
    """Per-year OLS of y on x, with x multiplied by x_unit_scale."""
    if x_unit_scale <= 0.0 or not math.isfinite(x_unit_scale):
        raise ConfigError(f"x_unit_scale must be positive, got {x_unit_scale}")
    with np.errstate(over="ignore"):
        xs, ys = ds.column(x) * x_unit_scale, ds.column(y)
    fits: dict[int, LinearFit] = {}
    for year in ds.years:
        mine = ds.year == year
        if np.count_nonzero(mine) < 2:
            raise DegenerateDataError(f"year {year} has fewer than 2 rows")
        if not np.isfinite(xs[mine]).all():
            raise DegenerateDataError(f"year {year}: variable '{x}' times x_unit_scale "
                                      f"{x_unit_scale!r} overflows float64")
        try:
            fits[year] = linear_fit(xs[mine], ys[mine])
        except DegenerateDataError as exc:
            raise DegenerateDataError(f"year {year}: {exc}") from exc
    return fits


def drift_report(ds: Dataset, reference_year: int | None = None,
                 variables: Sequence[str] | None = None,
                 x_unit_scale: float = DEFAULT_TEP_SCALE) -> DriftReport:
    """Per-year (PC1, PC2) centroids in the reference year's frame plus
    the yearly cdp-on-tep fits.

    Displacement is the Euclidean distance of a year's centroid from the
    reference year's own centroid, so the reference year reports 0.
    """
    ref = reference_year if reference_year is not None else ds.years[0]
    if ref not in ds.years:
        raise ConfigError(f"reference year {ref} not in dataset years {ds.years}")
    names = resolve_predictors(variables)
    if len(names) < 2:
        raise ConfigError("the (PC1, PC2) centroids need at least 2 variables, "
                          f"got {len(names)}")
    model = fit_pca(ds.for_year(ref), names)
    fits = yearly_fit(ds, x_unit_scale=x_unit_scale)

    scores = project(model, ds, 2)
    centroids: dict[int, tuple[float, float]] = {}
    for year in ds.years:
        mine = scores[ds.year == year]
        centroids[year] = (float(mine[:, 0].mean()), float(mine[:, 1].mean()))
    ref_c = centroids[ref]

    rows = []
    for year in ds.years:
        c = centroids[year]
        disp = math.hypot(c[0] - ref_c[0], c[1] - ref_c[1])
        rows.append(YearDrift(year, c, disp, fits[year]))
    return DriftReport(ref, tuple(rows), scores)
