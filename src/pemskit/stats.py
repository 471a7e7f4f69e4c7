"""Univariate summaries, Pearson correlations, and high-NOx flagging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError
from .ingest import Dataset, TARGET, resolve_predictors

DEFAULT_BINS = 30
DEFAULT_HIGH_NOX_QUANTILE = 0.80


@dataclass(frozen=True)
class VariableSummary:
    name: str
    count: int
    mean: float
    std: float          # sample (n-1) standard deviation
    min: float
    max: float
    q1: float
    median: float
    q3: float
    histogram: tuple[tuple[float, float, int], ...]  # (bin_lower, bin_upper, count)


@dataclass(frozen=True)
class CorrelationMatrix:
    variables: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def value(self, a: str, b: str) -> float:
        i, j = self.variables.index(a), self.variables.index(b)
        return float(self.matrix[i, j])


def check_spread(ds: Dataset, variables: Sequence[str]) -> None:
    """DegenerateDataError naming the first variable whose sum of squared
    deviations from its mean overflows float64: no variance, histogram
    range or standardization of it can be computed."""
    if ds.n_records == 0:
        return
    for name in variables:
        col = ds.column(name)
        with np.errstate(over="ignore", invalid="ignore"):
            dev = col - col.mean()
            spread = float(np.dot(dev, dev))
        if not np.isfinite(spread):
            raise DegenerateDataError(
                f"variable '{name}' spans [{float(col.min())!r}, "
                f"{float(col.max())!r}]: its variance overflows float64")


def check_finite_spreads(names: Sequence[str], spreads: np.ndarray) -> None:
    """DegenerateDataError naming the first variable whose spread (a
    standard deviation or norm, computed under np.errstate) is not
    finite: its variance overflows float64."""
    for name, spread in zip(names, spreads):
        if not np.isfinite(spread):
            raise DegenerateDataError(
                f"variable '{name}': its variance overflows float64")


def _histogram(values: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return ((lo, hi, int(values.size)),)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(bins))


def summarize(ds: Dataset, variables: Sequence[str]) -> list[VariableSummary]:
    """One summary per named variable; DEFAULT_BINS equal-width bins over
    [min, max].

    ``variables`` is checked as resolve_predictors checks a list
    (ConfigError if it is empty or names a variable twice).

    The last bin is closed so the histogram counts sum to the record
    count.  A constant column collapses to a single occupied bin.
    """
    if ds.n_records == 0:
        raise DegenerateDataError("cannot summarize an empty dataset")
    names = resolve_predictors(variables)
    out = []
    for name in names:
        col = ds.column(name)
        with np.errstate(over="ignore", invalid="ignore"):
            std = float(col.std(ddof=1)) if col.size > 1 else 0.0
        check_finite_spreads((name,), (std,))
        q1, med, q3 = (float(q) for q in np.quantile(col, [0.25, 0.5, 0.75]))
        out.append(VariableSummary(
            name=name,
            count=int(col.size),
            mean=float(col.mean()),
            std=std,
            min=float(col.min()),
            max=float(col.max()),
            q1=q1, median=med, q3=q3,
            histogram=_histogram(col, DEFAULT_BINS),
        ))
    return out


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson coefficient of two equal-length vectors."""
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.dot(xc, xc)))
    sy = float(np.sqrt(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero-variance input to Pearson correlation")
    return float(np.dot(xc, yc) / (sx * sy))


def correlation_matrix(ds: Dataset,
                       variables: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson coefficients over all records.

    The result is exactly symmetric with a unit diagonal; entries are
    clipped to [-1, 1] to absorb last-ulp excursions.
    """
    names = resolve_predictors(variables)
    if ds.n_records < 2:
        raise DegenerateDataError("correlation needs at least 2 records")
    data = ds.matrix(names)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
        norms = np.sqrt((centered * centered).sum(axis=0))
    check_finite_spreads(names, norms)
    for i, n in enumerate(norms):
        if n == 0.0:
            raise DegenerateDataError(f"variable '{names[i]}' has zero variance")
    corr = gram(centered / norms)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(names, corr)


def gram(z: np.ndarray, divisor: float = 1.0) -> np.ndarray:
    """Gram product of z's columns over divisor, made exactly symmetric
    by averaging it with its transpose."""
    product = (z.T @ z) / divisor
    return (product + product.T) / 2.0


def eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in descending order, clamped at
    0, and its eigenvectors as columns, each signed so that its
    largest-magnitude entry (the first, on ties) is positive."""
    values, vectors = np.linalg.eigh(matrix)
    order = np.argsort(values)[::-1]
    vectors = vectors[:, order]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(order.size)]
    vectors[:, lead < 0.0] *= -1.0
    return np.maximum(values[order], 0.0), vectors


def flag_high_nox(ds: Dataset) -> np.ndarray:
    """Boolean mask of records with NOx strictly above its
    DEFAULT_HIGH_NOX_QUANTILE quantile."""
    nox = ds.column(TARGET)
    threshold = float(np.quantile(nox, DEFAULT_HIGH_NOX_QUANTILE))
    return nox > threshold
