"""Univariate summaries, Pearson correlations, and high-NOx flagging, on
columns whose means and spreads the Dataset has found cannot overflow."""

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


def _histogram(values: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return ((lo, hi, int(values.size)),)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(bins))


def quantiles(x: np.ndarray, qs: Sequence[float]) -> list[float]:
    """np.quantile(x, qs) of a non-empty 1-D float64 array of finite
    values, qs in [0, 1], bit for bit: numpy's default linear method,
    done here so that no np.unique call imports numpy.ma.

    The same set of ranks goes to ndarray.partition, so a tie of 0.0 and
    -0.0 lands as numpy's does; gamma is taken from the lower rank after
    clipping (at n = 1, -0.0 stays -0.0), and the interpolation is
    numpy's two-sided one."""
    n = x.shape[0]
    virtual = (n - 1) * np.asarray(qs, dtype=np.float64)
    lower = np.floor(virtual)
    upper = lower + 1.0
    top = virtual >= n - 1      # the largest value, at rank -1
    lower[top] = upper[top] = -1.0
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    ranks = sorted({0, -1, *lower.tolist(), *upper.tolist()})
    ordered = x.copy()
    ordered.partition(np.array(ranks, dtype=np.intp))
    a, b = ordered[lower], ordered[upper]
    gamma = virtual - lower
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1.0 - gamma), out=out, where=gamma >= 0.5)
    return out.tolist()


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
        std = float(col.std(ddof=1)) if col.size > 1 else 0.0
        q1, med, q3 = quantiles(col, (0.25, 0.5, 0.75))
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


def correlation_matrix(ds: Dataset,
                       variables: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson coefficients over all records.

    The result is exactly symmetric with a unit diagonal; entries are
    clipped to [-1, 1] to absorb last-ulp excursions.
    """
    names = resolve_predictors(variables)
    if ds.n_records < 2:
        raise DegenerateDataError("correlation needs at least 2 records")
    z = ds.matrix(names)    # a copy: centered and scaled in place
    z -= z.mean(axis=0)
    norms = np.sqrt((z * z).sum(axis=0))
    for i, n in enumerate(norms):
        if n == 0.0:
            raise DegenerateDataError(f"variable '{names[i]}' has zero variance")
    z /= norms
    corr = gram(z)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(names, corr)


def standardize(x: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """x -= means; x /= stds, in place on an x the caller owns, rounding as
    (x - means) / stds does; returns x, where a far value may be ±inf."""
    with np.errstate(over="ignore"):
        x -= means
        x /= stds
    return x


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
    threshold, = quantiles(nox, (DEFAULT_HIGH_NOX_QUANTILE,))
    return nox > threshold
