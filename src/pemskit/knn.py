"""Distance-weighted K-nearest-neighbor regression of NOx.

Seeded per-year stratified splitting, validation-RASE K selection,
pooled vs. per-year model comparison, metrics, residuals, and model
persistence.

Exactness contract: neighbor selection orders candidates by
(squared distance, training-row index), squared distances accumulate
per predictor in declared order, and each prediction is a left-to-right
fold over the selected neighbors.  Any brute-force reimplementation
following those three rules reproduces predictions bit for bit, which
is what the oracle-equivalence tests check.

The neighbor scan (_scan) keeps that contract behind a filter.  One
float32 BLAS matrix product per block of queries gives every squared
distance up to a rounding error that a Higham γₙ bound, with
u = 2**-24 and a term for float32 underflow, caps at E; past a cutoff
where float32 could overflow, every row is a candidate.  The rows that
could be among the k nearest, given E, are few, and only their
distances are computed, in float64 and in declared order, and ordered
as the contract says.  So the bytes do not depend on the BLAS kernel,
its summation order or its thread count.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from itertools import chain
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError
from .ingest import (Dataset, TARGET, atomic_open, check_rows,
                     resolve_predictors)
from .rng import SplitMix64, derive_seed
from .stats import check_finite_spreads, check_spread

PARTITIONS = ("Training", "Validation", "Test")
TOTAL = "Total"
DEFAULT_FRACTIONS = (0.70, 0.15, 0.15)
WEIGHTINGS = ("inverse_distance", "uniform")
MODEL_FORMAT_VERSION = 1


# ---------------------------------------------------------------- split

@dataclass(frozen=True)
class SplitAssignment:
    """Per-record partition codes (0/1/2 indexing PARTITIONS)."""

    codes: np.ndarray

    def __post_init__(self):
        self.codes.setflags(write=False)

    def rows(self, partition: str) -> np.ndarray:
        return np.nonzero(self.codes == PARTITIONS.index(partition))[0]

    def counts(self) -> dict[str, int]:
        return {name: int((self.codes == i).sum())
                for i, name in enumerate(PARTITIONS)}

    def labels(self) -> list[str]:
        return [PARTITIONS[c] for c in self.codes]


def _check_assignment(ds: Dataset, assignment: SplitAssignment) -> None:
    """ConfigError unless the assignment gives each record of ds a code."""
    if assignment.codes.shape[0] != ds.n_records:
        raise ConfigError(f"the split has {assignment.codes.shape[0]} "
                          f"codes for {ds.n_records} records")


def _partition_counts(n: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment; remainder ties go to the
    earlier partition."""
    exact = [f * n for f in fractions]
    counts = [math.floor(e) for e in exact]
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


def _check_fractions(fractions: Sequence[float]) -> tuple[float, float, float]:
    fr = tuple(float(f) for f in fractions)
    if len(fr) != len(PARTITIONS):
        raise ConfigError(f"expected {len(PARTITIONS)} fractions, got {len(fr)}")
    if any(f <= 0.0 or not math.isfinite(f) for f in fr):
        raise ConfigError(f"fractions must be positive, got {fr}")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fr)!r}")
    return fr


def split(ds: Dataset, fractions: Sequence[float] = DEFAULT_FRACTIONS,
          seed: int = 0) -> SplitAssignment:
    """Stratified Training/Validation/Test assignment.

    Within each year, rows are shuffled by a per-year stream
    (derive_seed(seed, year)) and dealt to partitions in order, with
    largest-remainder rounding of the per-partition counts.
    """
    fr = _check_fractions(fractions)
    codes = np.empty(ds.n_records, dtype=np.int64)
    for year in ds.years:
        rows = np.nonzero(ds.year == year)[0]
        if rows.shape[0] < len(PARTITIONS):
            raise DegenerateDataError(
                f"year {year} has {rows.shape[0]} rows, fewer than "
                f"{len(PARTITIONS)} partitions")
        order = rows.copy()
        SplitMix64(derive_seed(seed, year)).shuffle(order)
        counts = _partition_counts(rows.shape[0], fr)
        start = 0
        for code, c in enumerate(counts):
            codes[order[start:start + c]] = code
            start += c
    return SplitAssignment(codes)


# ---------------------------------------------------------------- model

@dataclass(frozen=True)
class KnnModel:
    predictors: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    train_z: np.ndarray       # standardized training matrix
    train_y: np.ndarray
    train_rows: np.ndarray    # original dataset row of each training row
    k: int
    weighting: str
    leave_self_out: bool

    def __post_init__(self):
        for arr in (self.means, self.stds, self.train_z, self.train_y,
                    self.train_rows):
            arr.setflags(write=False)

    @property
    def n_training(self) -> int:
        return int(self.train_z.shape[0])

    @cached_property
    def _train_aug(self):
        """_augment(train_z), built on first use: train_z is read-only."""
        return _augment(self.train_z)


def fit_knn(ds: Dataset, assignment: SplitAssignment,
            predictors: Sequence[str] | None = None, target: str = TARGET,
            k: int = 3, weighting: str = "inverse_distance",
            leave_self_out: bool = True) -> KnnModel:
    """Standardize on Training rows only and retain them for lookup."""
    _check_assignment(ds, assignment)
    names = resolve_predictors(predictors, target)
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    check_spread(ds, (target,))
    train_rows = assignment.rows("Training")
    n_train = train_rows.shape[0]
    if n_train == 0:
        raise DegenerateDataError("training partition is empty")
    if not 1 <= k <= n_train:
        raise ConfigError(f"k must be in [1, {n_train}], got {k}")
    x = ds.matrix(names)[train_rows]
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=0)
        stds = x.std(axis=0, ddof=1) if n_train > 1 else np.ones(len(names))
    check_finite_spreads(names, stds)
    for name, s in zip(names, stds):
        if s == 0.0:
            raise DegenerateDataError(
                f"predictor '{name}' has zero variance in the training partition")
    z = (x - means) / stds
    y = ds.column(target)[train_rows].copy()
    return KnnModel(names, means, stds, z, y, train_rows.copy(), k,
                    weighting, leave_self_out)


# ------------------------------------------------------ neighbor search

#: Queries per block of the filter: one matrix product gives the block's
#: approximate distances to every training row.
_BLOCK_QUERIES = 64

#: Chunks (interleaved column groups) per approximate distance row; the
#: k-th smallest chunk minimum bounds the k-th distance.  At least
#: _CHUNKS and k chunks are used, and more on large training sets, so
#: that a chunk holds about _CHUNK_ROWS rows.
_CHUNKS = 128
_CHUNK_ROWS = 64

#: Unit roundoff of float32, the filter's precision.
_U = 2.0 ** -24

#: Largest error of a float32 rounding that underflows: half the
#: smallest subnormal.
_ETA = 2.0 ** -150

#: From this 2M² on, every row is a candidate.  Below it no float32
#: input, term or partial sum of the filter comes near 2**128, where
#: float32 ends.
_F32_CUTOFF = 2.0 ** 100


def _self_positions(train_rows: np.ndarray, self_rows: np.ndarray) -> np.ndarray:
    """Training position of each query's own dataset row, or -1: a binary
    search of the training rows, which are distinct, in sorted order."""
    order = np.argsort(train_rows)
    at = np.searchsorted(train_rows, self_rows, sorter=order)
    pos = order[np.clip(at, 0, train_rows.shape[0] - 1)]
    return np.where(train_rows[pos] == self_rows, pos, -1)


def _augment(train_z):
    """The training side of _scan's filter: the rows [-2t, |t|², 1] as
    the columns of a float32 (p + 2) x n_t matrix, and the largest |t|.
    |t|² and that largest |t| are taken in float64, then |t|² rounded."""
    n_t, p = train_z.shape
    aug = np.empty((p + 2, n_t), np.float32)
    with np.errstate(over="ignore"):
        norms = np.einsum("ij,ij->i", train_z, train_z)
        np.multiply(train_z.T, -2.0, out=aug[:p])
        aug[p] = norms
    aug[p + 1] = 1.0
    return aug, math.sqrt(norms.max())


def _scan(train_z, q_z, own, k, train_aug):
    """Exact top-k neighbors of the standardised queries ``q_z`` by
    (squared distance, training index); ``own[i]`` is the training
    position query i may not use, or -1.  ``train_aug`` is
    ``_augment(train_z)``.

    The distance D of the contract accumulates per predictor in declared
    order: the first writes diff*diff (equal to 0.0 + diff*diff, as a
    square is never -0.0) and each later one adds its own.  Computing D
    for every training row is most of a scan, so a filter picks a few
    candidates per query first, and D is computed for those alone.

    Filter.  q, |q|², M and E below are formed once per call.  Each
    block of _BLOCK_QUERIES queries then takes one float32 matrix
    product of the rows a = [q, 1, |q|²] and b = [-2t, |t|², 1], which
    gives G ≈ |q - t|² for every pair, and then the chunk minima, the
    candidates and the refine below.  q, t, |q|² and |t|² are float64
    (the norms summed in float64) rounded to float32.  Let M = |q| +
    max|t|, u = 2**-24 and η = 2**-150.  Under IEEE gradual underflow a
    float32 rounding of x errs by at most u·|x| when the result is
    normal and by at most η when it is subnormal.  So:

    - Rounding the inputs.  Each q_i moves by at most u·|q_i| or η,
      and so does each t_i.  So 2q·t moves by at most
      (2u + u²)·2|q||t| + 2η(1 + u)·√p·M, as Σ|q_i| + Σ|t_i| <= √p·M.
      |q|² and |t|², summed in float64 to within p·2**-53 = O(u²) of
      themselves, move by u of themselves plus η each.  As
      2|q||t| + |q|² + |t|² <= M² and 2|q||t| <= M²/2, the exact
      Σa_i·b_i of the rounded rows is within 2u·M² + 2η(√p·M + 1) of
      the exact |q - t|², up to O(u²)·M².
    - The product.  With γ_n = n·u / (1 - n·u) (Higham, Accuracy and
      Stability of Numerical Algorithms, §3.1), a float32 dot product of
      n = p + 2 terms in any order, with or without fused multiply-adds,
      is within γ_n·Σ|a_i·b_i| of Σa_i·b_i, plus η for each of its at
      most n roundings that underflow.  Here Σ|a_i·b_i| <= M²(1 + 3u),
      up to O(η·M).
    - D, the declared-order float64 distance, is within (p + 1)·2**-53
      = O(u²) of the exact |q - t|² <= M², plus p·2**-1075.

    So |G - D| <= (p + 4)·u·M² + η·(2√p·M + p + 4) + O(u²)·M², and
    E = 4(p + 4)·(u·M² + η·(M + 1)) bounds it: 2√p <= 4(p + 4), and the
    factor 4 covers the O(u²) terms and the float64 rounding of the
    bound below.  The bound assumes gradual underflow, numpy's default;
    the refine assumes it anyway.

    Bound.  Each G row, the own position set to +inf and padded to a
    multiple of c = max(k, min(max(_CHUNKS, ⌈n_t / _CHUNK_ROWS⌉), n_t))
    columns with +inf, splits into c interleaved chunks (columns j,
    j + c, ...), of about _CHUNK_ROWS rows each when n_t is large.  The
    k-th smallest chunk minimum is G of k distinct rows, so the exact
    k-th distance is at most that minimum plus E, and every row of the
    exact top k, ties included, has G at most the minimum plus 2E.  That
    bound is computed in float64, from float64 M.  The candidates are
    the cells not greater than the bound, so that a NaN G (inf - inf)
    stays a candidate.  Only chunks whose minimum is not greater than
    the bound can hold one, so only their cells are compared.

    Overflow.  float32 ends near 2**128, far below float64.  While
    2M² < 2**100, every input, |a_i·b_i| <= M² and every partial sum
    (at most (1 + γ_n)·M²) stays far from it.  At or past that cutoff
    the bound is +inf and every row is a candidate.  The padded columns
    and the own position are dropped from the candidates explicitly, as
    the bound may be +inf.

    Refine.  D is computed for each candidate in declared order, with
    the operations of the contract (a sequential np.add.accumulate of
    the squared differences), and the candidates are ordered by
    (D, index).  The first k are the exact top k, since no row outside
    the candidates can precede them; so neither the result nor its bits
    depend on the BLAS kernel or on how it sums.
    """
    n_q, p = q_z.shape
    n_t = train_z.shape[0]
    if k > n_t - 1 and (own >= 0).any():
        raise DegenerateDataError(
            "k exceeds available neighbors under leave-self-out")
    aug, t_max = train_aug
    chunks = max(k, min(max(_CHUNKS, -(-n_t // _CHUNK_ROWS)), n_t))
    width = -(-n_t // chunks) * chunks
    block = max(1, min(_BLOCK_QUERIES, n_q))
    g_buf = np.empty((block, width), np.float32)
    g_buf[:, n_t:] = np.inf
    out_d2 = np.empty((n_q, k), np.float64)
    out_ix = np.empty((n_q, k), np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", q_z, q_z)
        q_aug = np.empty((n_q, p + 2), np.float32)
        q_aug[:, :p] = q_z
        q_aug[:, p] = 1.0
        q_aug[:, p + 1] = norms
        m = np.sqrt(norms) + t_max
        two_e = 8 * (p + 4) * (_U * m * m + _ETA * (m + 1.0))
        two_e[~(2.0 * m * m < _F32_CUTOFF)] = np.inf
        for lo in range(0, n_q, block):
            hi = min(lo + block, n_q)
            g = g_buf[:hi - lo]
            me = own[lo:hi]
            left_out = np.nonzero(me >= 0)[0]
            np.matmul(q_aug[lo:hi], aug, out=g[:, :n_t])
            g[left_out, me[left_out]] = np.inf
            by_chunk = g.reshape(hi - lo, -1, chunks)
            low = by_chunk.min(axis=1)
            bound = np.partition(low, k - 1, axis=1)[:, k - 1] + two_e[lo:hi]
            r, c = np.nonzero(~(low > bound[:, None]))
            hit, at = np.nonzero(~(by_chunk[r, :, c] > bound[r, None]))
            row, col = r[hit], at * chunks + c[hit]
            allowed = (col < n_t) & (col != me[row])
            row, col = row[allowed], col[allowed]
            sq = q_z[lo + row] - train_z[col]
            sq *= sq
            dist = np.add.accumulate(sq, axis=1)[:, -1]
            # row never decreases (nonzero walks row-major; the mask keeps
            # that order), so each query starts in order where it does in row
            order = np.lexsort((col, dist, row))
            starts = np.searchsorted(row, np.arange(hi - lo))
            take = order[(starts[:, None] + np.arange(k)).ravel()]
            out_d2[lo:hi] = dist[take].reshape(hi - lo, k)
            out_ix[lo:hi] = col[take].reshape(hi - lo, k)
    return out_d2, out_ix


def _running_sums(a: np.ndarray) -> np.ndarray:
    """Overwrite each row of ``a`` with its running totals, left to right
    from 0.0, and return it.

    ``np.add.accumulate`` is a sequential scan; the ``+= 0.0`` turns a
    -0.0 prefix into 0.0, as a loop's 0.0 start does.  Working in place
    spares a fresh (and, on a large block, page-faulting) array per step.
    """
    np.add.accumulate(a, axis=1, out=a)
    a += 0.0
    return a


def _fold_all(d2, ix, train_y, k_max: int, weighting: str) -> np.ndarray:
    """Predictions for k = 1..k_max: row k-1 folds the first k neighbors.

    Each fold is a running sum along a query's neighbors, left to right,
    so every row equals the scalar fold of that k.  Queries whose
    nearest neighbor is at distance 0 take the mean of the zero-distance
    targets instead; their total starts at +0.0 and so is never -0.0,
    which makes adding 0.0 for the other neighbors exact.  The result is
    a (k_max, n) view of a query-major array.
    """
    y = train_y[ix[:, :k_max]].astype(np.float64, copy=False)
    if weighting == "uniform":
        out = _running_sums(y)
        out /= np.arange(1, k_max + 1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.sqrt(d2[:, :k_max])
            y /= d
            out = _running_sums(y)
            out /= _running_sums(np.divide(1.0, d, out=d))
    zero = np.nonzero(d2[:, 0] == 0.0)[0]
    if zero.shape[0]:
        hit = d2[zero, :k_max] == 0.0
        y_hit = np.where(hit, train_y[ix[zero, :k_max]], 0.0)
        out[zero] = _running_sums(y_hit) / np.add.accumulate(hit, axis=1)
    return out.T


def _standardize(model: KnnModel, x: np.ndarray) -> np.ndarray:
    """Raw predictor values in the model's units; a value far outside
    the training range may become ±inf."""
    with np.errstate(over="ignore"):
        return (x - model.means) / model.stds


def _sweep(model: KnnModel, q_z: np.ndarray, own: np.ndarray | None = None,
           rows: np.ndarray | None = None) -> np.ndarray:
    """Predictions of the standardised queries ``q_z`` for every
    k <= model.k: row k-1 folds each query's first k neighbors (see
    _fold_all).  ``own`` is as in _scan; by default no neighbor is left
    out.  A query whose every squared distance overflows has no nearest
    neighbor to weigh: DataError names it by its dataset row in
    ``rows``, or as the record when ``rows`` is None."""
    if own is None:
        own = np.full(q_z.shape[0], -1, dtype=np.int64)
    d2, ix = _scan(model.train_z, q_z, own, model.k, model._train_aug)
    far = np.flatnonzero(np.isinf(d2[:, 0]))
    if far.shape[0]:
        what = "the record" if rows is None else f"row {rows[far[0]]}"
        raise DataError(f"{what} is too far from every training row: "
                        "its squared distances overflow")
    return _fold_all(d2, ix, model.train_y, model.k, model.weighting)


def _query_vector(model: KnnModel, record) -> np.ndarray:
    if not isinstance(record, Mapping):
        raise DataError(f"unsupported record type {type(record).__name__}")
    for name in model.predictors:
        if name not in record:
            raise DataError(f"record missing predictor '{name}'")
    values = [record[name] for name in model.predictors]
    q = np.empty(len(values))
    for j, (name, v) in enumerate(zip(model.predictors, values)):
        if isinstance(v, bool) or not isinstance(v, Real):
            raise DataError(f"predictor '{name}' must be a number, got {v!r}")
        try:
            q[j] = float(v)
        except OverflowError:   # an int beyond the float range
            q[j] = math.inf
        if not math.isfinite(q[j]):
            raise DataError(f"non-finite value for predictor '{name}': {v!r}")
    return q


def predict(model: KnnModel, record) -> float:
    """Predict one record: a mapping that holds the model's predictors.

    Leave-self-out applies only to the model's own training rows (same
    row, same values), which a bare record does not name; so no
    neighbor is left out here.  DataError: a record whose squared
    distance to every training row overflows.
    """
    q_z = _standardize(model, _query_vector(model, record))
    return float(_sweep(model, q_z[None, :])[-1, 0])


def predict_rows(model: KnnModel, ds: Dataset,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Predict dataset rows.  When the model says so, a row is left out
    of its own neighbor set if it is one of the model's training rows:
    the same row number with the same values, as on the fitted dataset.
    Rows of another dataset keep every training row as a neighbor.
    DataError names a row whose squared distance to every training row
    overflows."""
    rows = np.arange(ds.n_records, dtype=np.int64) if rows is None \
        else check_rows(rows, ds.n_records)
    q_z = _standardize(model, ds.matrix(model.predictors)[rows])
    own = _self_positions(model.train_rows, rows) if model.leave_self_out \
        else np.full(rows.shape[0], -1, dtype=np.int64)
    # a row is its own training row only if it also has that row's
    # values: the same row number in another dataset is another record
    mine = np.nonzero(own >= 0)[0]
    own[mine[(q_z[mine] != model.train_z[own[mine]]).any(axis=1)]] = -1
    return _sweep(model, q_z, own, rows)[-1]


# -------------------------------------------------------------- metrics

@dataclass(frozen=True)
class EvalMetrics:
    r_squared: float | None     # None when the partition's target is constant
    rase: float
    aae: float
    freq: int


def _metrics_from_errors(actual: np.ndarray, predicted: np.ndarray) -> EvalMetrics:
    n = actual.shape[0]
    err = actual - predicted
    sse = float(np.sum(err * err))
    aae = float(np.sum(np.abs(err))) / n
    rase = math.sqrt(sse / n)
    sst = float(np.sum((actual - actual.mean()) ** 2))
    r2 = None if sst == 0.0 else 1.0 - sse / sst
    return EvalMetrics(r2, rase, aae, n)


def _partition_metrics(codes: np.ndarray, actual: np.ndarray,
                       predicted: np.ndarray) -> dict[str, EvalMetrics]:
    """Metrics of each partition (by per-record code) and of all records;
    DegenerateDataError names a partition with no records."""
    metrics = {}
    for i, name in enumerate(PARTITIONS):
        mine = codes == i
        if not mine.any():
            raise DegenerateDataError(f"partition '{name}' is empty")
        metrics[name] = _metrics_from_errors(actual[mine], predicted[mine])
    metrics[TOTAL] = _metrics_from_errors(actual, predicted)
    return metrics


def evaluate(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
             partition: str, target: str = TARGET) -> EvalMetrics:
    """Metrics over one partition, or over all records for "Total"."""
    _check_assignment(ds, assignment)
    if partition == TOTAL:
        rows = np.arange(ds.n_records, dtype=np.int64)
    elif partition in PARTITIONS:
        rows = assignment.rows(partition)
    else:
        raise ConfigError(f"unknown partition {partition!r}")
    if rows.shape[0] == 0:
        raise DegenerateDataError(f"partition '{partition}' is empty")
    predicted = predict_rows(model, ds, rows)
    return _metrics_from_errors(ds.column(target)[rows], predicted)


def evaluate_all(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
                 target: str = TARGET) -> dict[str, EvalMetrics]:
    """Metrics for Training/Validation/Test/Total from one prediction
    pass; a record's prediction does not depend on the other queries."""
    _check_assignment(ds, assignment)
    return _partition_metrics(assignment.codes, ds.column(target),
                              predict_rows(model, ds))


# ------------------------------------------------------------ selection

@dataclass(frozen=True)
class KSelectionCurve:
    points: tuple[tuple[int, float], ...]   # (k, validation RASE)
    chosen_k: int


def _fit_and_sweep(ds: Dataset, assignment: SplitAssignment,
                   predictors: Sequence[str] | None, target: str, k_max: int,
                   weighting: str, leave_self_out: bool
                   ) -> tuple[KnnModel, KSelectionCurve, np.ndarray, np.ndarray]:
    """A model fitted at k_max, its K curve, its Validation rows, and
    their predictions for every k (row k-1).

    Neighbors are scanned once at k_max; the k-neighbor prediction folds
    the first k of that ordered list, bit-identical to a fresh
    k-neighbor model.  The chosen k is the argmin, ties low.
    """
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    model = fit_knn(ds, assignment, predictors, target, k_max, weighting,
                    leave_self_out)
    val_rows = assignment.rows("Validation")
    if val_rows.shape[0] == 0:
        raise DegenerateDataError("validation partition is empty")
    # Validation rows are never Training rows, so none is left out
    q_z = _standardize(model, ds.matrix(model.predictors)[val_rows])
    preds = _sweep(model, q_z, rows=val_rows)
    actual = ds.column(target)[val_rows]
    points = []
    chosen = 1
    best = math.inf
    for k in range(1, k_max + 1):
        rase = _metrics_from_errors(actual, preds[k - 1]).rase
        points.append((k, rase))
        if rase < best:
            best = rase
            chosen = k
    return model, KSelectionCurve(tuple(points), chosen), val_rows, preds


def select_k(ds: Dataset, assignment: SplitAssignment,
             predictors: Sequence[str] | None = None, target: str = TARGET,
             k_max: int = 10, weighting: str = "inverse_distance"
             ) -> KSelectionCurve:
    """Validation RASE for k = 1..k_max; chosen k = argmin, ties low.
    Validation rows are never Training rows, so leave-self-out, which
    shapes only Training-row predictions, has no say here."""
    return _fit_and_sweep(ds, assignment, predictors, target, k_max,
                          weighting, True)[1]


# ------------------------------------------------------------ residuals

@dataclass(frozen=True)
class ResidualTable:
    rows: np.ndarray
    partitions: tuple[str, ...]
    actual: np.ndarray
    predicted: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for arr in (self.rows, self.actual, self.predicted, self.residual):
            arr.setflags(write=False)


def residuals(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
              target: str = TARGET) -> ResidualTable:
    """actual − predicted for every record, all partitions."""
    _check_assignment(ds, assignment)
    actual = ds.column(target).copy()
    predicted = predict_rows(model, ds)
    return ResidualTable(np.arange(ds.n_records, dtype=np.int64),
                         tuple(assignment.labels()), actual, predicted,
                         actual - predicted)


# ----------------------------------------------------------- comparison

@dataclass(frozen=True)
class ModelEvaluation:
    label: str
    chosen_k: int
    curve: KSelectionCurve | None      # None when k was fixed
    metrics: dict[str, EvalMetrics]    # Training/Validation/Test/Total
    model: KnnModel                    # fitted at chosen_k
    predicted: np.ndarray              # one prediction per record

    def __post_init__(self):
        self.predicted.setflags(write=False)


@dataclass(frozen=True)
class PooledVsYearly:
    pooled: ModelEvaluation
    yearly: tuple[ModelEvaluation, ...]
    by_year_aggregate: dict[str, EvalMetrics]
    assignment: SplitAssignment


def _evaluate_scope(label: str, ds: Dataset, assignment: SplitAssignment,
                    predictors: Sequence[str], target: str, k: int | None,
                    k_max: int, weighting: str,
                    leave_self_out: bool) -> ModelEvaluation:
    """One model scope from one fit and one prediction per record.

    With k None the model is fitted at k_max and its Validation sweep
    gives the K curve; the same model then takes the chosen k without a
    refit, and the Validation predictions are the sweep's row
    chosen_k - 1.  Every other record is predicted once at the model's k.
    """
    predicted = np.empty(ds.n_records)
    rest = np.arange(ds.n_records, dtype=np.int64)
    curve = None
    if k is None:
        model, curve, val_rows, preds = _fit_and_sweep(
            ds, assignment, predictors, target, k_max, weighting,
            leave_self_out)
        model = replace(model, k=curve.chosen_k)
        predicted[val_rows] = preds[curve.chosen_k - 1]
        rest = np.delete(rest, val_rows)
    else:
        model = fit_knn(ds, assignment, predictors, target, k, weighting,
                        leave_self_out)
    predicted[rest] = predict_rows(model, ds, rest)
    metrics = _partition_metrics(assignment.codes, ds.column(target),
                                 predicted)
    return ModelEvaluation(label, model.k, curve, metrics, model, predicted)


def compare_pooled_vs_yearly(ds: Dataset,
                             fractions: Sequence[float] = DEFAULT_FRACTIONS,
                             seed: int = 0, k_max: int = 10,
                             predictors: Sequence[str] | None = None,
                             target: str = TARGET,
                             weighting: str = "inverse_distance",
                             leave_self_out: bool = True) -> PooledVsYearly:
    """Pooled model vs. one model per year, each with its own K.

    All models share one stratified assignment.  The by-year aggregate
    pools per-record errors of the yearly models within each partition,
    in year order; its R² uses the pooled actual mean of those records.
    A yearly model's ConfigError or DegenerateDataError names its year.
    """
    if len(ds.years) < 2:
        raise ConfigError("comparison needs at least 2 years")
    names = resolve_predictors(predictors, target)
    assignment = split(ds, fractions, seed)
    scope = dict(predictors=names, target=target, k=None, k_max=k_max,
                 weighting=weighting, leave_self_out=leave_self_out)
    pooled = _evaluate_scope("pooled", ds, assignment, **scope)

    yearly, by_year = [], []
    for year in ds.years:
        year_rows = np.nonzero(ds.year == year)[0]
        sub_assign = SplitAssignment(assignment.codes[year_rows].copy())
        try:
            yearly.append(_evaluate_scope(str(year), ds.subset(year_rows),
                                          sub_assign, **scope))
        except (ConfigError, DegenerateDataError) as exc:
            raise type(exc)(f"year {year}: {exc}") from exc
        by_year.append(year_rows)
    rows = np.concatenate(by_year)
    aggregate = _partition_metrics(
        assignment.codes[rows], ds.column(target)[rows],
        np.concatenate([ev.predicted for ev in yearly]))

    return PooledVsYearly(pooled, tuple(yearly), aggregate, assignment)


# ----------------------------------------------------------- persistence

#: Rows per json.dumps call while streaming a model's arrays to disk.
_SAVE_ROWS = 1024


def save_model(model: KnnModel, path: str | Path) -> None:
    """Write the model as one JSON object and a newline.

    The arrays are streamed in blocks of rows, so the file holds the
    bytes of ``json.dumps`` of the whole document without that string,
    or the lists behind it, ever being built.
    """
    head = {
        "format_version": MODEL_FORMAT_VERSION,
        "predictors": list(model.predictors),
        "means": model.means.tolist(),
        "stds": model.stds.tolist(),
        "k": model.k,
        "weighting": model.weighting,
        "leave_self_out": model.leave_self_out,
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(head)[:-1])
        for name in ("train_rows", "train_y", "train_z"):
            arr = getattr(model, name)
            fh.write(f", {json.dumps(name)}: [")
            for lo in range(0, arr.shape[0], _SAVE_ROWS):
                fh.write(", " if lo else "")
                fh.write(json.dumps(arr[lo:lo + _SAVE_ROWS].tolist())[1:-1])
            fh.write("]")
        fh.write("}\n")


def _numbers(doc: dict, key: str, integer: bool = False) -> np.ndarray:
    """doc[key] as a float64 (or int64) array.  Strings, booleans, ints
    beyond 64 bits and, for an integer array, fractions are rejected,
    not converted."""
    value = doc[key]
    arr = np.asarray(value)
    # numpy reads a true/false among numbers as 1/0, so look at each
    # cell's type; map() keeps that scan in C
    cells = chain.from_iterable(value) if arr.ndim == 2 else value
    if arr.dtype.kind not in ("i" if integer else "if") \
            or (arr.ndim > 0 and bool in map(type, cells)):
        kind = "integers" if integer else "numbers"
        raise DataError(f"{key} must hold {kind}")
    return arr.astype(np.int64 if integer else np.float64)


def load_model(path: str | Path) -> KnnModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"malformed model file {path}: not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version: {version!r}")
    try:
        names = doc["predictors"]
        model = KnnModel(
            # a string or an object is no list of names; () fails below
            tuple(names) if isinstance(names, list) else (),
            _numbers(doc, "means"),
            _numbers(doc, "stds"),
            _numbers(doc, "train_z"),
            _numbers(doc, "train_y"),
            _numbers(doc, "train_rows", integer=True),
            doc["k"],
            doc["weighting"],
            doc["leave_self_out"],
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    problem = _model_problem(model)
    if problem is not None:
        raise DataError(f"malformed model file {path}: {problem}")
    return model


def _model_problem(model: KnnModel) -> str | None:
    """The first reason a loaded model cannot predict, or None."""
    p = len(model.predictors)
    if p == 0 or not all(isinstance(n, str) for n in model.predictors):
        return "predictors must be a non-empty list of names"
    if len(set(model.predictors)) != p:
        return "predictors must be distinct"
    if model.means.shape != (p,) or model.stds.shape != (p,):
        return "means and stds need one entry per predictor"
    n = model.train_y.size
    if model.train_z.shape != (n, p) or model.train_y.shape != (n,) \
            or model.train_rows.shape != (n,):
        return "shape mismatch"
    if type(model.k) is not int:
        return f"k must be an integer, got {model.k!r}"
    if not 1 <= model.k <= n:
        return f"k must be in [1, {n}], got {model.k}"
    if model.weighting not in WEIGHTINGS:
        return f"weighting must be one of {WEIGHTINGS}, got {model.weighting!r}"
    if not isinstance(model.leave_self_out, bool):
        return "leave_self_out must be true or false"
    rows = np.sort(model.train_rows)
    if rows[0] < 0 or (rows[1:] == rows[:-1]).any():
        return "train_rows must be distinct non-negative row numbers"
    if not (np.isfinite(model.stds).all() and (model.stds > 0.0).all()):
        return "stds must be finite and positive"
    for name in ("means", "train_z", "train_y"):
        if not np.isfinite(getattr(model, name)).all():
            return f"{name} must be finite"
    return None
