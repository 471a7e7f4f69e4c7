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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError
from .ingest import Dataset, ObservationRecord, PREDICTORS, TARGET, atomic_open
from .rng import SplitMix64, derive_seed

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
    fractions: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        self.codes.setflags(write=False)

    @property
    def n_records(self) -> int:
        return int(self.codes.shape[0])

    def rows(self, partition: str) -> np.ndarray:
        return np.nonzero(self.codes == PARTITIONS.index(partition))[0]

    def counts(self) -> dict[str, int]:
        return {name: int((self.codes == i).sum())
                for i, name in enumerate(PARTITIONS)}

    def labels(self) -> list[str]:
        return [PARTITIONS[c] for c in self.codes]


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
    return SplitAssignment(codes, fr, seed)


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


def fit_knn(ds: Dataset, assignment: SplitAssignment,
            predictors: Sequence[str] | None = None, target: str = TARGET,
            k: int = 3, weighting: str = "inverse_distance",
            leave_self_out: bool = True) -> KnnModel:
    """Standardize on Training rows only and retain them for lookup."""
    names = tuple(predictors) if predictors is not None else PREDICTORS
    if not names:
        raise ConfigError("empty predictor list")
    if target in names:
        raise ConfigError(f"target '{target}' is also a predictor")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    train_rows = assignment.rows("Training")
    n_train = train_rows.shape[0]
    if n_train == 0:
        raise DegenerateDataError("training partition is empty")
    if not 1 <= k <= n_train:
        raise ConfigError(f"k must be in [1, {n_train}], got {k}")
    x = ds.matrix(names)[train_rows]
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1) if n_train > 1 else np.ones(len(names))
    for name, s in zip(names, stds):
        if s == 0.0 or not math.isfinite(s):
            raise DegenerateDataError(
                f"predictor '{name}' has zero variance in the training partition")
    z = np.ascontiguousarray((x - means) / stds)
    y = ds.column(target)[train_rows].copy()
    return KnnModel(names, means, stds, z, y, train_rows.copy(), k,
                    weighting, leave_self_out)


# ------------------------------------------------------ neighbor search

def _scan(train_z, train_rows, q_z, self_rows, k):
    """Top-k neighbors per query by (squared distance, training index).

    Squared distance accumulates predictor by predictor in declared
    order; distance ties keep the earlier training row.  Queries run in
    chunks so the distance block stays near 32 MB.
    """
    n_q = q_z.shape[0]
    n_t = train_z.shape[0]
    out_d2 = np.empty((n_q, k), np.float64)
    out_ix = np.empty((n_q, k), np.int64)
    chunk = max(1, (1 << 22) // max(1, n_t))
    for lo in range(0, n_q, chunk):
        hi = min(lo + chunk, n_q)
        q = q_z[lo:hi]
        d2 = np.zeros((hi - lo, n_t))
        for j in range(q_z.shape[1]):
            diff = q[:, j:j + 1] - train_z[:, j]
            d2 += diff * diff
        for i in range(hi - lo):
            me = self_rows[lo + i]
            if me >= 0:
                d2[i, train_rows == me] = np.inf
            row = d2[i]
            part = np.argpartition(row, k - 1)[:k]
            bound = row[part].max()
            strict = part[row[part] < bound]
            ties = np.nonzero(row == bound)[0]
            sel = np.concatenate([strict, ties[:k - strict.shape[0]]])
            sel = sel[np.lexsort((sel, row[sel]))]
            out_d2[lo + i] = row[sel]
            out_ix[lo + i] = sel
    return out_d2, out_ix


def _neighbors(model: KnnModel, q_z: np.ndarray, self_rows: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    if np.isin(self_rows[self_rows >= 0], model.train_rows).any() \
            and k > model.n_training - 1:
        raise DegenerateDataError(
            "k exceeds available neighbors under leave-self-out")
    return _scan(model.train_z, model.train_rows, np.ascontiguousarray(q_z),
                 self_rows, k)


def _fold_prediction(d2_row, ix_row, train_y, k: int, weighting: str) -> float:
    if d2_row[0] == 0.0:
        total = 0.0
        count = 0
        for j in range(k):
            if d2_row[j] == 0.0:
                total += train_y[ix_row[j]]
                count += 1
        return total / count
    if weighting == "uniform":
        total = 0.0
        for j in range(k):
            total += train_y[ix_row[j]]
        return total / k
    num = 0.0
    den = 0.0
    for j in range(k):
        d = math.sqrt(d2_row[j])
        num += train_y[ix_row[j]] / d
        den += 1.0 / d
    return num / den


def _predict_matrix(model: KnnModel, q: np.ndarray,
                    self_rows: np.ndarray | None = None,
                    k: int | None = None) -> np.ndarray:
    kk = model.k if k is None else k
    if self_rows is None:
        self_rows = np.full(q.shape[0], -1, dtype=np.int64)
    q_z = (q - model.means) / model.stds
    d2, ix = _neighbors(model, q_z, self_rows, kk)
    out = np.empty(q.shape[0])
    for i in range(q.shape[0]):
        out[i] = _fold_prediction(d2[i], ix[i], model.train_y, kk,
                                  model.weighting)
    return out


def _query_vector(model: KnnModel, record) -> np.ndarray:
    q = np.empty(len(model.predictors))
    for j, name in enumerate(model.predictors):
        if isinstance(record, ObservationRecord):
            v = record.predictor(name)
        elif isinstance(record, Mapping):
            if name not in record:
                raise DataError(f"record missing predictor '{name}'")
            v = float(record[name])
        else:
            raise DataError(f"unsupported record type {type(record).__name__}")
        if not math.isfinite(v):
            raise DataError(f"non-finite value for predictor '{name}': {v!r}")
        q[j] = v
    return q


def predict(model: KnnModel, record) -> float:
    """Predict one record (ObservationRecord or name→value mapping).

    Self-exclusion needs row identity, which a bare record lacks; it
    applies only in evaluate/residuals, where rows are known.
    """
    q = _query_vector(model, record)
    return float(_predict_matrix(model, q[None, :])[0])


def predict_rows(model: KnnModel, ds: Dataset,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Predict dataset rows; training members are left out of their own
    neighbor sets when the model says so."""
    if rows is None:
        rows = np.arange(ds.n_records, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    q = ds.matrix(model.predictors)[rows]
    self_rows = rows if model.leave_self_out \
        else np.full(rows.shape[0], -1, dtype=np.int64)
    return _predict_matrix(model, q, self_rows)


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


def evaluate(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
             partition: str, target: str = TARGET) -> EvalMetrics:
    """Metrics over one partition, or over all records for "Total"."""
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


# ------------------------------------------------------------ selection

@dataclass(frozen=True)
class KSelectionCurve:
    points: tuple[tuple[int, float], ...]   # (k, validation RASE)
    chosen_k: int

    def rase_for(self, k: int) -> float:
        for kk, rase in self.points:
            if kk == k:
                return rase
        raise KeyError(k)


def select_k(ds: Dataset, assignment: SplitAssignment,
             predictors: Sequence[str] | None = None, target: str = TARGET,
             k_max: int = 10, weighting: str = "inverse_distance",
             leave_self_out: bool = True) -> KSelectionCurve:
    """Validation RASE for k = 1..k_max; chosen k = argmin, ties low.

    Neighbors are scanned once at k_max; the k-neighbor prediction is a
    fold over the first k of that ordered list, bit-identical to a
    fresh k-neighbor model.
    """
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    model = fit_knn(ds, assignment, predictors, target, k_max, weighting,
                    leave_self_out)
    val_rows = assignment.rows("Validation")
    if val_rows.shape[0] == 0:
        raise DegenerateDataError("validation partition is empty")
    q = ds.matrix(model.predictors)[val_rows]
    self_rows = val_rows if leave_self_out \
        else np.full(val_rows.shape[0], -1, dtype=np.int64)
    q_z = (q - model.means) / model.stds
    d2, ix = _neighbors(model, q_z, self_rows, k_max)
    actual = ds.column(target)[val_rows]

    points = []
    chosen = 1
    best = math.inf
    for k in range(1, k_max + 1):
        preds = np.empty(val_rows.shape[0])
        for i in range(val_rows.shape[0]):
            preds[i] = _fold_prediction(d2[i], ix[i], model.train_y, k,
                                        weighting)
        rase = _metrics_from_errors(actual, preds).rase
        points.append((k, rase))
        if rase < best:
            best = rase
            chosen = k
    return KSelectionCurve(tuple(points), chosen)


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

    def iter_rows(self) -> Iterator[tuple[int, str, float, float, float]]:
        for i in range(self.rows.shape[0]):
            yield (int(self.rows[i]), self.partitions[i],
                   float(self.actual[i]), float(self.predicted[i]),
                   float(self.residual[i]))


def _residual_table(assignment: SplitAssignment, actual: np.ndarray,
                    predicted: np.ndarray) -> ResidualTable:
    rows = np.arange(assignment.n_records, dtype=np.int64)
    return ResidualTable(rows, tuple(assignment.labels()), actual, predicted,
                         actual - predicted)


def residuals(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
              target: str = TARGET) -> ResidualTable:
    """actual − predicted for every record, all partitions."""
    return _residual_table(assignment, ds.column(target).copy(),
                           predict_rows(model, ds))


# ----------------------------------------------------------- comparison

@dataclass(frozen=True)
class ModelEvaluation:
    label: str
    chosen_k: int
    curve: KSelectionCurve
    metrics: dict[str, EvalMetrics]    # Training/Validation/Test/Total


@dataclass(frozen=True)
class PooledVsYearly:
    pooled: ModelEvaluation
    yearly: tuple[ModelEvaluation, ...]
    by_year_aggregate: dict[str, EvalMetrics]
    assignment: SplitAssignment
    pooled_model: KnnModel
    pooled_residuals: ResidualTable    # from the pooled Total pass
    predictors: tuple[str, ...]
    target: str
    weighting: str
    k_max: int
    seed: int


def _evaluate_all_errors(model: KnnModel, ds: Dataset,
                         assignment: SplitAssignment, target: str
                         ) -> tuple[dict[str, EvalMetrics], dict[str, tuple]]:
    """One prediction pass over all records, sliced per partition.

    Per-record predictions are identical between the Total pass and any
    per-partition pass (self-exclusion depends only on the record), so
    slicing is equivalent to separate evaluate() calls.
    """
    predicted = predict_rows(model, ds)
    actual = ds.column(target)
    metrics: dict[str, EvalMetrics] = {}
    errors: dict[str, tuple] = {}
    for name in PARTITIONS:
        rows = assignment.rows(name)
        metrics[name] = _metrics_from_errors(actual[rows], predicted[rows])
        errors[name] = (actual[rows], predicted[rows])
    metrics[TOTAL] = _metrics_from_errors(actual, predicted)
    errors[TOTAL] = (actual.copy(), predicted)
    return metrics, errors


def evaluate_all(model: KnnModel, ds: Dataset, assignment: SplitAssignment,
                 target: str = TARGET) -> dict[str, EvalMetrics]:
    """Metrics for Training/Validation/Test/Total from one prediction pass."""
    metrics, _ = _evaluate_all_errors(model, ds, assignment, target)
    return metrics


def _evaluate_with_residuals(model: KnnModel, ds: Dataset,
                             assignment: SplitAssignment, target: str
                             ) -> tuple[dict[str, EvalMetrics], ResidualTable]:
    """evaluate_all() and residuals() from the same single pass."""
    metrics, errors = _evaluate_all_errors(model, ds, assignment, target)
    return metrics, _residual_table(assignment, *errors[TOTAL])


def compare_pooled_vs_yearly(ds: Dataset,
                             fractions: Sequence[float] = DEFAULT_FRACTIONS,
                             seed: int = 0, k_max: int = 10,
                             predictors: Sequence[str] | None = None,
                             target: str = TARGET,
                             weighting: str = "inverse_distance",
                             leave_self_out: bool = True) -> PooledVsYearly:
    """Pooled model vs. one model per year, each with its own K.

    All models share one stratified assignment.  The by-year aggregate
    pools per-record errors of the yearly models within each partition;
    its R² uses the pooled actual mean of those records.
    """
    if len(ds.years) < 2:
        raise ConfigError("comparison needs at least 2 years")
    names = tuple(predictors) if predictors is not None else PREDICTORS
    assignment = split(ds, fractions, seed)

    curve = select_k(ds, assignment, names, target, k_max, weighting,
                     leave_self_out)
    model = fit_knn(ds, assignment, names, target, curve.chosen_k, weighting,
                    leave_self_out)
    pooled_metrics, pooled_residuals = _evaluate_with_residuals(
        model, ds, assignment, target)
    pooled = ModelEvaluation("pooled", curve.chosen_k, curve, pooled_metrics)

    yearly = []
    agg: dict[str, list[tuple]] = {name: [] for name in (*PARTITIONS, TOTAL)}
    for year in ds.years:
        year_rows = np.nonzero(ds.year == year)[0]
        sub_ds = ds.subset(year_rows)
        sub_assign = SplitAssignment(assignment.codes[year_rows].copy(),
                                     assignment.fractions, seed)
        sub_curve = select_k(sub_ds, sub_assign, names, target, k_max,
                             weighting, leave_self_out)
        sub_model = fit_knn(sub_ds, sub_assign, names, target,
                            sub_curve.chosen_k, weighting, leave_self_out)
        sub_metrics, sub_errors = _evaluate_all_errors(
            sub_model, sub_ds, sub_assign, target)
        yearly.append(ModelEvaluation(str(year), sub_curve.chosen_k,
                                      sub_curve, sub_metrics))
        for name, pair in sub_errors.items():
            agg[name].append(pair)

    aggregate = {}
    for name, pairs in agg.items():
        actual = np.concatenate([a for a, _ in pairs])
        predicted = np.concatenate([p for _, p in pairs])
        aggregate[name] = _metrics_from_errors(actual, predicted)

    return PooledVsYearly(pooled, tuple(yearly), aggregate, assignment,
                          model, pooled_residuals, names, target, weighting,
                          k_max, seed)


# ----------------------------------------------------------- persistence

def save_model(model: KnnModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "predictors": list(model.predictors),
        "means": model.means.tolist(),
        "stds": model.stds.tolist(),
        "k": model.k,
        "weighting": model.weighting,
        "leave_self_out": model.leave_self_out,
        "train_rows": model.train_rows.tolist(),
        "train_y": model.train_y.tolist(),
        "train_z": model.train_z.tolist(),
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc) + "\n")


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
        model = KnnModel(
            tuple(doc["predictors"]),
            np.asarray(doc["means"], dtype=np.float64),
            np.asarray(doc["stds"], dtype=np.float64),
            np.ascontiguousarray(doc["train_z"], dtype=np.float64),
            np.asarray(doc["train_y"], dtype=np.float64),
            np.asarray(doc["train_rows"], dtype=np.int64),
            int(doc["k"]),
            str(doc["weighting"]),
            doc["leave_self_out"],
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    if model.means.shape != (p,) or model.stds.shape != (p,):
        return "means and stds need one entry per predictor"
    n = model.n_training
    if model.train_z.ndim != 2 or model.train_z.shape[1] != p \
            or model.train_y.shape != (n,) or model.train_rows.shape != (n,):
        return "shape mismatch"
    if not 1 <= model.k <= n:
        return f"k must be in [1, {n}], got {model.k}"
    if model.weighting not in WEIGHTINGS:
        return f"weighting must be one of {WEIGHTINGS}, got {model.weighting!r}"
    if not isinstance(model.leave_self_out, bool):
        return "leave_self_out must be true or false"
    if not (np.isfinite(model.stds).all() and (model.stds > 0.0).all()):
        return "stds must be finite and positive"
    for name in ("means", "train_z", "train_y"):
        if not np.isfinite(getattr(model, name)).all():
            return f"{name} must be finite"
    return None
