"""Bootstrap-forest predictor screening.

Rank predictors by how much squared-error reduction their splits buy
across an ensemble of CART regression trees grown on bootstrap samples.
The forest is used only for screening; it never predicts.

Determinism: all sampling flows from one SplitMix64 stream per tree,
seeded as derive_seed(cfg.seed, tree_index).  The stream first yields
the bootstrap row draws, then the per-split predictor draws in
depth-first, left-child-first node order.  Identical (data, config,
seed) therefore reproduce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .ingest import Dataset, PREDICTORS, TARGET
from .rng import SplitMix64, derive_seed

_UNLIMITED_DEPTH = 2**31 - 1


def _bootstrap_rows(seed, n, size):
    """SplitMix64 bootstrap draws; returns (rows, advanced rng state)."""
    stream = SplitMix64(int(seed))
    rows = stream.integers_below(n, size)
    return rows, stream._state


def _grow_tree(x, y, rows, m, min_leaf, max_depth, rng_state):
    """Grow one CART regression tree on the given rows.

    Splits maximize SSE reduction over midpoint cuts of m predictors
    drawn per node (partial Fisher-Yates from the tree's rng stream).
    Returns parallel node arrays; feature == -1 marks a leaf.
    """
    n = rows.shape[0]
    p = x.shape[1]
    max_nodes = 2 * n + 1
    feature = np.full(max_nodes, -1, np.int64)
    cut = np.zeros(max_nodes, np.float64)
    reduction = np.zeros(max_nodes, np.float64)
    left = np.full(max_nodes, -1, np.int64)
    right = np.full(max_nodes, -1, np.int64)
    n_node = np.zeros(max_nodes, np.int64)
    value = np.zeros(max_nodes, np.float64)

    idx = rows.copy()
    tmp = np.empty(n, np.int64)
    feats = np.empty(p, np.int64)
    stream = SplitMix64(rng_state)

    # LIFO stack of (node, start, end, depth); left child pushed last so
    # it is processed first.
    stack_node = np.empty(max_nodes, np.int64)
    stack_lo = np.empty(max_nodes, np.int64)
    stack_hi = np.empty(max_nodes, np.int64)
    stack_depth = np.empty(max_nodes, np.int64)
    sp = 0
    stack_node[0], stack_lo[0], stack_hi[0], stack_depth[0] = 0, 0, n, 0
    sp = 1
    node_count = 1

    while sp > 0:
        sp -= 1
        node = stack_node[sp]
        lo = stack_lo[sp]
        hi = stack_hi[sp]
        depth = stack_depth[sp]
        s = hi - lo

        y_sum = 0.0
        for i in range(lo, hi):
            y_sum += y[idx[i]]
        mean = y_sum / s
        sse = 0.0
        c_sum = 0.0
        for i in range(lo, hi):
            c = y[idx[i]] - mean
            sse += c * c
            c_sum += c
        n_node[node] = s
        value[node] = mean

        if s < 2 * min_leaf or depth >= max_depth or sse <= 0.0:
            continue

        # Draw m distinct predictors: identity permutation, partial shuffle.
        for j in range(p):
            feats[j] = j
        for t in range(m):
            j = t + stream.below(p - t)
            feats[t], feats[j] = feats[j], feats[t]

        best_red = 0.0
        best_feat = np.int64(-1)
        best_cut = 0.0
        for t in range(m):
            f = feats[t]
            v = np.empty(s, np.float64)
            w = np.empty(s, np.float64)
            for i in range(s):
                v[i] = x[idx[lo + i], f]
            order = np.argsort(v)
            for i in range(s):
                w[i] = y[idx[lo + order[i]]] - mean
            s_left = 0.0
            q_left = 0.0
            prev = v[order[0]]
            for i in range(1, s):
                c = w[i - 1]
                s_left += c
                q_left += c * c
                cur = v[order[i]]
                if cur > prev and i >= min_leaf and s - i >= min_leaf:
                    s_right = c_sum - s_left
                    q_right = sse - q_left
                    red = (s_left * s_left) / i + (s_right * s_right) / (s - i) \
                        - (c_sum * c_sum) / s
                    if red > best_red:
                        best_red = red
                        best_feat = f
                        mid = 0.5 * (prev + cur)
                        if mid >= cur:
                            mid = prev
                        best_cut = mid
                prev = cur

        if best_feat < 0:
            continue

        # Stable partition: rows with value <= cut keep order on the left.
        nl = 0
        for i in range(lo, hi):
            if x[idx[i], best_feat] <= best_cut:
                tmp[nl] = idx[i]
                nl += 1
        nr = nl
        for i in range(lo, hi):
            if x[idx[i], best_feat] > best_cut:
                tmp[nr] = idx[i]
                nr += 1
        for i in range(s):
            idx[lo + i] = tmp[i]

        feature[node] = best_feat
        cut[node] = best_cut
        reduction[node] = best_red
        left_id = node_count
        right_id = node_count + 1
        node_count += 2
        left[node] = left_id
        right[node] = right_id
        stack_node[sp], stack_lo[sp], stack_hi[sp], stack_depth[sp] = \
            right_id, lo + nl, hi, depth + 1
        sp += 1
        stack_node[sp], stack_lo[sp], stack_hi[sp], stack_depth[sp] = \
            left_id, lo, lo + nl, depth + 1
        sp += 1

    return (feature[:node_count], cut[:node_count], reduction[:node_count],
            left[:node_count], right[:node_count], n_node[:node_count],
            value[:node_count])


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None            # None = unlimited
    min_samples_per_leaf: int = 5
    predictors_per_split: int | None = None  # None = ceil(p / 3)
    sample_size: int | None = None           # None = n, with replacement
    seed: int = 0

    def resolved_m(self, p: int) -> int:
        m = self.predictors_per_split if self.predictors_per_split is not None \
            else math.ceil(p / 3)
        if not 1 <= m <= p:
            raise ConfigError(f"predictors_per_split must be in [1, {p}], got {m}")
        return m

    def check(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_samples_per_leaf < 1:
            raise ConfigError("min_samples_per_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 or None")


@dataclass(frozen=True)
class TreeSplit:
    predictor: str
    cut: float
    sse_reduction: float


@dataclass(frozen=True)
class RegressionTree:
    """CART tree as parallel node arrays; feature -1 marks a leaf."""

    predictors: tuple[str, ...]
    feature: np.ndarray
    cut: np.ndarray
    sse_reduction: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_rows: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    @property
    def splits(self) -> list[TreeSplit]:
        out = []
        for i in range(self.n_nodes):
            f = int(self.feature[i])
            if f >= 0:
                out.append(TreeSplit(self.predictors[f], float(self.cut[i]),
                                     float(self.sse_reduction[i])))
        return out

    def contributions(self) -> np.ndarray:
        """Per-predictor sum of SSE reductions over this tree's splits."""
        contrib = np.zeros(len(self.predictors))
        for i in range(self.n_nodes):
            f = int(self.feature[i])
            if f >= 0:
                contrib[f] += float(self.sse_reduction[i])
        return contrib


@dataclass(frozen=True)
class PredictorScreen:
    predictor: str
    contribution: float
    portion: float
    rank: int


@dataclass(frozen=True)
class ScreeningResult:
    rows: tuple[PredictorScreen, ...]    # sorted by rank

    def by_predictor(self, name: str) -> PredictorScreen:
        for r in self.rows:
            if r.predictor == name:
                return r
        raise KeyError(name)

    def ranked_predictors(self) -> list[str]:
        return [r.predictor for r in self.rows]


def fit_regression_tree(ds: Dataset, predictors: Sequence[str], target: str,
                        cfg: ForestConfig,
                        sample_rows: np.ndarray | None = None,
                        rng_state: int | None = None) -> RegressionTree:
    """Grow a single CART tree on the given sample rows (default: all rows).

    Candidate cuts are midpoints between consecutive distinct values of
    the tried predictor within the node; each split records its SSE
    reduction, which is non-negative by construction (only strictly
    positive reductions are accepted).
    """
    cfg.check()
    names = tuple(predictors)
    if not names:
        raise ConfigError("empty predictor list")
    x = np.ascontiguousarray(ds.matrix(names))
    y = ds.column(target).astype(np.float64)
    rows = (np.arange(ds.n_records, dtype=np.int64) if sample_rows is None
            else np.asarray(sample_rows, dtype=np.int64))
    if rows.size == 0:
        raise DegenerateDataError("empty sample")
    m = cfg.resolved_m(len(names))
    depth_cap = cfg.max_depth if cfg.max_depth is not None else _UNLIMITED_DEPTH
    state = cfg.seed if rng_state is None else rng_state
    arrays = _grow_tree(x, y, rows, m, cfg.min_samples_per_leaf, depth_cap,
                        state)
    return RegressionTree(names, *arrays)


def screen_predictors(ds: Dataset, predictors: Sequence[str] | None = None,
                      target: str = TARGET,
                      cfg: ForestConfig = ForestConfig()) -> ScreeningResult:
    """Rank predictors by total split contribution across the forest.

    Contribution is the summed SSE reduction of every split using the
    predictor; portion normalizes contributions to 1.  Rank 1 is the
    largest portion; rank ties and zero-contribution predictors fall
    back to canonical predictor order.
    """
    names = tuple(predictors) if predictors is not None else PREDICTORS
    if len(names) < 2:
        raise ConfigError("screening needs at least 2 predictors")
    if target in names:
        raise ConfigError(f"target '{target}' is also a predictor")
    cfg.check()
    y = ds.column(target)
    if ds.n_records < 2 or float(np.ptp(y)) == 0.0:
        raise DegenerateDataError(f"target '{target}' has zero variance")
    x = np.ascontiguousarray(ds.matrix(names))
    n = ds.n_records
    size = cfg.sample_size if cfg.sample_size is not None else n
    if size < 1:
        raise ConfigError("sample_size must be >= 1")
    m = cfg.resolved_m(len(names))
    depth_cap = cfg.max_depth if cfg.max_depth is not None else _UNLIMITED_DEPTH

    y = y.astype(np.float64)
    contrib = np.zeros(len(names))
    for t in range(cfg.n_trees):
        rows, state = _bootstrap_rows(derive_seed(cfg.seed, t), n, size)
        arrays = _grow_tree(x, y, rows, m, cfg.min_samples_per_leaf,
                            depth_cap, state)
        contrib += RegressionTree(names, *arrays).contributions()

    total = float(contrib.sum())
    portions = contrib / total if total > 0.0 else np.zeros_like(contrib)
    order = sorted(range(len(names)), key=lambda i: (-portions[i], i))
    rows_out = []
    for rank0, i in enumerate(order):
        rows_out.append(PredictorScreen(names[i], float(contrib[i]),
                                        float(portions[i]), rank0 + 1))
    return ScreeningResult(tuple(rows_out))
