"""Bootstrap-forest predictor screening.

Rank predictors by how much squared-error reduction their splits buy
across an ensemble of CART regression trees grown on bootstrap samples.
The forest is used only for screening; it never predicts.  So a tree
records only its splits: for each node id, the predictor it splits on
(-1 for a leaf) and the SSE reduction the split buys.

Determinism: all sampling flows from one SplitMix64 stream per tree,
seeded as derive_seed(cfg.seed, tree_index).  The stream first yields
the bootstrap row draws, then the per-split predictor draws in
depth-first, left-child-first node order.  Identical (data, config,
seed) therefore reproduce bit-identical results.

Tree growth reads no predictor value, only its order: each column is
ranked once per forest, densely with ties equal, and a tree sorts on the
unique int64 key (rank << 32) | bootstrap position, so by rank, then by
bootstrap position, whatever the sort kind or SIMD level.  A node's m
drawn predictors form one (m, s) block of keys, one row per predictor
in draw order; every node total and running sum is a sequential
``np.add.accumulate`` scan from 0.0, never a pairwise ``np.sum``; and a
row-major ``argmax`` over the block picks the first largest reduction
in draw order, then cut order, as a loop over the predictors that
replaces the best only on a strict ``>`` does.  These are the bytes of
the stable-sorting per-row loop ``tests/test_screening.py`` keeps.

Workers: the trees are split into contiguous blocks, one per CPU the
process may run on (``os.sched_getaffinity``), and each block after the
first is grown in a forked child that writes its per-tree contribution
rows straight into one array shared with the parent.  A child's exit
status alone marks its rows as good: a block whose worker did not exit
0 is grown again in the main process.  Each tree reads only its own
stream, and the contributions are added in tree order from zeros, so
the bytes do not depend on the number of CPUs.  Without ``os.fork``
everything runs in process.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .ingest import Dataset, TARGET, resolve_predictors
from .rng import SplitMix64, derive_seed

MIN_LEAF = 5                # fewest rows a leaf may hold


def _bootstrap_rows(seed, n, size):
    """SplitMix64 bootstrap draws; returns (rows, advanced rng state)."""
    stream = SplitMix64(int(seed))
    rows = stream.integers_below(n, size)
    return rows, stream._state


def _running_total(a):
    """Left-to-right sum starting from 0.0, as a scalar loop adds.

    ``np.add.accumulate`` is a sequential scan (``np.sum`` is pairwise);
    the trailing ``+ 0.0`` turns an all-negative-zero total into 0.0,
    as the loop's 0.0 start does.
    """
    return np.add.accumulate(a)[-1] + 0.0


def _grow_tree(ranks, y, rows, m, min_leaf, rng_state):
    """Grow one CART regression tree on the given rows; return its splits.

    Splits maximize SSE reduction over cuts between distinct values of m
    predictors drawn per node (partial Fisher-Yates from the tree's rng
    stream), whose dense ranks ``ranks`` holds.  Returns (feature,
    reduction), indexed by node id: the predictor each node splits on (-1
    for a leaf) and the reduction its split buys (0.0 for a leaf).  The
    root is node 0, and a split gives its left and right children the
    next two ids.  Each node evaluates its m drawn predictors as one
    (m, s) block of sort keys, in the order the module docstring pins.
    """
    n = rows.shape[0]
    p = ranks.shape[1]
    # every leaf but a lone root holds min_leaf rows or more, so a tree
    # has at most ceil(n / min_leaf) leaves and twice that less one nodes
    max_nodes = 2 * -(-n // min_leaf) - 1
    feature = np.full(max_nodes, -1, np.int64)
    reduction = np.zeros(max_nodes, np.float64)

    # a node holds bootstrap positions, each keyed (rank << 32) | position
    keys = (ranks[rows] << 32) | np.arange(n)[:, None]
    y = y[rows]
    idx = np.arange(n)
    stream = SplitMix64(rng_state)
    sizes = np.arange(1, n, dtype=np.int64)     # left-child sizes of cuts

    # LIFO stack of (node, start, end); left child pushed last so it is
    # processed first.
    stack = [(0, 0, n)]
    node_count = 1

    while stack:
        node, lo, hi = stack.pop()
        s = hi - lo
        if s < 2 * min_leaf:
            continue
        seg = idx[lo:hi]
        ys = y[seg]
        mean = _running_total(ys) / s
        c = ys - mean
        sse = _running_total(c * c)
        if sse <= 0.0:
            continue
        c_sum = _running_total(c)

        # Draw m distinct predictors: identity permutation, partial shuffle.
        feats = list(range(p))
        for t in range(m):
            j = t + stream.below(p - t)
            feats[t], feats[j] = feats[j], feats[t]

        # Row r of the block holds the r-th drawn predictor's keys,
        # sorted; a key's low 32 bits are its row's position.  A cut after
        # the i-th sorted row leaves i rows on the left; only
        # first <= i <= last keeps both children at min_leaf rows or more.
        ks = keys[seg, np.array(feats[:m])[:, None]]
        ks.sort(axis=1)
        first, last = min_leaf, s - min_leaf
        n_left = sizes[first - 1:last]
        # red = s_left²/n_left + s_right²/n_right - c_sum²/s, left to
        # right, in place to spare (m, s) temporaries on large nodes; the
        # right-child sizes s - i are the left ones reversed
        red = y[ks[:, :last] & 0xFFFFFFFF]
        red -= mean
        np.add.accumulate(red, axis=1, out=red)
        red = red[:, first - 1:]
        s_right = c_sum - red
        red *= red
        red /= n_left
        s_right *= s_right
        s_right /= n_left[::-1]
        red += s_right
        red -= (c_sum * c_sum) / s
        # a cut needs distinct values astride it and a positive
        # reduction; masked cells (NaN among them) become -inf, so the
        # row-major argmax is the first best in draw, then cut, order
        rk = ks[:, first - 1:last + 1] >> 32
        ok = (rk[:, 1:] > rk[:, :-1]) & (red > 0.0)
        red[~ok] = -np.inf
        r, k = divmod(int(red.argmax()), red.shape[1])
        best_red = red[r, k]
        if not best_red > 0.0:
            continue
        best_feat = feats[r]

        # Stable partition: keys up to the last left row's go left, in order.
        goes_left = keys[seg, best_feat] <= ks[r, first - 1 + k]
        nl = int(np.count_nonzero(goes_left))
        idx[lo:hi] = np.concatenate((seg[goes_left], seg[~goes_left]))

        feature[node] = best_feat
        reduction[node] = best_red
        stack.append((node_count + 1, lo + nl, hi))
        stack.append((node_count, lo, lo + nl))
        node_count += 2

    return feature[:node_count], reduction[:node_count]


def _ranked_inputs(ds: Dataset, names: Sequence[str], target: str):
    """(ranks, y): each predictor's dense ranks, ties equal, as an (n, p)
    int64 matrix, and the target as float64.  A Dataset's cells are all
    finite, so no rank stands for a NaN, and the target's sum of squared
    deviations does not overflow."""
    ranks = np.empty((ds.n_records, len(names)), np.int64)
    for j, name in enumerate(names):
        ranks[:, j] = np.unique(ds.column(name), return_inverse=True)[1]
    return ranks, ds.column(target).astype(np.float64)


def _worker_count(n_items: int) -> int:
    """One worker per CPU this process may run on, at most one per item;
    1 where the platform has no ``fork`` or no CPU affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _in_forked_blocks(work, n_items: int, width: int) -> np.ndarray:
    """``work(range(n_items))``, an (n_items, width) float64 array, made
    of contiguous blocks of items, one block per worker.

    The result lives in one anonymous shared mapping, made before any
    fork.  The parent forks a child for each block after the first; the
    child writes ``work(block)`` straight into its own rows and exits 0,
    or exits 1 on any error.  The parent computes the first block itself
    and reaps every child.  The exit status alone marks a block as good:
    a block whose child could not start or did not exit 0 is computed
    again in the parent, so a worker failure costs time and never
    changes a byte, and a real error surfaces from the parent with its
    usual type.  If the parent's own block raises, the children are
    killed before they are reaped.
    """
    workers = _worker_count(n_items)
    bounds = [n_items * w // workers for w in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    out = np.frombuffer(mmap.mmap(-1, n_items * width * 8))
    out = out.reshape(n_items, width)
    children = []                       # pids, for blocks[1:]
    try:
        for block in blocks[1:]:
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                code = 1
                try:
                    out[block.start:block.stop] = work(block)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        out[:blocks[0].stop] = work(blocks[0])
    except BaseException:
        for pid in children:            # their rows are no longer wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitpid(pid, 0)[1] for pid in children]
    for i, block in enumerate(blocks[1:]):
        if i >= len(children) or codes[i] != 0:
            out[block.start:block.stop] = work(block)
    return out


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        """ConfigError unless n_trees is an int >= 1 and seed an int
        (a bool or a numpy integer is neither)."""
        if type(self.n_trees) is not int or self.n_trees < 1:
            raise ConfigError(f"n_trees must be an integer >= 1, got {self.n_trees!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class RegressionTree:
    """CART tree as its splits: per node id, the predictor split on
    (-1 for a leaf) and the SSE reduction the split buys."""

    predictors: tuple[str, ...]
    feature: np.ndarray
    sse_reduction: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def contributions(self) -> np.ndarray:
        """Per-predictor sum of SSE reductions over this tree's splits,
        each added in node order from 0.0 (a tree without splits gets
        float zeros, not bincount's integer ones)."""
        split = self.feature >= 0
        return np.bincount(self.feature[split], self.sse_reduction[split],
                           len(self.predictors)).astype(np.float64, copy=False)


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
                        cfg: ForestConfig) -> RegressionTree:
    """Grow a single CART tree on all rows, its split draws seeded with
    ``cfg.seed``.

    Candidate cuts lie between consecutive distinct values of the tried
    predictor within the node; a split is taken only for a strictly
    positive SSE reduction, which it records.
    """
    names = resolve_predictors(predictors, target)
    n = ds.n_records
    if n == 0:
        raise DegenerateDataError("cannot grow a tree on an empty dataset")
    ranks, y = _ranked_inputs(ds, names, target)
    m = math.ceil(len(names) / 3)
    rows = np.arange(n, dtype=np.int64)
    splits = _grow_tree(ranks, y, rows, m, MIN_LEAF, cfg.seed)
    return RegressionTree(names, *splits)


def screen_predictors(ds: Dataset, predictors: Sequence[str] | None = None,
                      target: str = TARGET,
                      cfg: ForestConfig = ForestConfig()) -> ScreeningResult:
    """Rank predictors by total split contribution across the forest.

    Contribution is the summed SSE reduction of every split using the
    predictor; portion normalizes contributions to 1.  Rank 1 is the
    largest portion; rank ties and zero-contribution predictors fall
    back to canonical predictor order.
    """
    names = resolve_predictors(predictors, target)
    if len(names) < 2:
        raise ConfigError("screening needs at least 2 predictors")
    ranks, y = _ranked_inputs(ds, names, target)
    if ds.n_records < 2 or float(np.ptp(y)) == 0.0:
        raise DegenerateDataError(f"target '{target}' has zero variance")
    n = ds.n_records
    m = math.ceil(len(names) / 3)

    def grow(trees: range) -> np.ndarray:
        out = np.empty((len(trees), len(names)))
        for i, t in enumerate(trees):
            rows, state = _bootstrap_rows(derive_seed(cfg.seed, t), n, n)
            splits = _grow_tree(ranks, y, rows, m, MIN_LEAF, state)
            out[i] = RegressionTree(names, *splits).contributions()
        return out

    contrib = np.zeros(len(names))
    for row in _in_forked_blocks(grow, cfg.n_trees, len(names)):
        contrib += row

    total = float(contrib.sum())
    portions = contrib / total if total > 0.0 else np.zeros_like(contrib)
    order = sorted(range(len(names)), key=lambda i: (-portions[i], i))
    rows_out = []
    for rank0, i in enumerate(order):
        rows_out.append(PredictorScreen(names[i], float(contrib[i]),
                                        float(portions[i]), rank0 + 1))
    return ScreeningResult(tuple(rows_out))
