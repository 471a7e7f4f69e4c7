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

Tree growth is vectorised per node and fixes its floating-point order:
a node's m drawn predictors form one (m, s) block, one row per
predictor in draw order, and a row-wise ``np.argsort`` of the default
kind sorts each row as the 1-D call would, so tied values keep the
order, and with it the summation order, that a per-row loop sees; every
node total and running sum is a sequential ``np.add.accumulate`` scan
from 0.0, never a pairwise ``np.sum``; and a row-major ``argmax`` over
the block picks the first largest reduction in draw order, then cut
order, as a loop over the predictors that replaces the best only on a
strict ``>`` does.  The bytes are those of the plain per-row loop that
``tests/test_screening.py`` keeps as a reference.

Workers: the trees are split into contiguous blocks, one per CPU the
process may run on (``os.sched_getaffinity``), and each block after the
first is grown in a forked child that sends its per-tree contribution
rows back through a pipe.  Each tree reads only its own stream, and the
contributions are added in tree order from zeros, so the bytes do not
depend on the number of CPUs; a block whose worker fails is grown again
in the main process.  Without ``os.fork`` everything runs in process.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .ingest import Dataset, TARGET, resolve_predictors
from .rng import SplitMix64, derive_seed
from .stats import check_spread

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


def _grow_tree(x, y, rows, m, min_leaf, rng_state):
    """Grow one CART regression tree on the given rows; return its splits.

    Splits maximize SSE reduction over midpoint cuts of m predictors
    drawn per node (partial Fisher-Yates from the tree's rng stream).
    Returns (feature, reduction), indexed by node id: the predictor each
    node splits on (-1 for a leaf) and the reduction its split buys (0.0
    for a leaf).  The root is node 0, and a split gives its left and
    right children the next two ids.  Each node evaluates its m drawn
    predictors as one (m, s) block, in the order the module docstring
    pins, so the bytes are those of a per-row loop.
    """
    n = rows.shape[0]
    p = x.shape[1]
    # every leaf but a lone root holds min_leaf rows or more, so a tree
    # has at most ceil(n / min_leaf) leaves and twice that less one nodes
    max_nodes = 2 * -(-n // min_leaf) - 1
    feature = np.full(max_nodes, -1, np.int64)
    reduction = np.zeros(max_nodes, np.float64)

    block_rows = np.arange(m)[:, None]
    idx = rows.copy()
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
        c = ys - _running_total(ys) / s
        sse = _running_total(c * c)
        if sse <= 0.0:
            continue
        c_sum = _running_total(c)

        # Draw m distinct predictors: identity permutation, partial shuffle.
        feats = list(range(p))
        for t in range(m):
            j = t + stream.below(p - t)
            feats[t], feats[j] = feats[j], feats[t]

        # Row r of the block holds the r-th drawn predictor's values,
        # sorted.  A cut after the i-th sorted row leaves i rows on the
        # left; only first <= i <= last keeps both children at min_leaf
        # rows or more.
        vs = x[seg, np.array(feats[:m])[:, None]]
        order = vs.argsort(axis=1)
        vs = vs[block_rows, order]
        first, last = min_leaf, s - min_leaf
        n_left = sizes[first - 1:last]
        # red = s_left²/n_left + s_right²/n_right - c_sum²/s, left to
        # right, in place to spare (m, s) temporaries on large nodes; the
        # right-child sizes s - i are the left ones reversed
        red = c[order[:, :last]]
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
        ok = (vs[:, first:last + 1] > vs[:, first - 1:last]) & (red > 0.0)
        red[~ok] = -np.inf
        r, k = divmod(int(red.argmax()), red.shape[1])
        best_red = red[r, k]
        if not best_red > 0.0:
            continue
        prev = vs[r, first - 1 + k]
        cur = vs[r, first + k]
        mid = 0.5 * (prev + cur)
        best_cut = prev if mid >= cur else mid
        best_feat = feats[r]

        # Stable partition: rows with value <= cut keep order on the left.
        goes_left = x[seg, best_feat] <= best_cut
        nl = int(np.count_nonzero(goes_left))
        idx[lo:hi] = np.concatenate((seg[goes_left], seg[~goes_left]))

        feature[node] = best_feat
        reduction[node] = best_red
        stack.append((node_count + 1, lo + nl, hi))
        stack.append((node_count, lo, lo + nl))
        node_count += 2

    return feature[:node_count], reduction[:node_count]


def _worker_count(n_items: int) -> int:
    """One worker per CPU this process may run on, at most one per item;
    1 where the platform has no ``fork`` or no CPU affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _fork_worker(work, block: range) -> tuple[int, int]:
    """Fork a child that writes ``work(block)``'s float64 bytes to a pipe
    and exits; returns (pid, read end).  The child never returns here,
    and exits non-zero on any error."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            view = memoryview(work(block).tobytes())
            while view:
                view = view[os.write(write_end, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _in_forked_blocks(work, n_items: int, width: int) -> np.ndarray:
    """``work(range(n_items))``, an (n_items, width) float64 array, made
    of contiguous blocks of items, one block per worker.

    The parent forks a child for each block after the first, computes
    the first block itself, then reads each child's rows from its pipe.
    A block whose child could not start, exited non-zero or sent a short
    payload is computed again in the parent, so a worker failure costs
    time and never changes a byte, and a real error surfaces from the
    parent with its usual type.  Every child is reaped before return;
    if the parent's own block raises, the children are killed first.
    """
    workers = _worker_count(n_items)
    bounds = [n_items * w // workers for w in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []                       # (pid, read end), for blocks[1:]
    try:
        for block in blocks[1:]:
            try:
                children.append(_fork_worker(work, block))
            except OSError:
                break
        parts = [work(blocks[0])]
        payloads = [_read_to_end(fd) for _, fd in children]
    except BaseException:
        for pid, _ in children:         # their rows are no longer wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # close every read end before waiting, so no child blocks on a
        # full pipe
        for _, fd in children:
            os.close(fd)
        codes = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for i, block in enumerate(blocks[1:]):
        if i < len(children) and codes[i] == 0 \
                and len(payloads[i]) == len(block) * width * 8:
            parts.append(np.frombuffer(payloads[i]).reshape(len(block), width))
        else:
            parts.append(work(block))
    return np.concatenate(parts)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    seed: int = 0

    def check(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")


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

    Candidate cuts are midpoints between consecutive distinct values of
    the tried predictor within the node; each split records its SSE
    reduction, which is non-negative by construction (only strictly
    positive reductions are accepted).
    """
    cfg.check()
    names = resolve_predictors(predictors, target)
    n = ds.n_records
    if n == 0:
        raise DegenerateDataError("cannot grow a tree on an empty dataset")
    x = ds.matrix(names)
    y = ds.column(target).astype(np.float64)
    m = math.ceil(len(names) / 3)
    rows = np.arange(n, dtype=np.int64)
    splits = _grow_tree(x, y, rows, m, MIN_LEAF, cfg.seed)
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
    cfg.check()
    check_spread(ds, (target,))
    y = ds.column(target)
    if ds.n_records < 2 or float(np.ptp(y)) == 0.0:
        raise DegenerateDataError(f"target '{target}' has zero variance")
    x = ds.matrix(names)
    n = ds.n_records
    m = math.ceil(len(names) / 3)

    y = y.astype(np.float64)

    def grow(trees: range) -> np.ndarray:
        out = np.empty((len(trees), len(names)))
        for i, t in enumerate(trees):
            rows, state = _bootstrap_rows(derive_seed(cfg.seed, t), n, n)
            splits = _grow_tree(x, y, rows, m, MIN_LEAF, state)
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
