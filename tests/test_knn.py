import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemskit.errors import ConfigError, DataError, DegenerateDataError
from pemskit.ingest import Dataset
from pemskit.knn import (
    DEFAULT_FRACTIONS,
    PARTITIONS,
    WEIGHTINGS,
    KnnModel,
    SplitAssignment,
    _BLOCK_QUERIES,
    _CHUNK_ROWS,
    _CHUNKS,
    _augment,
    _fold_all,
    _partition_counts,
    _scan,
    _self_positions,
    compare_pooled_vs_yearly,
    evaluate,
    evaluate_all,
    fit_knn,
    load_model,
    predict,
    predict_rows,
    residuals,
    save_model,
    select_k,
    split,
)
from pemskit.synthetic import make_dataset

# ------------------------------------------------------------- the oracle
#
# Independent brute-force reimplementation of the exactness contract:
# standardize with the model's means/stds, accumulate squared distance
# predictor by predictor, order candidates by (squared distance, training
# index), and fold the first k.  Plain Python floats throughout.


def _oracle_predict(model, raw_q, self_row=None, k=None, weighting=None):
    k = model.k if k is None else k
    weighting = model.weighting if weighting is None else weighting
    p = len(model.predictors)
    qz = [(float(raw_q[j]) - float(model.means[j])) / float(model.stds[j])
          for j in range(p)]
    cands = []
    for t in range(model.n_training):
        if self_row is not None and int(model.train_rows[t]) == self_row:
            continue
        d2 = 0.0
        for j in range(p):
            diff = qz[j] - float(model.train_z[t, j])
            d2 += diff * diff
        cands.append((d2, t))
    cands.sort()
    sel = cands[:k]
    if sel[0][0] == 0.0:
        zero = [float(model.train_y[t]) for d2, t in sel if d2 == 0.0]
        total = 0.0
        for v in zero:
            total += v
        return total / len(zero)
    if weighting == "uniform":
        total = 0.0
        for _, t in sel:
            total += float(model.train_y[t])
        return total / k
    num = 0.0
    den = 0.0
    for d2, t in sel:
        d = math.sqrt(d2)
        num += float(model.train_y[t]) / d
        den += 1.0 / d
    return num / den


def _ds_from_matrix(x, y, years=None):
    n = x.shape[0]
    cols = {f"p{j}": np.ascontiguousarray(x[:, j]) for j in range(x.shape[1])}
    cols["y"] = np.asarray(y, dtype=np.float64)
    if years is None:
        years = np.full(n, 2011, dtype=np.int64)
    tags = tuple(sorted(set(int(v) for v in years)))
    return Dataset(cols, np.asarray(years, dtype=np.int64), tags)


def _random_instance(rng):
    n = int(rng.integers(12, 120))
    p = int(rng.integers(1, 5))
    # snap to a coarse grid so exact duplicates and distance ties occur
    x = np.round(rng.normal(size=(n, p)) * 2.0) / 2.0
    y = np.round(rng.normal(size=n) * 10.0, 1)
    ds = _ds_from_matrix(x, y)
    assignment = split(ds, seed=int(rng.integers(0, 1000)))
    k = int(rng.integers(1, max(2, assignment.counts()["Training"] - 1)))
    weighting = "uniform" if rng.integers(2) else "inverse_distance"
    leave = bool(rng.integers(2))
    names = tuple(f"p{j}" for j in range(p))
    try:
        model = fit_knn(ds, assignment, names, "y", k, weighting, leave)
    except DegenerateDataError:
        return None  # a grid column went constant in Training; skip
    return ds, model


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(20260826)
    checked = 0
    instances = 0
    while instances < 50:
        inst = _random_instance(rng)
        if inst is None:
            continue
        instances += 1
        ds, model = inst
        predicted = predict_rows(model, ds)
        for i in range(ds.n_records):
            raw = [ds.column(n)[i] for n in model.predictors]
            want = _oracle_predict(model, raw,
                                   i if model.leave_self_out else None)
            assert predicted[i] == want, (
                f"instance {instances} row {i}: {predicted[i]!r} != {want!r}")
            checked += 1
    assert checked > 2000


def _reference_scan(train_z, train_rows, q_z, self_rows, k):
    """Loop scan: top-k by (squared distance, training index), with
    insertion into the sorted top-k keeping earlier rows on ties."""
    n_q = q_z.shape[0]
    n_t = train_z.shape[0]
    p = train_z.shape[1]
    tz = train_z.tolist()
    qz = q_z.tolist()
    out_d2 = np.empty((n_q, k), np.float64)
    out_ix = np.empty((n_q, k), np.int64)
    for qi in range(n_q):
        best_d2 = [math.inf] * k
        best_ix = [-1] * k
        me = self_rows[qi]
        for t in range(n_t):
            if train_rows[t] == me:
                continue
            d2 = 0.0
            for j in range(p):
                diff = qz[qi][j] - tz[t][j]
                d2 += diff * diff
            if d2 < best_d2[k - 1]:
                pos = k - 1
                while pos > 0 and d2 < best_d2[pos - 1]:
                    best_d2[pos] = best_d2[pos - 1]
                    best_ix[pos] = best_ix[pos - 1]
                    pos -= 1
                best_d2[pos] = d2
                best_ix[pos] = t
        out_d2[qi] = best_d2
        out_ix[qi] = best_ix
    return out_d2, out_ix


def _blocked_reference_scan(train_z, q_z, own, k):
    """The blocked scan that _scan's filter replaced: every squared
    distance of a block of queries, accumulated in place predictor by
    predictor in declared order, then the candidates at or below the k-th
    smallest, ordered by (distance, index).  Unlike the loop scan it also
    ranks infinite distances."""
    n_q, p = q_z.shape
    n_t = train_z.shape[0]
    out_d2 = np.empty((n_q, k), np.float64)
    out_ix = np.empty((n_q, k), np.int64)
    block = max(1, (1 << 16) // n_t)
    first_k = np.arange(k)
    for lo in range(0, n_q, block):
        hi = min(lo + block, n_q)
        q = q_z[lo:hi]
        d2 = np.subtract(q[:, :1], train_z[:, 0])
        np.multiply(d2, d2, out=d2)
        for j in range(1, p):
            tmp = np.subtract(q[:, j:j + 1], train_z[:, j])
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
        me = own[lo:hi]
        left_out = np.nonzero(me >= 0)[0]
        d2[left_out, me[left_out]] = np.inf
        bound = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        cand = np.flatnonzero(d2 <= bound)
        row, col = np.divmod(cand, n_t)
        dist = d2.ravel()[cand]
        order = np.lexsort((col, dist, row))
        counts = np.bincount(row, minlength=hi - lo)
        take = order[((np.cumsum(counts) - counts)[:, None] + first_k).ravel()]
        out_d2[lo:hi] = dist[take].reshape(hi - lo, k)
        out_ix[lo:hi] = col[take].reshape(hi - lo, k)
    return out_d2, out_ix


def _reference_fold(d2_row, ix_row, train_y, k: int, weighting: str) -> float:
    """Scalar left-to-right fold of the first k neighbors of one query."""
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


def _assert_scan_matches(train_z, train_rows, q_z, self_rows, ks):
    # the top-k under a total order is a prefix of the top-k_max, so one
    # reference run at the largest k checks every smaller k too
    d2a, ixa = _reference_scan(train_z, train_rows, q_z, self_rows, max(ks))
    own = _self_positions(train_rows, self_rows)
    for k in ks:
        d2b, ixb = _scan(train_z, q_z, own, k, _augment(train_z))
        assert d2b.tobytes() == d2a[:, :k].tobytes(), k
        assert np.array_equal(ixb, ixa[:, :k]), k


def _assert_scan_matches_blocked(train_z, q_z, own, k):
    # _scan keeps its own overflow quiet; the reference does not
    with np.errstate(over="ignore"):
        d2a, ixa = _blocked_reference_scan(train_z, q_z, own, k)
    d2b, ixb = _scan(train_z, q_z, own, k, _augment(train_z))
    assert d2b.tobytes() == d2a.tobytes()
    assert np.array_equal(ixb, ixa)


def test_scan_matches_reference_loop():
    rng = np.random.default_rng(77)
    train_z = np.ascontiguousarray(np.round(rng.normal(size=(90, 3)), 1))
    q_z = np.ascontiguousarray(np.round(rng.normal(size=(40, 3)), 1))
    train_rows = np.arange(90, dtype=np.int64)
    self_rows = np.full(40, -1, dtype=np.int64)
    self_rows[:10] = np.arange(10)
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (1, 5, 17))


@pytest.mark.parametrize("order", ["C", "F"])
def test_scan_matches_reference_across_blocks(order):
    # 150 queries x 2,600 training rows: two full blocks of queries and
    # a partial last one; a half-unit grid makes distance ties common
    rng = np.random.default_rng(5)
    n_t, n_q = 2600, 150
    assert n_q > 2 * _BLOCK_QUERIES and n_q % _BLOCK_QUERIES != 0
    train_z = np.asarray(np.round(rng.normal(size=(n_t, 3)) * 2.0) / 2.0,
                         order=order)
    q_z = np.round(rng.normal(size=(n_q, 3)) * 2.0) / 2.0
    # training rows carry dataset row ids 1000.. in shuffled order; some
    # queries are their own training rows, others are not training rows
    train_rows = rng.permutation(n_t).astype(np.int64) + 1000
    self_rows = np.full(n_q, -1, dtype=np.int64)
    own = rng.integers(0, n_t, size=self_rows[::3].size)
    self_rows[::3] = train_rows[own]
    q_z[::3] = train_z[own]
    self_rows[1::7] = 7   # a dataset row that is not a training row
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (1, 4, 9))


def test_scan_self_row_at_the_tie_bound():
    # eight coincident training points; each query sits on them and is
    # itself one of them, so the k-th distance is a tie that the self
    # row would win on index without the exclusion
    train_z = np.zeros((12, 2))
    train_z[8:] = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [-1.0, 0.5]]
    train_rows = np.arange(100, 112, dtype=np.int64)
    q_z = np.zeros((8, 2))
    self_rows = np.arange(100, 108, dtype=np.int64)
    for order in ("C", "F"):
        tz = np.asarray(train_z, order=order)
        _assert_scan_matches(tz, train_rows, q_z, self_rows, (1, 3, 7, 8, 9))


def test_scan_k_is_all_but_self_under_leave_self_out():
    rng = np.random.default_rng(11)
    n_t = 30
    train_z = np.round(rng.normal(size=(n_t, 2)), 1)
    train_rows = np.arange(n_t, dtype=np.int64) * 2
    q_z = train_z[::2].copy()
    self_rows = train_rows[::2].copy()
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (n_t - 1,))
    with pytest.raises(DegenerateDataError, match="exceeds available"):
        _scan(train_z, q_z, _self_positions(train_rows, self_rows), n_t,
              _augment(train_z))


def test_scan_k_is_all_but_self_past_the_chunk_count():
    # k = 299 puts the 300 training rows in 299 chunks, all but one with
    # a single row; a query whose own row sits alone has a +inf bound,
    # so every row but its own is a candidate
    rng = np.random.default_rng(12)
    n_t = 300
    train_z = np.round(rng.normal(size=(n_t, 3)), 1)
    train_rows = np.arange(n_t, dtype=np.int64) * 3
    q_z = train_z[::7].copy()
    self_rows = train_rows[::7].copy()
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (n_t - 1,))


def test_scan_matches_reference_past_the_chunk_minimum():
    # 9,000 training rows need ceil(9000 / 64) = 141 chunks, more than
    # the 128-chunk minimum; a half-unit grid makes ties common and every
    # third query is its own training row
    rng = np.random.default_rng(13)
    n_t, n_q = 9000, 16
    assert -(-n_t // _CHUNK_ROWS) > _CHUNKS
    train_z = np.round(rng.normal(size=(n_t, 3)) * 2.0) / 2.0
    q_z = np.round(rng.normal(size=(n_q, 3)) * 2.0) / 2.0
    train_rows = np.arange(n_t, dtype=np.int64)
    self_rows = np.full(n_q, -1, dtype=np.int64)
    self_rows[::3] = rng.integers(0, n_t, size=self_rows[::3].size)
    q_z[::3] = train_z[self_rows[::3]]
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (1, 10))


def test_scan_filter_margin_separates_near_ties():
    # |z| near 1e3 makes the float32 product's rounding error (~1 here)
    # dwarf the distances between training points 1e-7 apart, some of
    # them duplicated: only the error term E keeps the true top k among
    # the candidates
    rng = np.random.default_rng(8)
    p = 9
    centre = rng.uniform(-1e3, 1e3, size=p)
    line = centre + np.outer(np.arange(40) * 1e-7, np.eye(p)[0])
    train_z = np.concatenate([line, line[::2],
                              centre + rng.normal(size=(220, p))])
    rng.shuffle(train_z)
    q_z = centre + np.outer(rng.uniform(-1e-6, 5e-6, 30), np.eye(p)[0])
    q_z[:10] += rng.normal(scale=1e-7, size=(10, p))
    train_rows = np.arange(train_z.shape[0], dtype=np.int64)
    self_rows = np.full(30, -1, dtype=np.int64)
    _assert_scan_matches(train_z, train_rows, q_z, self_rows, (5,))


def test_scan_filter_margin_covers_underflow():
    # at |z| near 1e-160 every float64 square underflows into the
    # subnormals, and every float32 input of the filter rounds to 0, so
    # G is 0 for every row and the refine alone orders the subnormal
    # distances; a half-unit grid makes ties common
    rng = np.random.default_rng(2)
    train_rows = np.arange(300, dtype=np.int64)
    self_rows = np.full(40, -1, dtype=np.int64)
    for scale in (1e-158, 1e-161, 1e-163):
        train_z = np.round(rng.normal(size=(300, 4)) * 4.0) / 4.0 * scale
        q_z = np.round(rng.normal(size=(40, 4)) * 4.0) / 4.0 * scale
        _assert_scan_matches(train_z, train_rows, q_z, self_rows, (5,))


def test_scan_keeps_nan_filter_cells_near_the_float_limit():
    # |q|² and |t|² overflow near ±1.7e308, so the matrix product gives
    # inf - inf = NaN for the pairs whose distances are finite; those
    # cells must stay candidates
    rng = np.random.default_rng(4)
    train_z = rng.normal(size=(300, 3))
    big = np.array([[1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0],
                    [1.6e308, 0.0, 1.0], [-1.7e308, 0.0, 0.0],
                    [-1.7e308, 0.5, 0.0], [-1.69e308, 0.0, 0.0]])
    at = [5, 50, 90, 130, 200, 299]
    train_z[at] = big
    q_z = np.concatenate([big + [0.0, 0.25, 0.0], big[:2],
                          rng.normal(size=(4, 3))])
    own = np.full(q_z.shape[0], -1, dtype=np.int64)
    own[6:8] = at[:2]
    # the distances to all other rows overflow in both scans; the loop
    # scan would not rank an infinite distance, so the blocked one is
    # the reference here
    _assert_scan_matches_blocked(train_z, q_z, own, 3)
    # |q|², |t|² and -2t overflow but no distance does: the filter adds
    # no warning
    same = np.full((300, 3), 1e308)
    d2, ix = _scan(same, same[:2], np.full(2, -1, dtype=np.int64), 3,
                   _augment(same))
    assert not d2.any() and (ix == [0, 1, 2]).all()


@pytest.mark.parametrize("scale", [10.0, 100.0])
def test_scan_float32_margin_separates_near_ties(scale):
    # the float32 product errs by ~u·M² (about 1e-4 at |z| near 10 and
    # 1e-2 near 100), far more than the distances between training
    # points 1e-5 apart, some duplicated: only E's relative term keeps
    # the true top k among the candidates
    rng = np.random.default_rng(21)
    p = 9
    centre = rng.uniform(-scale, scale, size=p)
    line = centre + np.outer(np.arange(40) * 1e-5, np.eye(p)[0])
    train_z = np.concatenate([line, line[::3],
                              centre + rng.normal(size=(250, p))])
    rng.shuffle(train_z)
    q_z = centre + np.outer(rng.uniform(-1e-4, 5e-4, 40), np.eye(p)[0])
    q_z[:15] += rng.normal(scale=1e-5, size=(15, p))
    own = np.full(40, -1, dtype=np.int64)
    own[::4] = rng.integers(0, train_z.shape[0], size=10)
    _assert_scan_matches_blocked(train_z, q_z, own, 5)


@pytest.mark.parametrize("scale", [1e-20, 1e-23, 1e-26])
def test_scan_float32_margin_covers_underflow(scale):
    # squares near 1e-40 are float32 subnormals, near 1e-46 they round
    # to 0 or the smallest subnormal, and near 1e-52 (with z itself a
    # normal float32) to 0: there a rounding errs by up to 2**-150
    # absolutely, however small E's relative term; a half-unit grid
    # makes ties common
    rng = np.random.default_rng(6)
    train_z = np.round(rng.normal(size=(300, 4)) * 4.0) / 4.0 * scale
    q_z = np.round(rng.normal(size=(70, 4)) * 4.0) / 4.0 * scale
    q_z[::5] = train_z[:14]
    own = np.full(70, -1, dtype=np.int64)
    own[::10] = np.arange(7)
    _assert_scan_matches_blocked(train_z, q_z, own, 5)


@pytest.mark.parametrize("scale", [1e17, 1.2e19, 1e20, 1e30])
def test_scan_float32_cutoff_past_the_float32_range(scale):
    # values finite in float64 near or past the end of float32, in one
    # block with ordinary queries.  Past 1e19 a square overflows float32,
    # so G is NaN or ±inf; at 1.2e19 the squares do not, but a product
    # with a decoy row 1.25 times as far out does, and G = -inf for the
    # decoys would make the bound -inf.  Past the cutoff every row is a
    # candidate, while the ordinary queries keep their own bound.
    rng = np.random.default_rng(13)
    p = 3
    line = rng.normal(size=(30, p))
    line[:, 0] = scale * (1.0 + np.arange(30) * 1e-6)
    decoys = line[:10] * [1.25, 1.0, 1.0]
    at = rng.choice(400, size=40, replace=False)
    train_z = rng.normal(size=(400, p))
    train_z[at] = np.concatenate([line, decoys])
    q_z = rng.normal(size=(_BLOCK_QUERIES + 10, p))
    q_z[::3] = line[rng.integers(0, 30, size=25)] \
        + rng.normal(size=(25, p)) * [scale * 1e-7, 1.0, 1.0]
    q_z[1::9] = line[:9]
    own = np.full(q_z.shape[0], -1, dtype=np.int64)
    own[1::9] = at[:9]
    _assert_scan_matches_blocked(train_z, q_z, own, 3)
    ordinary = np.delete(train_z, at, axis=0)
    _assert_scan_matches_blocked(ordinary, q_z,
                                 np.full(q_z.shape[0], -1, dtype=np.int64), 3)


def test_scan_memory_is_bounded():
    rng = np.random.default_rng(3)
    train_z = rng.normal(size=(5000, 3))
    q_z = rng.normal(size=(4000, 3))
    own = np.arange(4000, dtype=np.int64)
    tracemalloc.start()
    try:
        _scan(train_z, q_z, own, 5, _augment(train_z))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _dict_self_positions(train_rows, self_rows):
    where = {int(row): t for t, row in enumerate(train_rows)}
    return [where.get(int(row), -1) for row in self_rows]


_SHUFFLED = np.random.default_rng(8).permutation(np.arange(5, 600, 3))


@pytest.mark.parametrize("train_rows, self_rows", [
    # shuffled; absent, -1, below every training row, above every one
    ([7, 3, 12, 5, 9], [3, 4, -1, 2, 0, 13, 100, 12, 7, 9, 5]),
    (_SHUFFLED, np.arange(-2, 605)),
    ([7, 3, 12, 5, 9], [5, 5, 9, 5, 5]),     # a repeated self row
    ([7, 3, 12], []),                        # no queries
    ([4], [4, 3, 5, -1, 4]),                 # a one-row model
], ids=["shuffled", "shuffled-span", "repeated", "no-queries", "one-row"])
def test_self_positions_matches_a_dict_lookup(train_rows, self_rows):
    train_rows = np.asarray(train_rows, dtype=np.int64)
    self_rows = np.asarray(self_rows, dtype=np.int64)
    pos = _self_positions(train_rows, self_rows)
    assert pos.dtype == np.int64 and pos.shape == self_rows.shape
    assert pos.tolist() == _dict_self_positions(train_rows, self_rows)


_fold_d2 = st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.25, 4.0)),
                    min_size=1, max_size=8).map(sorted)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_fold_d2, st.randoms(use_true_random=False)),
                     min_size=1, max_size=12),
       train_y=st.lists(st.sampled_from((-0.0, 0.0, 1.5, -2.0, 7.25, 1e-3,
                                         -3.0e5)), min_size=8, max_size=8),
       weighting=st.sampled_from(WEIGHTINGS))
def test_fold_all_matches_reference_fold(rows, train_y, weighting):
    k_max = min(len(d) for d, _ in rows)
    d2 = np.array([d[:k_max] for d, _ in rows])
    ix = np.array([[r.randrange(8) for _ in range(k_max)] for _, r in rows],
                  dtype=np.int64)
    y = np.array(train_y)
    got = _fold_all(d2, ix, y, k_max, weighting)
    assert got.shape == (k_max, d2.shape[0])
    for k in range(1, k_max + 1):
        want = np.array([_reference_fold(d2[i], ix[i], y, k, weighting)
                         for i in range(d2.shape[0])])
        assert got[k - 1].tobytes() == want.tobytes(), k


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_fold_all_sums_start_at_plus_zero(weighting):
    # -0.0 targets first: the scalar fold's 0.0 + -0.0 is 0.0, where a
    # bare running sum of the targets would stay -0.0
    d2 = np.array([[0.0, 0.0, 1.0], [1.0, 4.0, 4.0]])
    ix = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int64)
    y = np.array([-0.0, -0.0, 5.0])
    got = _fold_all(d2, ix, y, 3, weighting)
    assert not np.signbit(got[:2]).any()
    for k in range(1, 4):
        want = np.array([_reference_fold(d2[i], ix[i], y, k, weighting)
                         for i in range(2)])
        assert got[k - 1].tobytes() == want.tobytes(), k


# ------------------------------------------------------------ fold rules


def _toy_model(k=2, weighting="inverse_distance", leave_self_out=False):
    return KnnModel(
        predictors=("x",),
        means=np.zeros(1),
        stds=np.ones(1),
        train_z=np.array([[0.0], [1.0]]),
        train_y=np.array([0.0, 10.0]),
        train_rows=np.array([0, 1], dtype=np.int64),
        k=k,
        weighting=weighting,
        leave_self_out=leave_self_out,
    )


def test_inverse_distance_hand_value():
    # distances 0.25 and 0.75: weights 4 and 4/3, prediction 2.5
    model = _toy_model()
    assert predict(model, {"x": 0.25}) == pytest.approx(2.5, abs=1e-12)


def test_uniform_hand_value():
    model = _toy_model(weighting="uniform")
    assert predict(model, {"x": 0.25}) == 5.0  # (0 + 10) / 2, exact
    # integer targets fold as floats, in both weightings
    for weighting in WEIGHTINGS:
        ints = replace(_toy_model(weighting=weighting),
                       train_y=np.array([0, 10]))
        assert predict(ints, {"x": 0.25}) == predict(
            _toy_model(weighting=weighting), {"x": 0.25})


def test_zero_distance_rule_beats_weighting():
    # query coincides with one neighbor: plain mean of the coincident
    # targets, never an infinite weight
    model = _toy_model()
    assert predict(model, {"x": 1.0}) == 10.0
    dup = KnnModel(("x",), np.zeros(1), np.ones(1),
                   np.array([[1.0], [1.0], [0.0]]),
                   np.array([4.0, 8.0, 100.0]),
                   np.arange(3, dtype=np.int64), 3, "inverse_distance", False)
    # two zero-distance neighbors among the selected: mean of those only
    assert predict(dup, {"x": 1.0}) == 6.0


def test_predict_validates_records():
    model = _toy_model()
    with pytest.raises(DataError, match="missing predictor 'x'"):
        predict(model, {"z": 1.0})
    with pytest.raises(DataError, match="non-finite"):
        predict(model, {"x": float("nan")})
    with pytest.raises(DataError, match="unsupported record type"):
        predict(model, [1.0])
    for bad in ("abc", None, True, [1.0], 1j):
        with pytest.raises(DataError, match="predictor 'x' must be a number"):
            predict(model, {"x": bad})
    with pytest.raises(DataError, match="non-finite"):
        predict(model, {"x": 10**400})
    want = predict(model, {"x": 0.25})
    for good in (np.float64(0.25), np.float32(0.25)):
        assert predict(model, {"x": good}) == want
    assert predict(model, {"x": 1}) == predict(model, {"x": 1.0})


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_a_record_far_from_every_training_row_is_refused(weighting):
    # afdp = 1e200 standardises to about 1e200: every declared-order
    # squared distance overflows, so no neighbor is nearer than another
    # and the inverse-distance fold would give 0/0.  No warning leaks
    # (warnings are errors here).
    ds = make_dataset(rows_per_year=60, seed=1)
    model = fit_knn(ds, split(ds, seed=1), k=3, weighting=weighting)
    other = make_dataset(years=(2016,), rows_per_year=8, seed=2)
    for value in (1e200, 1e308, -1e308):
        with pytest.raises(DataError, match="the record is too far"):
            predict(model, dict(other.record(0), afdp=value))
    afdp = other.column("afdp").copy()
    afdp[5] = 1e200
    far = Dataset({**other.columns, "afdp": afdp}, other.year, other.years)
    with pytest.raises(DataError, match="row 5 is too far"):
        predict_rows(model, far)
    # a record far out along one predictor but within float64 still
    # has a nearest neighbor
    assert math.isfinite(predict(model, dict(other.record(0), afdp=1e30)))
    assert predict_rows(model, far, [0, 1, 2]).tolist() == \
        predict_rows(model, other, [0, 1, 2]).tolist()


@pytest.mark.parametrize("rows, match", [
    (np.array([0, 10**6]), r"rows must lie in \[0, 80\)"),
    (np.array([-1, 3]), r"rows must lie in \[0, 80\)"),
    (np.array([0.0, 1.7]), "rows must be integers"),
    (np.array([True, False]), "rows must be integers, got bool"),
    (np.array([[0, 1]]), "rows must be 1-D"),
    (np.array(7), r"rows must be 1-D, got shape \(\)"),
], ids=["past-end", "negative", "fractional", "boolean", "two-d", "scalar"])
def test_predict_rows_validates_rows(tiny_ds, rows, match):
    model = fit_knn(tiny_ds, split(tiny_ds, seed=0), k=2)
    with pytest.raises(ConfigError, match=match):
        predict_rows(model, tiny_ds, rows)
    assert predict_rows(model, tiny_ds, []).shape == (0,)


# ----------------------------------------------------------------- split


def test_partition_counts_largest_remainder():
    assert _partition_counts(7411, DEFAULT_FRACTIONS) == [5188, 1112, 1111]
    assert _partition_counts(300, DEFAULT_FRACTIONS) == [210, 45, 45]
    assert _partition_counts(10, (0.5, 0.25, 0.25)) == [5, 3, 2]
    for n in (3, 17, 100, 7411):
        counts = _partition_counts(n, DEFAULT_FRACTIONS)
        assert sum(counts) == n
        for c, f in zip(counts, DEFAULT_FRACTIONS):
            assert abs(c - f * n) < 1.0


def test_split_stratifies_within_years(iid_ds):
    assignment = split(iid_ds, seed=3)
    assert assignment.counts() == {"Training": 1050, "Validation": 225, "Test": 225}
    for year in iid_ds.years:
        mask = iid_ds.year == year
        for code, frac in enumerate(DEFAULT_FRACTIONS):
            got = int((assignment.codes[mask] == code).sum())
            assert abs(got - frac * mask.sum()) < 1.0
    # rows() partitions the record index space
    all_rows = np.concatenate([assignment.rows(p) for p in PARTITIONS])
    assert sorted(all_rows) == list(range(iid_ds.n_records))
    labels = assignment.labels()
    assert labels[0] in PARTITIONS and len(labels) == iid_ds.n_records


def test_split_deterministic_and_seed_sensitive(iid_ds):
    a = split(iid_ds, seed=1)
    b = split(iid_ds, seed=1)
    c = split(iid_ds, seed=2)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)
    assert a.counts() == c.counts()  # counts depend only on sizes


def test_split_validates_fractions_and_year_size(tiny_ds):
    with pytest.raises(ConfigError, match="sum to 1"):
        split(tiny_ds, (0.5, 0.3, 0.3))
    with pytest.raises(ConfigError, match="positive"):
        split(tiny_ds, (1.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="3 fractions"):
        split(tiny_ds, (0.5, 0.5))
    two_rows = _ds_from_matrix(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(DegenerateDataError, match="fewer than 3"):
        split(two_rows)


# ------------------------------------------------------------------- fit


def test_fit_standardizes_on_training_rows_only(tiny_ds):
    assignment = split(tiny_ds, seed=0)
    model = fit_knn(tiny_ds, assignment, ("at", "tit"), "nox", k=3)
    train = assignment.rows("Training")
    assert model.means == pytest.approx(
        [tiny_ds.column("at")[train].mean(), tiny_ds.column("tit")[train].mean()])
    assert model.stds == pytest.approx(
        [tiny_ds.column("at")[train].std(ddof=1),
         tiny_ds.column("tit")[train].std(ddof=1)])
    assert model.n_training == train.shape[0]
    assert np.array_equal(model.train_rows, train)


def test_fit_rejects_bad_configuration(tiny_ds):
    assignment = split(tiny_ds, seed=0)
    with pytest.raises(ConfigError, match="k must be in"):
        fit_knn(tiny_ds, assignment, k=0)
    with pytest.raises(ConfigError, match="k must be in"):
        fit_knn(tiny_ds, assignment, k=10_000)
    with pytest.raises(ConfigError, match="weighting"):
        fit_knn(tiny_ds, assignment, weighting="gaussian")
    with pytest.raises(ConfigError, match="empty predictor"):
        fit_knn(tiny_ds, assignment, ())
    with pytest.raises(ConfigError, match="target 'nox' is also a predictor"):
        fit_knn(tiny_ds, assignment, ("at", "nox"), "nox")
    with pytest.raises(ConfigError, match="predictor 'at' is listed twice"):
        fit_knn(tiny_ds, assignment, ("at", "ap", "at"))
    x = np.zeros((30, 2))
    x[:, 1] = np.arange(30.0)
    flat = _ds_from_matrix(x, np.arange(30.0))
    with pytest.raises(DegenerateDataError, match="'p0' has zero variance"):
        fit_knn(flat, split(flat), ("p0", "p1"), "y", k=2)


def test_fit_names_a_predictor_whose_variance_overflows():
    # finite cells, overflowing squared deviations; warnings are errors here
    x = np.zeros((30, 2))
    x[:, 0] = np.arange(30.0)
    x[:, 1] = np.where(np.arange(30) % 2 == 0, 1.5e308, -1.5e308)
    wide = _ds_from_matrix(x, np.arange(30.0))
    with pytest.raises(DegenerateDataError,
                       match="variable 'p1': its variance overflows float64"):
        fit_knn(wide, split(wide), ("p0", "p1"), "y", k=2)


@pytest.mark.parametrize("call", [
    lambda ds: fit_knn(ds, split(ds), ("p0", "p1"), "y", k=2),
    lambda ds: select_k(ds, split(ds), ("p0", "p1"), "y", k_max=3),
    lambda ds: compare_pooled_vs_yearly(ds, k_max=3, predictors=("p0", "p1"),
                                        target="y"),
], ids=["fit_knn", "select_k", "compare_pooled_vs_yearly"])
def test_a_target_whose_variance_overflows_is_named(call):
    # finite cells, overflowing squared deviations; warnings are errors here
    x = np.column_stack([np.arange(60.0), np.arange(60.0) % 7])
    y = np.arange(60.0)
    y[:2] = (1.5e308, -1.5e308)
    wide = _ds_from_matrix(x, y, np.repeat([2011, 2012], 30))
    with pytest.raises(DegenerateDataError,
                       match=r"variable 'y' spans \[-1.5e\+308, 1.5e\+308\]: "
                             "its variance overflows float64"):
        call(wide)


def test_leave_self_out_changes_training_predictions(tiny_ds):
    assignment = split(tiny_ds, seed=0)
    train = assignment.rows("Training")
    honest = fit_knn(tiny_ds, assignment, k=1, leave_self_out=True)
    leaky = fit_knn(tiny_ds, assignment, k=1, leave_self_out=False)
    y = tiny_ds.column("nox")[train]
    # with itself available, the 1-NN of a training row is the row itself
    assert np.array_equal(predict_rows(leaky, tiny_ds, train), y)
    assert not np.array_equal(predict_rows(honest, tiny_ds, train), y)
    # bare-record prediction has no row identity, so no self-exclusion
    rec = tiny_ds.record(int(train[0]))
    assert predict(honest, rec) == predict(leaky, rec)


def test_rows_of_another_dataset_keep_every_training_neighbor(tmp_path):
    a = make_dataset(rows_per_year=200, seed=1)
    model = fit_knn(a, split(a, seed=1), k=3)
    b = make_dataset(years=(2016,), rows_per_year=300, seed=9)
    # b's row numbers name training rows of a, but not a's records
    assert np.isin(np.arange(b.n_records), model.train_rows).any()
    single = [predict(model, b.record(i)) for i in range(b.n_records)]
    assert predict_rows(model, b).tolist() == single
    # on the fitted dataset a training row is still left out of its own
    # neighbor set, also after the model's file round trip
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    leaky = fit_knn(a, split(a, seed=1), k=3, leave_self_out=False)
    train = model.train_rows
    assert predict_rows(loaded, a, train).tolist() \
        == predict_rows(model, a, train).tolist()
    assert not np.array_equal(predict_rows(loaded, a, train),
                              predict_rows(leaky, a, train))


@pytest.mark.parametrize("include_co", [False, True])
def test_predict_takes_a_record_or_a_hand_built_mapping(include_co):
    ds = make_dataset(years=(2011, 2012), rows_per_year=60, seed=4,
                      include_co=include_co)
    target = "co" if include_co else "nox"
    model = fit_knn(ds, split(ds, seed=4), target=target, k=3)
    for i in (0, 31, 119):
        hand = {name: float(ds.column(name)[i]) for name in model.predictors}
        assert predict(model, ds.record(i)).hex() == predict(model, hand).hex()


def test_k_equal_to_training_size_needs_self_included():
    ds = _ds_from_matrix(np.arange(12.0).reshape(-1, 1), np.arange(12.0))
    assignment = split(ds, seed=0)
    n_train = assignment.counts()["Training"]
    model = fit_knn(ds, assignment, ("p0",), "y", k=n_train, leave_self_out=True)
    with pytest.raises(DegenerateDataError, match="exceeds available neighbors"):
        predict_rows(model, ds, assignment.rows("Training"))
    relaxed = fit_knn(ds, assignment, ("p0",), "y", k=n_train, leave_self_out=False)
    predict_rows(relaxed, ds, assignment.rows("Training"))  # fine


# --------------------------------------------------------------- metrics


def test_perfect_model_scores_exactly_one(tiny_ds):
    assignment = split(tiny_ds, seed=0)
    model = fit_knn(tiny_ds, assignment, k=1, leave_self_out=False)
    m = evaluate(model, tiny_ds, assignment, "Training")
    assert m.r_squared == 1.0
    assert m.rase == 0.0 and m.aae == 0.0
    assert m.freq == assignment.counts()["Training"]


def test_metrics_hand_values():
    from pemskit.knn import _metrics_from_errors

    actual = np.array([1.0, 2.0, 3.0, 4.0])
    predicted = np.array([1.0, 2.0, 3.0, 2.0])
    m = _metrics_from_errors(actual, predicted)
    assert m.rase == pytest.approx(1.0)           # sqrt(4/4)
    assert m.aae == pytest.approx(0.5)            # 2/4
    assert m.r_squared == pytest.approx(1.0 - 4.0 / 5.0)
    assert m.freq == 4
    const = _metrics_from_errors(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]))
    assert const.r_squared is None


def test_rase_never_below_aae(tiny_ds):
    assignment = split(tiny_ds, seed=1)
    for weighting in ("inverse_distance", "uniform"):
        model = fit_knn(tiny_ds, assignment, k=4, weighting=weighting)
        for part in (*PARTITIONS, "Total"):
            m = evaluate(model, tiny_ds, assignment, part)
            assert m.rase >= m.aae * (1.0 - 1e-12)


def test_evaluate_total_and_partition_consistency(tiny_ds):
    assignment = split(tiny_ds, seed=1)
    model = fit_knn(tiny_ds, assignment, k=3)
    bundle = evaluate_all(model, tiny_ds, assignment)
    for part in (*PARTITIONS, "Total"):
        assert bundle[part] == evaluate(model, tiny_ds, assignment, part)
    assert bundle["Total"].freq == tiny_ds.n_records
    with pytest.raises(ConfigError, match="unknown partition"):
        evaluate(model, tiny_ds, assignment, "Holdout")


# --------------------------------------------------------------- select_k


def test_selection_curve_matches_fresh_fits(tiny_ds):
    assignment = split(tiny_ds, seed=2)
    curve = select_k(tiny_ds, assignment, k_max=6)
    assert len(curve.points) == 6
    assert [k for k, _ in curve.points] == list(range(1, 7))
    rase_for = dict(curve.points)
    for k in range(1, 7):
        model = fit_knn(tiny_ds, assignment, k=k)
        fresh = evaluate(model, tiny_ds, assignment, "Validation").rase
        assert rase_for[k] == fresh  # prefix fold is bit-identical
    best = min(rase for _, rase in curve.points)
    assert rase_for[curve.chosen_k] == best
    assert curve.chosen_k == min(k for k, r in curve.points if r == best)


def test_constant_target_chooses_k_one():
    x = np.arange(40.0).reshape(-1, 1)
    ds = _ds_from_matrix(x, np.full(40, 7.0))
    assignment = split(ds, seed=0)
    curve = select_k(ds, assignment, ("p0",), "y", k_max=5)
    assert curve.chosen_k == 1
    # num and den round separately, so a constant target reproduces to
    # the last ulp rather than exactly
    assert all(rase < 1e-11 for _, rase in curve.points)
    with pytest.raises(ConfigError, match="k_max"):
        select_k(ds, assignment, ("p0",), "y", k_max=0)


def test_select_k_requires_validation_rows(tiny_ds):
    all_training = SplitAssignment(np.zeros(tiny_ds.n_records, dtype=np.int64))
    with pytest.raises(DegenerateDataError, match="validation partition is empty"):
        select_k(tiny_ds, all_training)


def test_an_empty_partition_is_named(tiny_ds):
    # these fractions deal a 20-row year no Test row and a 40-row one one
    fractions = (0.9, 0.08, 0.02)
    ds = tiny_ds.subset(np.r_[0:20, 40:80])
    year = ds.for_year(2011)
    assignment = split(year, fractions)
    model = fit_knn(year, assignment, k=3)
    with pytest.raises(DegenerateDataError,
                       match="^partition 'Test' is empty$"):
        evaluate_all(model, year, assignment)
    with pytest.raises(DegenerateDataError,
                       match="^year 2011: partition 'Test' is empty$"):
        compare_pooled_vs_yearly(ds, fractions, k_max=3)


@pytest.mark.parametrize("call, codes, records", [
    (lambda small, big, model: fit_knn(small, split(big)), 200, 100),
    (lambda small, big, model: select_k(small, split(big), k_max=3), 200, 100),
    (lambda small, big, model: evaluate(model, big, split(small), "Test"),
     100, 200),
    (lambda small, big, model: evaluate_all(model, big, split(small)),
     100, 200),
    (lambda small, big, model: residuals(model, big, split(small)), 100, 200),
], ids=["fit_knn", "select_k", "evaluate", "evaluate_all", "residuals"])
def test_a_split_of_another_dataset_is_refused(call, codes, records):
    small = make_dataset(rows_per_year=20, seed=2)
    big = make_dataset(rows_per_year=40, seed=1)
    model = fit_knn(small, split(small))
    with pytest.raises(ConfigError,
                       match=f"^the split has {codes} codes for {records} "
                             "records$"):
        call(small, big, model)


# -------------------------------------------------------------- residuals


def test_residual_table_is_actual_minus_predicted(tiny_ds):
    assignment = split(tiny_ds, seed=4)
    model = fit_knn(tiny_ds, assignment, k=2)
    table = residuals(model, tiny_ds, assignment)
    assert table.rows.shape[0] == tiny_ds.n_records
    predicted = predict_rows(model, tiny_ds)
    assert np.array_equal(table.predicted, predicted)
    assert np.array_equal(table.residual, tiny_ds.column("nox") - predicted)
    assert table.partitions == tuple(assignment.labels())
    assert table.rows[0] == 0 and table.partitions[0] in PARTITIONS


# ------------------------------------------------------------- comparison


def test_pooled_vs_yearly_structure(iid_ds):
    cmp = compare_pooled_vs_yearly(iid_ds, seed=0, k_max=5)
    assert cmp.pooled.label == "pooled"
    assert [m.label for m in cmp.yearly] == [str(y) for y in iid_ds.years]
    assert 1 <= cmp.pooled.chosen_k <= 5
    for ev in (cmp.pooled, *cmp.yearly):
        assert set(ev.metrics) == {"Training", "Validation", "Test", "Total"}
        assert 1 <= ev.chosen_k <= 5
        assert ev.metrics["Validation"].rase == dict(ev.curve.points)[ev.chosen_k]
    # aggregate pools the yearly per-record errors partition by partition
    for part in (*PARTITIONS, "Total"):
        agg = cmp.by_year_aggregate[part]
        assert agg.freq == sum(m.metrics[part].freq for m in cmp.yearly)
        assert agg.freq == cmp.pooled.metrics[part].freq
    assert cmp.by_year_aggregate["Total"].freq == iid_ds.n_records
    # identically distributed years: both styles should fit comparably
    pooled_r2 = cmp.pooled.metrics["Test"].r_squared
    agg_r2 = cmp.by_year_aggregate["Test"].r_squared
    assert abs(pooled_r2 - agg_r2) < 0.25


def test_each_scope_fits_once_and_predicts_each_record_once(iid_ds,
                                                           knn_work):
    cmp = compare_pooled_vs_yearly(iid_ds, seed=1, k_max=4)
    # the pooled scope and one per year; each scans every record once
    assert knn_work == {"fits": 1 + len(iid_ds.years),
                        "queries": 2 * iid_ds.n_records}
    assert all(ev.curve is not None for ev in (cmp.pooled, *cmp.yearly))


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_scope_predictions_equal_a_fresh_model_at_the_chosen_k(iid_ds,
                                                              weighting):
    cmp = compare_pooled_vs_yearly(iid_ds, seed=1, k_max=6,
                                   weighting=weighting)
    scopes = [(cmp.pooled, iid_ds, cmp.assignment)]
    for ev, year in zip(cmp.yearly, iid_ds.years):
        mine = iid_ds.year == year
        scopes.append((ev, iid_ds.subset(mine),
                       SplitAssignment(cmp.assignment.codes[mine].copy())))
    for ev, ds, assignment in scopes:
        fresh = fit_knn(ds, assignment, k=ev.chosen_k, weighting=weighting)
        assert ev.model.k == ev.chosen_k
        assert np.array_equal(ev.model.train_z, fresh.train_z)
        assert ev.predicted.tobytes() == predict_rows(fresh, ds).tobytes()
        assert ev.metrics == evaluate_all(fresh, ds, assignment)


def test_leave_self_out_moves_only_training_predictions(iid_ds):
    honest = compare_pooled_vs_yearly(iid_ds, seed=2, k_max=5)
    leaky = compare_pooled_vs_yearly(iid_ds, seed=2, k_max=5,
                                     leave_self_out=False)
    train = honest.assignment.codes == PARTITIONS.index("Training")
    scopes = [(honest.pooled, leaky.pooled, train)]
    for year, h, l in zip(iid_ds.years, honest.yearly, leaky.yearly):
        scopes.append((h, l, train[iid_ds.year == year]))
    for h, l, mine in scopes:
        # the K sweep queries only Validation rows, never a self row
        assert h.curve == l.curve
        assert h.predicted[~mine].tobytes() == l.predicted[~mine].tobytes()
        assert (h.predicted[mine] != l.predicted[mine]).any()


def test_pooled_vs_yearly_deterministic(iid_ds):
    a = compare_pooled_vs_yearly(iid_ds, seed=3, k_max=4)
    b = compare_pooled_vs_yearly(iid_ds, seed=3, k_max=4)
    assert a.pooled.metrics == b.pooled.metrics
    assert a.pooled.curve == b.pooled.curve
    assert all(x.metrics == y.metrics for x, y in zip(a.yearly, b.yearly))
    assert a.by_year_aggregate == b.by_year_aggregate


def test_pooled_vs_yearly_needs_two_years(tiny_ds):
    one_year = tiny_ds.for_year(2011)
    with pytest.raises(ConfigError, match="at least 2 years"):
        compare_pooled_vs_yearly(one_year)


# ------------------------------------------------------------ persistence


def test_model_round_trip_preserves_predictions(tmp_path, tiny_ds):
    assignment = split(tiny_ds, seed=5)
    model = fit_knn(tiny_ds, assignment, k=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.predictors == model.predictors
    assert back.k == model.k
    assert back.weighting == model.weighting
    assert back.leave_self_out == model.leave_self_out
    assert np.array_equal(back.train_z, model.train_z)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(predict_rows(back, tiny_ds), predict_rows(model, tiny_ds))


def test_saved_model_is_the_json_of_the_whole_document(tmp_path, iid_ds):
    # 1,050 training rows: the streamed arrays span two row blocks
    model = fit_knn(iid_ds, split(iid_ds, seed=5), k=3)
    assert model.n_training > 1024
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = {
        "format_version": 1,
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
    assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"
    assert load_model(path).train_z.tobytes() == model.train_z.tobytes()


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("k", [1, 3, 10])
def test_train_z_layout_moves_no_prediction_bit(iid_ds, k, weighting):
    # the filter's norms read train_z in its own layout; the refine is
    # exact, so a column-major copy must predict the same bits
    model = fit_knn(iid_ds, split(iid_ds, seed=5), k=k, weighting=weighting)
    other = replace(model, train_z=np.asfortranarray(model.train_z))
    assert model.train_z.flags.c_contiguous
    assert not other.train_z.flags.c_contiguous
    # every row, training rows (left out of their own neighbours) included
    assert predict_rows(other, iid_ds).tobytes() \
        == predict_rows(model, iid_ds).tobytes()
    records = [iid_ds.record(r)
               for r in (*model.train_rows[:3].tolist(), 0, 1, 2)]
    assert np.array([predict(other, r) for r in records]).tobytes() \
        == np.array([predict(model, r) for r in records]).tobytes()


def test_failed_save_leaves_no_partial_or_temp_file(tmp_path, tiny_ds,
                                                    monkeypatch):
    model = fit_knn(tiny_ds, split(tiny_ds, seed=5), k=2)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(model, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_unknown_format_version(tmp_path, tiny_ds):
    assignment = split(tiny_ds, seed=5)
    model = fit_knn(tiny_ds, assignment, k=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unsupported model format_version: 99"):
        load_model(path)
    doc["format_version"] = 1
    del doc["train_y"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed model file"):
        load_model(path)
    path.write_text("{not json")
    with pytest.raises(DataError, match="cannot read model file"):
        load_model(path)
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="not a JSON object"):
        load_model(path)


@pytest.mark.parametrize("key, mutate, match", [
    ("k", lambda v: -3, "k must be in"),
    ("k", lambda v: 10_000, "k must be in"),
    ("weighting", lambda v: "bogus", "weighting must be one of"),
    ("leave_self_out", lambda v: "false", "leave_self_out"),
    ("predictors", lambda v: [], "non-empty list of names"),
    ("stds", lambda v: [0.0] * len(v), "stds must be finite and positive"),
    ("means", lambda v: v[:1], "one entry per predictor"),
    ("train_rows", lambda v: v[:2], "shape mismatch"),
    ("train_z", lambda v: [[math.nan] * len(v[0])] + v[1:],
     "train_z must be finite"),
    ("train_z", lambda v: 1.0, "shape mismatch"),
    ("train_y", lambda v: v[:-1] + [math.inf], "train_y must be finite"),
    ("k", lambda v: 1.7, "k must be an integer"),
    ("k", lambda v: True, "k must be an integer"),
    ("train_rows", lambda v: [1.5] + v[1:], "train_rows must hold integers"),
    ("train_rows", lambda v: [-1] + v[1:], "distinct non-negative"),
    ("train_rows", lambda v: [v[1]] + v[1:], "distinct non-negative"),
    ("train_rows", lambda v: [2**70] + v[1:], "train_rows must hold integers"),
    ("predictors", lambda v: [v[0]] + v[:-1], "predictors must be distinct"),
    ("means", lambda v: ["1"] + v[1:], "means must hold numbers"),
    ("predictors", lambda v: "".join(v), "non-empty list of names"),
    ("predictors", lambda v: dict.fromkeys(v, 1), "non-empty list of names"),
    ("means", lambda v: [True] + v[1:], "means must hold numbers"),
    ("stds", lambda v: v[:-1] + [False], "stds must hold numbers"),
    ("train_z", lambda v: [v[0][:-1] + [True]] + v[1:],
     "train_z must hold numbers"),
    ("train_y", lambda v: [False] + v[1:], "train_y must hold numbers"),
    ("train_rows", lambda v: v[:-1] + [True], "train_rows must hold integers"),
], ids=["negative-k", "k-above-training", "weighting", "leave-self-out",
        "no-predictors", "zero-stds", "short-means", "short-train-rows",
        "nan-train-z", "scalar-train-z", "inf-train-y", "fractional-k",
        "boolean-k", "fractional-train-row", "negative-train-row",
        "duplicate-train-row", "huge-train-row", "duplicate-predictor",
        "string-mean", "string-predictors", "object-predictors",
        "boolean-mean", "boolean-std", "boolean-train-z", "boolean-train-y",
        "boolean-train-row"])
def test_load_rejects_inconsistent_models(tmp_path, tiny_ds, key, mutate,
                                          match):
    path = tmp_path / "model.json"
    save_model(fit_knn(tiny_ds, split(tiny_ds, seed=5), k=2), path)
    doc = json.loads(path.read_text())
    doc[key] = mutate(doc[key])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_model(path)


# ------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8),
       weighting=st.sampled_from(("inverse_distance", "uniform")))
def test_prediction_stays_in_target_hull(seed, k, weighting):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 2))
    y = rng.normal(size=60) * 30.0
    ds = _ds_from_matrix(x, y)
    assignment = split(ds, seed=seed)
    model = fit_knn(ds, assignment, ("p0", "p1"), "y", k, weighting)
    preds = predict_rows(model, ds)
    lo, hi = model.train_y.min(), model.train_y.max()
    eps = 1e-9 * (hi - lo + 1.0)  # weighted mean can round an ulp outside
    assert np.all(preds >= lo - eps) and np.all(preds <= hi + eps)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 10.0), shift=st.floats(-50.0, 50.0),
       seed=st.integers(0, 1000))
def test_prediction_invariant_under_affine_predictor_rescaling(scale, shift, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=50) * 10.0
    ds = _ds_from_matrix(x, y)
    x2 = x.copy()
    x2[:, 0] = x2[:, 0] * scale + shift   # standardization removes units
    ds2 = _ds_from_matrix(x2, y)
    assignment = split(ds, seed=seed)
    a = fit_knn(ds, assignment, ("p0", "p1"), "y", k=3)
    b = fit_knn(ds2, assignment, ("p0", "p1"), "y", k=3)
    pa = predict_rows(a, ds)
    pb = predict_rows(b, ds2)
    assert pa == pytest.approx(pb, rel=1e-9, abs=1e-9)
