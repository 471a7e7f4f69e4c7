import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cpu_dispatch
from hypothesis import given, settings, strategies as st

from pemskit import screening
from pemskit.errors import ConfigError, DegenerateDataError
from pemskit.ingest import PREDICTORS, Dataset
from pemskit.rng import SplitMix64, derive_seed
from pemskit.screening import (
    ForestConfig,
    MIN_LEAF,
    RegressionTree,
    _bootstrap_rows,
    _grow_tree,
    fit_regression_tree,
    screen_predictors,
)

def _ds_from_columns(**cols):
    n = len(next(iter(cols.values())))
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
    return Dataset(arrays, np.full(n, 2011, dtype=np.int64), (2011,))


@pytest.fixture()
def planted_ds():
    """One strong predictor, one weak, one pure noise, one constant."""
    rng = np.random.default_rng(8)
    n = 500
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    noise = rng.normal(size=n)
    return _ds_from_columns(
        x1=x1, x2=x2, noise=noise, const=np.full(n, 3.0),
        y=5.0 * x1 + 0.8 * x2 + 0.3 * rng.normal(size=n),
    )


def test_bootstrap_kernel_matches_python_stream():
    seed, n, size = derive_seed(7, 0), 1000, 64
    rows, state = _bootstrap_rows(np.uint64(seed), n, size)
    ref = SplitMix64(seed)
    assert [int(r) for r in rows] == [ref.below(n) for _ in range(size)]
    # the kernel hands back the advanced state so split draws continue
    # the same stream
    assert int(state) == ref._state
    assert rows.min() >= 0 and rows.max() < n


def test_single_tree_on_step_function():
    x = np.linspace(0.0, 1.0, 200)
    ds = _ds_from_columns(x=x, pad=np.zeros(200), y=np.where(x > 0.5, 10.0, 0.0))
    names = ("x", "pad")
    xs, y = ds.matrix(names), ds.column("y")
    rows = np.arange(200, dtype=np.int64)
    tree = RegressionTree(names, *_grow_tree(xs, y, rows, 2, 1, 0))
    # one split, on x (predictor 0), at the root
    assert tree.feature.tolist() == [0, -1, -1]
    # a perfect split removes the whole sum of squares: 200 * 5^2
    assert tree.sse_reduction[0] == pytest.approx(5000.0)
    ref = _assert_grows_like_reference(xs, y, rows, 2, 1, 0)
    # midpoint of the two grid points astride the step: exactly 0.5
    assert ref["cut"][0] == 0.5
    assert ref["value"][1:].tolist() == [0.0, 10.0]
    assert ref["n_rows"].tolist() == [200, 100, 100]
    contrib = tree.contributions()
    assert contrib[0] == pytest.approx(5000.0) and contrib[1] == 0.0


def test_leaf_size_floor_and_children_partition(planted_ds):
    names = ("x1", "x2", "noise")
    ref = _assert_grows_like_reference(
        planted_ds.matrix(names), planted_ds.column("y"),
        np.arange(planted_ds.n_records, dtype=np.int64), 1, 9, 0)
    feature, n_rows = ref["feature"], ref["n_rows"]
    assert feature.shape[0] > 3
    for i in range(feature.shape[0]):
        if feature[i] < 0:
            assert n_rows[i] >= 9
        else:
            li, ri = int(ref["left"][i]), int(ref["right"][i])
            assert n_rows[li] + n_rows[ri] == n_rows[i]
            assert n_rows[li] >= 9 and n_rows[ri] >= 9
            assert ref["reduction"][i] > 0.0


def test_a_tree_draws_a_third_of_its_predictors_and_keeps_five_per_leaf(
        planted_ds):
    assert screening.MIN_LEAF == 5
    rows = np.arange(planted_ds.n_records, dtype=np.int64)
    for names, m in ((("x1", "x2"), 1), (("x1", "x2", "noise"), 1),
                     (("x1", "x2", "noise", "const"), 2)):   # ceil(p / 3)
        tree = fit_regression_tree(planted_ds, names, "y", ForestConfig())
        want = _grow_tree(planted_ds.matrix(names), planted_ds.column("y"),
                          rows, m, 5, 0)
        got = (tree.feature, tree.sse_reduction)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_constant_target_collapses_to_single_leaf():
    ds = _ds_from_columns(x=np.arange(50.0), x2=np.arange(50.0) % 7,
                          y=np.full(50, 4.0))
    tree = fit_regression_tree(ds, ("x",), "y", ForestConfig(n_trees=1))
    assert tree.feature.tolist() == [-1]
    with pytest.raises(DegenerateDataError, match="zero variance"):
        screen_predictors(ds, ("x", "x2"), "y")


def test_screening_names_a_target_whose_variance_overflows(planted_ds):
    # finite cells, overflowing squared deviations; warnings are errors here
    y = planted_ds.column("y").copy()
    y[:2] = (1.5e308, -1.5e308)
    wide = Dataset({**planted_ds.columns, "y": y}, planted_ds.year,
                   planted_ds.years)
    with pytest.raises(DegenerateDataError,
                       match="variable 'y' spans .*: its variance overflows float64"):
        screen_predictors(wide, ("x1", "x2"), "y", ForestConfig(n_trees=1))


def test_screening_ranks_planted_signal(planted_ds):
    cfg = ForestConfig(n_trees=30, seed=1)
    res = screen_predictors(planted_ds, ("x1", "x2", "noise", "const"), "y", cfg)
    assert res.ranked_predictors()[0] == "x1"
    assert res.by_predictor("x1").portion > 0.5
    assert res.by_predictor("x1").rank == 1
    # a constant column can never host a split
    const_row = res.by_predictor("const")
    assert const_row.contribution == 0.0
    assert const_row.portion == 0.0
    assert const_row.rank == 4
    assert [r.rank for r in res.rows] == [1, 2, 3, 4]
    assert sum(r.portion for r in res.rows) == pytest.approx(1.0, abs=1e-12)
    assert all(r.contribution >= 0.0 for r in res.rows)


def test_screening_is_deterministic(planted_ds):
    cfg = ForestConfig(n_trees=10, seed=42)
    a = screen_predictors(planted_ds, ("x1", "x2", "noise"), "y", cfg)
    b = screen_predictors(planted_ds, ("x1", "x2", "noise"), "y", cfg)
    assert a == b
    c = screen_predictors(planted_ds, ("x1", "x2", "noise"), "y",
                          ForestConfig(n_trees=10, seed=43))
    assert any(c.by_predictor(n).contribution != a.by_predictor(n).contribution
               for n in ("x1", "x2", "noise"))


def test_one_tree_screen_reproducible_from_parts(planted_ds):
    """The documented stream layout: bootstrap draws first, split draws after,
    both from the tree's own stream."""
    names = ("x1", "x2", "noise")
    cfg = ForestConfig(n_trees=1, seed=9)
    res = screen_predictors(planted_ds, names, "y", cfg)
    tree_seed = derive_seed(9, 0)
    rows, state = _bootstrap_rows(np.uint64(tree_seed), planted_ds.n_records,
                                  planted_ds.n_records)
    splits = _grow_tree(planted_ds.matrix(names), planted_ds.column("y"),
                        rows, 1, MIN_LEAF, state)       # m = ceil(3 / 3)
    contrib = RegressionTree(names, *splits).contributions()
    total = contrib.sum()
    for i, name in enumerate(names):
        assert res.by_predictor(name).contribution == float(contrib[i])
        assert res.by_predictor(name).portion == float(contrib[i] / total)


def test_config_validation(planted_ds):
    with pytest.raises(ConfigError):
        ForestConfig(n_trees=0).check()
    with pytest.raises(ConfigError, match="at least 2"):
        screen_predictors(planted_ds, ("x1",), "y")
    with pytest.raises(ConfigError, match="target 'y' is also a predictor"):
        screen_predictors(planted_ds, ("x1", "y"), "y")
    with pytest.raises(ConfigError, match="predictor 'x1' is listed twice"):
        screen_predictors(planted_ds, ("x1", "x2", "x1"), "y")
    with pytest.raises(ConfigError, match="empty predictor"):
        fit_regression_tree(planted_ds, (), "y", ForestConfig())


@pytest.mark.parametrize("predictors, message", [
    (("x1", "y"), "target 'y' is also a predictor"),
    (("x1", "x2", "x1"), "predictor 'x1' is listed twice"),
], ids=["target", "duplicate"])
def test_fit_regression_tree_rejects_bad_inputs(planted_ds, predictors,
                                                message):
    with pytest.raises(ConfigError, match=message):
        fit_regression_tree(planted_ds, predictors, "y", ForestConfig())


def test_fit_regression_tree_rejects_an_empty_dataset(planted_ds):
    empty = planted_ds.subset(np.zeros(planted_ds.n_records, dtype=bool))
    with pytest.raises(DegenerateDataError, match="empty dataset"):
        fit_regression_tree(empty, ("x1",), "y", ForestConfig())


# ------------------------------------------------- grower vs. loop reference


def _reference_grow_tree(x, y, rows, m, min_leaf, rng_state):
    """The grower as a plain per-row loop: depth-first, left child first,
    m predictors drawn per node, first best midpoint cut on a strict >.

    Returns every node array by name, indexed by node id; the grower
    keeps only "feature" and "reduction".  The cuts and row counts that
    it drops still decide the partitions, so a wrong one shows in the
    later nodes."""
    n = rows.shape[0]
    p = x.shape[1]
    max_nodes = 2 * n + 1
    feature = np.full(max_nodes, -1, np.int64)
    cut = np.zeros(max_nodes, np.float64)
    reduction = np.zeros(max_nodes, np.float64)
    left = np.full(max_nodes, -1, np.int64)
    right = np.full(max_nodes, -1, np.int64)
    n_rows = np.zeros(max_nodes, np.int64)
    value = np.zeros(max_nodes, np.float64)

    idx = rows.copy()
    tmp = np.empty(n, np.int64)
    feats = np.empty(p, np.int64)
    stream = SplitMix64(rng_state)

    stack_node = np.empty(max_nodes, np.int64)
    stack_lo = np.empty(max_nodes, np.int64)
    stack_hi = np.empty(max_nodes, np.int64)
    stack_node[0], stack_lo[0], stack_hi[0] = 0, 0, n
    sp = 1
    node_count = 1

    while sp > 0:
        sp -= 1
        node = stack_node[sp]
        lo = stack_lo[sp]
        hi = stack_hi[sp]
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
        n_rows[node] = s
        value[node] = mean

        if s < 2 * min_leaf or sse <= 0.0:
            continue

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
            prev = v[order[0]]
            for i in range(1, s):
                s_left += w[i - 1]
                cur = v[order[i]]
                if cur > prev and i >= min_leaf and s - i >= min_leaf:
                    s_right = c_sum - s_left
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
        stack_node[sp], stack_lo[sp], stack_hi[sp] = right_id, lo + nl, hi
        sp += 1
        stack_node[sp], stack_lo[sp], stack_hi[sp] = left_id, lo, lo + nl
        sp += 1

    return {"feature": feature[:node_count], "cut": cut[:node_count],
            "reduction": reduction[:node_count], "left": left[:node_count],
            "right": right[:node_count], "n_rows": n_rows[:node_count],
            "value": value[:node_count]}


def _reference_contributions(tree):
    """The per-node loop that RegressionTree.contributions replaced."""
    contrib = np.zeros(len(tree.predictors))
    for i in range(tree.n_nodes):
        f = int(tree.feature[i])
        if f >= 0:
            contrib[f] += float(tree.sse_reduction[i])
    return contrib


def _assert_grows_like_reference(x, y, rows, m, min_leaf, state):
    """The grower's (feature, reduction) equal the reference loop's, byte
    for byte and node for node; returns the reference's node arrays."""
    want = _reference_grow_tree(x, y, rows, m, min_leaf, state)
    got = _grow_tree(x, y, rows, m, min_leaf, state)
    assert len(got) == 2
    for name, b in zip(("feature", "reduction"), got):
        a = want[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    tree = RegressionTree(tuple(f"x{j}" for j in range(x.shape[1])), *got)
    assert tree.n_nodes == want["n_rows"].shape[0]
    contrib = tree.contributions()
    expected = _reference_contributions(tree)
    assert contrib.dtype == expected.dtype
    assert contrib.tobytes() == expected.tobytes()
    return want


@pytest.mark.parametrize("n, min_leaf", [(1, 1), (2, 1), (37, 1), (10, 5),
                                         (3, 5)])
def test_grower_fills_its_node_bound(n, min_leaf):
    # distinct x = y splits wherever min_leaf allows, down to leaves of
    # min_leaf rows: 2 * ceil(n / min_leaf) - 1 nodes, the arrays' bound.
    # With n < min_leaf the tree is the root alone.
    x = np.arange(n, dtype=np.float64)[:, None]
    ref = _assert_grows_like_reference(x, x[:, 0].copy(),
                                       np.arange(n, dtype=np.int64), 1,
                                       min_leaf, 0)
    assert ref["feature"].shape == (2 * -(-n // min_leaf) - 1,)


def _tree_inputs(quantized, seed=5, n=300, p=4):
    """Predictors with a planted signal; quantized ones tie heavily."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if quantized:
        x = np.round(x, 0)
    y = 3.0 * x[:, 0] + x[:, 1] ** 2 + rng.normal(size=n)
    rows, state = _bootstrap_rows(derive_seed(seed, 0), n, n)
    return np.ascontiguousarray(x), y, rows, state


@pytest.mark.parametrize("quantized", [False, True], ids=["real", "ties"])
@pytest.mark.parametrize("min_leaf", [1, 5, 37])
@pytest.mark.parametrize("m", [1, 4], ids=["m1", "mp"])
def test_grower_matches_reference_loop(quantized, min_leaf, m):
    x, y, rows, state = _tree_inputs(quantized)
    assert len(np.unique(rows)) < len(rows)    # bootstrap repeats rows
    ref = _assert_grows_like_reference(x, y, rows, m, min_leaf, state)
    assert ref["feature"][0] >= 0   # the root splits: a tree to compare


def test_grower_matches_reference_on_synthetic_turbine_data(turbine_ds):
    x = np.ascontiguousarray(turbine_ds.matrix(PREDICTORS))
    y = turbine_ds.column("nox").astype(np.float64)
    rows, state = _bootstrap_rows(derive_seed(1, 0), turbine_ds.n_records,
                                  turbine_ds.n_records)
    _assert_grows_like_reference(x, y, rows, 3, 5, state)


@pytest.mark.parametrize("target", [4.0, -0.0], ids=["four", "minus_zero"])
def test_grower_matches_reference_on_constant_target(target):
    x, _, rows, state = _tree_inputs(False, n=50)
    y = np.full(50, target)
    ref = _assert_grows_like_reference(x, y, rows, 4, 1, state)
    assert ref["feature"].tolist() == [-1]


def test_grower_matches_reference_on_two_rows():
    x = np.array([[0.0, 1.0], [1.0, 1.0]])
    y = np.array([2.0, 5.0])
    for rows in (np.array([0, 1]), np.array([1, 0]), np.array([1, 1])):
        for min_leaf in (1, 2):
            _assert_grows_like_reference(x, y, rows, 2, min_leaf, 99)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       p=st.integers(1, 4), decimals=st.integers(0, 2),
       min_leaf=st.integers(1, 6), data=st.data())
def test_grower_matches_reference_on_random_data(seed, n, p, decimals,
                                                 min_leaf, data):
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(np.round(rng.normal(size=(n, p)), decimals))
    y = np.round(rng.normal(size=n) + x.sum(axis=1), decimals)
    m = data.draw(st.integers(1, p), label="m")
    size = data.draw(st.integers(1, 2 * n), label="size")
    rows, state = _bootstrap_rows(derive_seed(seed, 0), n, size)
    _assert_grows_like_reference(x, y, rows, m, min_leaf, state)


def _preorder(left, right):
    """Node ids in the order the grower processes them: depth first,
    left child first."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if left[node] >= 0:
            stack += [int(right[node]), int(left[node])]
    return order


def test_twin_predictors_split_on_the_earlier_drawn():
    # two identical columns tie on every cut; with m = p both are drawn
    # at each node, and the one drawn first must win, as the reference
    # loop's strict > has it.  Distinct rows and targets give every node
    # of two or more rows a positive SSE, so each of them draws.
    rng = np.random.default_rng(21)
    n = 200
    col = rng.normal(size=n)
    x = np.ascontiguousarray(np.stack((col, col), axis=1))
    y = 2.0 * col + rng.normal(size=n)
    rows = np.arange(n, dtype=np.int64)
    ref = _assert_grows_like_reference(x, y, rows, 2, 1, 77)
    feature = ref["feature"]
    stream = SplitMix64(77)
    split_on = set()
    for node in _preorder(ref["left"], ref["right"]):
        if ref["n_rows"][node] < 2:
            continue
        feats = [0, 1]
        for t in range(2):
            j = t + stream.below(2 - t)
            feats[t], feats[j] = feats[j], feats[t]
        if feature[node] >= 0:
            assert feature[node] == feats[0], node
            split_on.add(int(feature[node]))
    # the draws, not the column order, decide
    assert split_on == {0, 1}


def test_grower_matches_reference_without_simd_dispatch():
    # each node argsorts its (m, s) block row by row; numpy's baseline
    # sort must order ties as the 1-D sort of the reference loop does
    disabled = " ".join(cpu_dispatch())
    if not disabled:
        pytest.skip("numpy dispatches to no CPU feature of this machine")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "(matches_reference or twin) and not without_simd",
         __file__],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "deselected" in proc.stdout


# ------------------------------------------------------------ workers

_NAMES = ("x1", "x2", "noise", "const")


def _tree_by_tree(ds, cfg):
    """Contributions as hex, each tree grown here in turn and added in
    tree order from zeros: the bytes any worker count must give."""
    x, y = ds.matrix(_NAMES), ds.column("y")
    contrib = np.zeros(len(_NAMES))
    for t in range(cfg.n_trees):
        rows, state = _bootstrap_rows(derive_seed(cfg.seed, t),
                                      ds.n_records, ds.n_records)
        splits = _grow_tree(x, y, rows, 2, MIN_LEAF, state)   # m = ceil(4 / 3)
        contrib += RegressionTree(_NAMES, *splits).contributions()
    return [float(c).hex() for c in contrib]


def _screen_hex(ds, cfg):
    res = screen_predictors(ds, _NAMES, "y", cfg)
    return [res.by_predictor(name).contribution.hex() for name in _NAMES]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(n) makes screening see n CPUs, without starting n of
    anything, and returns the list that each fork appends to."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
        return forks

    return use


@pytest.mark.parametrize("n_trees", [1, 2, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_any_worker_count_gives_the_same_bytes(planted_ds, cpus, workers,
                                               n_trees):
    cfg = ForestConfig(n_trees=n_trees, seed=4)
    forks = cpus(workers)
    assert _screen_hex(planted_ds, cfg) == _tree_by_tree(planted_ds, cfg)
    # one block per worker, at most one per tree; the parent grows one
    assert len(forks) == min(workers, n_trees) - 1
    _assert_no_child_left()


def test_without_fork_the_trees_grow_in_process(planted_ds, monkeypatch):
    monkeypatch.delattr(os, "fork")
    cfg = ForestConfig(n_trees=3, seed=4)
    assert _screen_hex(planted_ds, cfg) == _tree_by_tree(planted_ds, cfg)


def test_a_failing_worker_costs_time_not_bytes(planted_ds, cpus,
                                               monkeypatch):
    parent = os.getpid()
    grow = screening._grow_tree

    def grow_in_parent_only(*args):
        if os.getpid() != parent:
            raise RuntimeError("tree grown in a worker")
        return grow(*args)

    monkeypatch.setattr(screening, "_grow_tree", grow_in_parent_only)
    cfg = ForestConfig(n_trees=5, seed=4)
    forks = cpus(3)
    assert _screen_hex(planted_ds, cfg) == _tree_by_tree(planted_ds, cfg)
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_short_payload_is_grown_again(planted_ds, cpus, monkeypatch):
    parent = os.getpid()
    write = os.write

    def short_write(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, bytes(data)[:8])      # the child believes it sent all
        return len(data)

    monkeypatch.setattr(os, "write", short_write)
    cfg = ForestConfig(n_trees=4, seed=4)
    forks = cpus(2)
    assert _screen_hex(planted_ds, cfg) == _tree_by_tree(planted_ds, cfg)
    assert len(forks) == 1
    _assert_no_child_left()


def test_an_error_in_every_tree_surfaces_with_its_type(planted_ds, cpus,
                                                       monkeypatch):
    def broken(*args):
        raise DegenerateDataError("no tree today")

    monkeypatch.setattr(screening, "_grow_tree", broken)
    forks = cpus(3)
    with pytest.raises(DegenerateDataError, match="no tree today"):
        screen_predictors(planted_ds, _NAMES, "y", ForestConfig(n_trees=6))
    assert len(forks) == 2
    _assert_no_child_left()
