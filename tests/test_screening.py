import numpy as np
import pytest

from pemskit.errors import ConfigError, DegenerateDataError
from pemskit.ingest import Dataset
from pemskit.rng import SplitMix64, derive_seed
from pemskit.screening import (
    ForestConfig,
    _bootstrap_rows,
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
    cfg = ForestConfig(n_trees=1, min_samples_per_leaf=1, predictors_per_split=2)
    tree = fit_regression_tree(ds, ("x", "pad"), "y", cfg)
    assert tree.n_nodes == 3
    assert tree.n_leaves == 2
    (split,) = tree.splits
    assert split.predictor == "x"
    # midpoint of the two grid points astride the step: exactly 0.5
    assert split.cut == 0.5
    # a perfect split removes the whole sum of squares: 200 * 5^2
    assert split.sse_reduction == pytest.approx(5000.0)
    assert sorted([float(tree.value[1]), float(tree.value[2])]) == [0.0, 10.0]
    assert list(tree.n_rows) == [200, 100, 100]
    contrib = tree.contributions()
    assert contrib[0] == pytest.approx(5000.0) and contrib[1] == 0.0


def test_leaf_size_floor_and_children_partition(planted_ds):
    cfg = ForestConfig(n_trees=1, min_samples_per_leaf=9)
    tree = fit_regression_tree(planted_ds, ("x1", "x2", "noise"), "y", cfg)
    assert tree.n_nodes > 3
    for i in range(tree.n_nodes):
        if tree.feature[i] < 0:
            assert tree.n_rows[i] >= 9
        else:
            li, ri = int(tree.left[i]), int(tree.right[i])
            assert tree.n_rows[li] + tree.n_rows[ri] == tree.n_rows[i]
            assert tree.n_rows[li] >= 9 and tree.n_rows[ri] >= 9
            assert tree.sse_reduction[i] > 0.0


def test_depth_cap_gives_a_stump(planted_ds):
    cfg = ForestConfig(n_trees=1, max_depth=1)
    tree = fit_regression_tree(planted_ds, ("x1", "x2"), "y", cfg)
    assert tree.n_nodes == 3 and tree.n_leaves == 2


def test_constant_target_collapses_to_single_leaf():
    ds = _ds_from_columns(x=np.arange(50.0), y=np.full(50, 4.0))
    tree = fit_regression_tree(ds, ("x",), "y", ForestConfig(n_trees=1))
    assert tree.n_nodes == 1
    assert tree.splits == []
    assert float(tree.value[0]) == 4.0
    with pytest.raises(DegenerateDataError, match="zero variance"):
        screen_predictors(ds, ("x", "x"), "y")


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
    tree = fit_regression_tree(planted_ds, names, "y", cfg,
                               sample_rows=rows, rng_state=int(state))
    contrib = tree.contributions()
    total = contrib.sum()
    for i, name in enumerate(names):
        assert res.by_predictor(name).contribution == float(contrib[i])
        assert res.by_predictor(name).portion == float(contrib[i] / total)


def test_bootstrap_sample_size_override(planted_ds):
    cfg = ForestConfig(n_trees=1, sample_size=123)
    rows, _ = _bootstrap_rows(np.uint64(derive_seed(0, 0)), planted_ds.n_records, 123)
    tree = fit_regression_tree(planted_ds, ("x1", "x2"), "y", cfg, sample_rows=rows)
    assert int(tree.n_rows[0]) == 123


def test_config_validation(planted_ds):
    with pytest.raises(ConfigError):
        ForestConfig(n_trees=0).check()
    with pytest.raises(ConfigError):
        ForestConfig(min_samples_per_leaf=0).check()
    with pytest.raises(ConfigError):
        ForestConfig(max_depth=0).check()
    with pytest.raises(ConfigError):
        ForestConfig(predictors_per_split=10).resolved_m(3)
    assert ForestConfig().resolved_m(9) == 3  # ceil(9 / 3)
    assert ForestConfig().resolved_m(4) == 2  # ceil(4 / 3)
    with pytest.raises(ConfigError, match="at least 2"):
        screen_predictors(planted_ds, ("x1",), "y")
    with pytest.raises(ConfigError, match="target 'y' is also a predictor"):
        screen_predictors(planted_ds, ("x1", "y"), "y")
    with pytest.raises(ConfigError, match="empty predictor"):
        fit_regression_tree(planted_ds, (), "y", ForestConfig())
    with pytest.raises(ConfigError, match="sample_size"):
        screen_predictors(planted_ds, ("x1", "x2"), "y",
                          ForestConfig(sample_size=0))
