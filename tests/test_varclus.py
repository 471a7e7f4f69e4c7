import numpy as np
import pytest

from pemskit.errors import ConfigError, DegenerateDataError
from pemskit.ingest import PREDICTORS, Dataset
from pemskit.varclus import cluster_variables, dependence_tag


def _ds_from_columns(**cols):
    n = len(next(iter(cols.values())))
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
    return Dataset(arrays, np.full(n, 2011, dtype=np.int64), (2011,))


@pytest.fixture()
def two_block_ds():
    """Two tight pairs: (x, -x) and (w, w + noise), cross-block independent."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=400)
    w = rng.normal(size=400)
    return _ds_from_columns(x=x, y=-x, w=w, w2=w + 0.1 * rng.normal(size=400))


def test_two_blocks_split_into_two_clusters(two_block_ds):
    report = cluster_variables(two_block_ds, ("x", "y", "w", "w2"))
    assert len(report.clusters) == 2
    assert set(report.memberships()) == {frozenset({"x", "y"}), frozenset({"w", "w2"})}
    # anti-correlation is as tight as correlation: x and y stay together
    row_x, row_y = report.row("x"), report.row("y")
    assert row_x.cluster_id == row_y.cluster_id
    assert row_x.r2_own == pytest.approx(1.0, abs=1e-12)  # |corr(x, y)| is exactly 1


def test_high_threshold_keeps_one_cluster(two_block_ds):
    report = cluster_variables(two_block_ds, ("x", "y", "w", "w2"), threshold=9.0)
    assert len(report.clusters) == 1
    only = report.clusters[0]
    assert set(only.members) == {"x", "y", "w", "w2"}
    assert only.id == 1
    assert all(r.cluster_id == 1 and r.r2_next == 0.0 for r in report.rows)


def test_singleton_cluster_reports_exact_values():
    rng = np.random.default_rng(4)
    x = rng.normal(size=300)
    ds = _ds_from_columns(a=x, b=x + 0.1 * rng.normal(size=300),
                          c=rng.normal(size=300))
    report = cluster_variables(ds, ("a", "b", "c"), threshold=0.5)
    assert set(report.memberships()) == {frozenset({"a", "b"}), frozenset({"c"})}
    single = next(cl for cl in report.clusters if cl.members == ("c",))
    assert single.eigenvalue1 == 1.0
    assert single.eigenvalue2 is None
    row = report.row("c")
    assert row.r2_own == 1.0  # singleton: exact by definition
    assert row.ratio == 0.0
    assert 0.0 <= row.r2_next < 0.1


def test_membership_invariant_under_sign_flip_and_scaling(two_block_ds):
    base = cluster_variables(two_block_ds, ("x", "y", "w", "w2"))
    flipped = _ds_from_columns(
        x=-two_block_ds.column("x"),
        y=two_block_ds.column("y") * 2.5 + 7.0,
        w=two_block_ds.column("w"),
        w2=-0.1 * two_block_ds.column("w2"),
    )
    other = cluster_variables(flipped, ("x", "y", "w", "w2"))
    assert set(other.memberships()) == set(base.memberships())
    for row in base.rows:
        twin = other.row(row.variable)
        assert twin.r2_own == pytest.approx(row.r2_own, abs=1e-10)
        assert twin.r2_next == pytest.approx(row.r2_next, abs=1e-10)


def test_row_layout_and_ratio_formula(turbine_ds):
    report = cluster_variables(turbine_ds)
    assert {r.variable for r in report.rows} == set(PREDICTORS)
    # rows come grouped by cluster id, descending r2_own within a cluster
    ids = [r.cluster_id for r in report.rows]
    assert ids == sorted(ids)
    for cid in set(ids):
        own = [r.r2_own for r in report.rows if r.cluster_id == cid]
        assert own == sorted(own, reverse=True)
    for r in report.rows:
        assert r.r2_own >= r.r2_next - 1e-12  # converged: own PC explains best
        if r.r2_own < 1.0:
            assert r.ratio == pytest.approx((1.0 - r.r2_own) / (1.0 - r.r2_next))
        else:
            assert r.ratio == 0.0


def test_every_variable_in_exactly_one_cluster(turbine_ds):
    report = cluster_variables(turbine_ds)
    seen = [m for c in report.clusters for m in c.members]
    assert sorted(seen) == sorted(PREDICTORS)
    assert len(report.clusters) >= 2  # process and weather separate on this fixture
    sizes = [len(c.members) for c in report.clusters]
    assert sizes == sorted(sizes, reverse=True)  # largest cluster first
    assert [c.id for c in report.clusters] == list(range(1, len(report.clusters) + 1))


def test_clustering_is_deterministic(turbine_ds):
    a = cluster_variables(turbine_ds)
    b = cluster_variables(turbine_ds)
    assert a == b


def test_cluster_guards(tiny_ds):
    with pytest.raises(ConfigError, match="at least 2"):
        cluster_variables(tiny_ds, ("at",))
    with pytest.raises(ConfigError, match="positive"):
        cluster_variables(tiny_ds, ("at", "ap"), threshold=0.0)
    flat = _ds_from_columns(a=np.ones(10), b=np.arange(10.0))
    with pytest.raises(DegenerateDataError, match="'a' has zero variance"):
        cluster_variables(flat, ("a", "b"))
    one_row = _ds_from_columns(a=np.ones(1), b=np.arange(1.0))
    with pytest.raises(DegenerateDataError, match="at least 2 records"):
        cluster_variables(one_row, ("a", "b"))


def test_cluster_variables_names_a_variable_whose_variance_overflows():
    # finite cells, overflowing squared deviations: the Dataset refuses
    # them, so cluster_variables never meets them; warnings are errors here
    a = np.arange(10.0)
    a[:2] = (1.5e308, -1.5e308)
    with pytest.raises(DegenerateDataError,
                       match=r"^variable 'a' spans \[-1.5e\+308, 1.5e\+308\]: "
                             r"its variance overflows float64$"):
        cluster_variables(_ds_from_columns(a=a, b=np.arange(10.0) ** 2),
                          ("b", "a"))


def test_dependence_tags():
    assert dependence_tag("tit") == "process"
    assert dependence_tag("cdp") == "process"
    assert dependence_tag("at") == "weather"
    assert dependence_tag("ah") == "weather"
    assert dependence_tag("ap") == "weather"
