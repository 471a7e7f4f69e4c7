import numpy as np
import pytest

from pemskit import varclus
from pemskit.errors import ConfigError, DegenerateDataError
from pemskit.ingest import PREDICTORS, Dataset
from pemskit.stats import eigenpairs, gram
from pemskit.synthetic import make_dataset
from pemskit.varclus import (REASSIGN_PASS_CAP, VarCluster, VarClusterReport,
                             VariableClusterRow, cluster_variables,
                             dependence_tag)


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


# -- reference: the loop that fits every partition again each time it
# reads one (each split search, each reassignment pass, the report) and
# takes every correlation's self products again for every pair

def _squared_corr(a, b):
    denom = float(np.dot(a, a)) * float(np.dot(b, b))
    if denom == 0.0:
        return 0.0
    num = float(np.dot(a, b))
    return min((num * num) / denom, 1.0)


def _reference_eigs(z, members):
    if len(members) == 1:
        return np.array([1.0]), np.array([[1.0]])
    return eigenpairs(gram(z[:, members], z.shape[0] - 1))


def _reference_fit(z, clusters):
    eigs = [_reference_eigs(z, members) for members in clusters]
    scores = [z[:, members] @ vecs[:, 0]
              for members, (_, vecs) in zip(clusters, eigs)]
    r2 = np.array([[_squared_corr(z[:, j], s) for s in scores]
                   for j in range(z.shape[1])])
    return eigs, r2


def _reference_reassign(z, clusters, seen):
    for _ in range(REASSIGN_PASS_CAP):
        _, r2 = _reference_fit(z, clusters)
        owner = {j: ci for ci, members in enumerate(clusters) for j in members}
        moves = [(j, int(target)) for j, target in enumerate(r2.argmax(axis=1))
                 if target != owner[j]]
        seen["moves"] += len(moves)
        for j, target in moves:
            clusters[owner[j]].remove(j)
            clusters[target].append(j)
        clusters = [c for c in clusters if c]
        if not moves:
            return clusters
    raise DegenerateDataError("no convergence")


def _reference_clusters(ds, names, threshold, seen):
    z = varclus._standardized(ds, names)
    clusters = [list(range(len(names)))]
    blocked = set()
    for _ in range(10 * len(names) + 10):
        best_ci, best_l2, best_vecs = -1, threshold, None
        for ci, members in enumerate(clusters):
            if len(members) < 2 or ci in blocked:
                continue
            eigvals, eigvecs = _reference_eigs(z, members)
            if float(eigvals[1]) > best_l2:
                best_ci, best_l2, best_vecs = ci, float(eigvals[1]), eigvecs
        if best_ci < 0:
            break
        members = clusters[best_ci]
        pc1 = z[:, members] @ best_vecs[:, 0]
        pc2 = z[:, members] @ best_vecs[:, 1]
        side1, side2 = [], []
        for j in members:
            zj = z[:, j]
            (side1 if _squared_corr(zj, pc1) >= _squared_corr(zj, pc2)
             else side2).append(j)
        if not side1 or not side2:
            seen["blocked"] += 1
            blocked.add(best_ci)
            continue
        clusters[best_ci] = side1
        clusters.append(side2)
        clusters = _reference_reassign(z, clusters, seen)
        blocked.clear()
    clusters.sort(key=lambda c: (-len(c), min(c)))
    eigs, r2 = _reference_fit(z, clusters)
    cluster_objs, rows = [], []
    for ci, (members, (eigvals, _)) in enumerate(zip(clusters, eigs)):
        r2_own = {j: float(r2[j, ci]) if len(members) > 1 else 1.0
                  for j in members}
        ordered = sorted(members, key=lambda j: (-r2_own[j], j))
        cluster_objs.append(VarCluster(
            ci + 1, tuple(names[j] for j in ordered), float(eigvals[0]),
            float(eigvals[1]) if len(members) > 1 else None))
        for j in ordered:
            r2_next = max((float(v) for oi, v in enumerate(r2[j]) if oi != ci),
                          default=0.0)
            if r2_own[j] >= 1.0:
                ratio = 0.0
            elif r2_next >= 1.0:
                ratio = float("inf")
            else:
                ratio = (1.0 - r2_own[j]) / (1.0 - r2_next)
            rows.append(VariableClusterRow(names[j], ci + 1, r2_own[j], r2_next,
                                           ratio))
    return VarClusterReport(tuple(cluster_objs), tuple(rows))


def _bits(report):
    """Every field of a report, each float as its exact bit pattern."""
    def cell(v):
        return v.hex() if isinstance(v, float) else v
    return ([(c.id, c.members, cell(c.eigenvalue1), cell(c.eigenvalue2))
             for c in report.clusters],
            [(r.variable, r.cluster_id, cell(r.r2_own), cell(r.r2_next),
              cell(r.ratio)) for r in report.rows])


def _cases():
    """Synthetic 5 x 60 turbine data, 200 rows of noise, and three blocks
    of three variables with cross-loadings, so that some splits are
    blocked and some reassignment passes move variables."""
    for seed in range(8):
        yield make_dataset(rows_per_year=60, seed=seed, drift=0.3), None
        rng = np.random.default_rng(seed)
        loadings = np.repeat(np.eye(3), 3, axis=1) + rng.uniform(-0.7, 0.7, (3, 9))
        for m in (rng.normal(size=(200, 8)),
                  rng.normal(size=(200, 3)) @ loadings + 0.5 * rng.normal(size=(200, 9))):
            names = tuple(f"v{i}" for i in range(m.shape[1]))
            yield _ds_from_columns(**dict(zip(names, m.T))), names


def _copying_standardized(ds, names):
    """varclus._standardized with a new matrix for each step."""
    data = ds.matrix(names)
    centered = data - data.mean(axis=0)
    return centered / centered.std(axis=0, ddof=1)


def test_standardized_in_place_matches_the_copying_form():
    for ds, names in _cases():
        resolved = tuple(names or PREDICTORS)
        assert varclus._standardized(ds, resolved).tobytes() == \
            _copying_standardized(ds, resolved).tobytes()


def test_one_fit_per_partition_matches_the_refitting_reference():
    seen = {"blocked": 0, "moves": 0}
    for ds, names in _cases():
        resolved = tuple(names or PREDICTORS)
        for threshold in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0,
                          1.2, 1.5, 2.0):
            ours = cluster_variables(ds, names, threshold)
            assert _bits(ours) == _bits(
                _reference_clusters(ds, resolved, threshold, seen))
    # the sweep takes both paths the single fit has to keep right
    assert seen["blocked"] > 0 and seen["moves"] > 0


@pytest.mark.parametrize("threshold, calls", [(1.0, 3), (0.5, 5)])
def test_each_partition_is_fitted_once(turbine_ds, monkeypatch, threshold,
                                       calls):
    # one eigenpairs call per non-singleton cluster of each partition
    # (the refitting reference makes 7 and 12)
    made = []
    monkeypatch.setattr(varclus, "eigenpairs",
                        lambda m: made.append(m.shape) or eigenpairs(m))
    cluster_variables(turbine_ds, threshold=threshold)
    assert len(made) == calls
