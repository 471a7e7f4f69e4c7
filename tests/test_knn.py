import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemskit.errors import ConfigError, DataError, DegenerateDataError
from pemskit.ingest import Dataset
from pemskit.knn import (
    DEFAULT_FRACTIONS,
    PARTITIONS,
    KnnModel,
    SplitAssignment,
    _partition_counts,
    _scan,
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
    out_d2 = np.empty((n_q, k), np.float64)
    out_ix = np.empty((n_q, k), np.int64)
    for qi in range(n_q):
        best_d2 = np.full(k, np.inf)
        best_ix = np.full(k, -1, np.int64)
        me = self_rows[qi]
        for t in range(n_t):
            if train_rows[t] == me:
                continue
            d2 = 0.0
            for j in range(p):
                diff = q_z[qi, j] - train_z[t, j]
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


def test_scan_matches_reference_loop():
    rng = np.random.default_rng(77)
    train_z = np.ascontiguousarray(np.round(rng.normal(size=(90, 3)), 1))
    q_z = np.ascontiguousarray(np.round(rng.normal(size=(40, 3)), 1))
    train_rows = np.arange(90, dtype=np.int64)
    self_rows = np.full(40, -1, dtype=np.int64)
    self_rows[:10] = np.arange(10)
    for k in (1, 5, 17):
        d2a, ixa = _reference_scan(train_z, train_rows, q_z, self_rows, k)
        d2b, ixb = _scan(train_z, train_rows, q_z, self_rows, k)
        assert np.array_equal(d2a, d2b)
        assert np.array_equal(ixa, ixb)


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
    x = np.zeros((30, 2))
    x[:, 1] = np.arange(30.0)
    flat = _ds_from_matrix(x, np.arange(30.0))
    with pytest.raises(DegenerateDataError, match="'p0' has zero variance"):
        fit_knn(flat, split(flat), ("p0", "p1"), "y", k=2)


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
    for k in range(1, 7):
        model = fit_knn(tiny_ds, assignment, k=k)
        fresh = evaluate(model, tiny_ds, assignment, "Validation").rase
        assert curve.rase_for(k) == fresh  # prefix fold is bit-identical
    best = min(rase for _, rase in curve.points)
    assert curve.rase_for(curve.chosen_k) == best
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
    all_training = SplitAssignment(np.zeros(tiny_ds.n_records, dtype=np.int64),
                                   DEFAULT_FRACTIONS, 0)
    with pytest.raises(DegenerateDataError, match="validation partition is empty"):
        select_k(tiny_ds, all_training)


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
    first = next(table.iter_rows())
    assert first[0] == 0 and first[1] in PARTITIONS


# ------------------------------------------------------------- comparison


def test_pooled_vs_yearly_structure(iid_ds):
    cmp = compare_pooled_vs_yearly(iid_ds, seed=0, k_max=5)
    assert cmp.pooled.label == "pooled"
    assert [m.label for m in cmp.yearly] == [str(y) for y in iid_ds.years]
    assert 1 <= cmp.pooled.chosen_k <= 5
    for ev in (cmp.pooled, *cmp.yearly):
        assert set(ev.metrics) == {"Training", "Validation", "Test", "Total"}
        assert 1 <= ev.chosen_k <= 5
        assert ev.metrics["Validation"].rase == ev.curve.rase_for(ev.chosen_k)
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
    ("train_y", lambda v: v[:-1] + [math.inf], "train_y must be finite"),
], ids=["negative-k", "k-above-training", "weighting", "leave-self-out",
        "no-predictors", "zero-stds", "short-means", "short-train-rows",
        "nan-train-z", "inf-train-y"])
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
