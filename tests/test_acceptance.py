"""Acceptance gate.

Criteria 1-8 replicate published five-year turbine results and need the
real dataset: per-year CSVs under $PEMSKIT_DATA_DIR or ./data.  Without
it they report SKIP.  Criteria 9-10 are property-based and always run.

Each criterion prints one PASS/FAIL/SKIP line; the lines are repeated in
a terminal summary section after the run.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from test_knn import _ds_from_matrix, _oracle_predict

from pemskit.cli import ENV_DATA_DIR, main
from pemskit.drift import fit_pca, linear_fit, project, yearly_fit
from pemskit.errors import ConfigError, DataError, DegenerateDataError
from pemskit.ingest import (
    PREDICTORS,
    PROCESS_PREDICTORS,
    Dataset,
    load_dataset,
    write_year_files,
)
from pemskit.knn import (
    PARTITIONS,
    compare_pooled_vs_yearly,
    evaluate,
    fit_knn,
    predict_rows,
    select_k,
    split,
)
from pemskit.screening import ForestConfig, screen_predictors
from pemskit.stats import correlation_matrix
from pemskit.synthetic import make_dataset
from pemskit.varclus import cluster_variables

YEARS = (2011, 2012, 2013, 2014, 2015)
ROW_COUNTS = {2011: 7411, 2012: 7628, 2013: 7152, 2014: 7136, 2015: 7384}
SEEDS = (0, 1, 2, 3, 4)

_dataset_cache: list = []
_compare_cache: dict[int, object] = {}
_pipeline_seconds: list[float] = []


def _real_dataset():
    if not _dataset_cache:
        root = os.environ.get(ENV_DATA_DIR, "data")
        try:
            _dataset_cache.append(load_dataset(root, YEARS))
        except (DataError, ConfigError):
            _dataset_cache.append(None)
    return _dataset_cache[0]


def _compare(ds, seed):
    if seed not in _compare_cache:
        t0 = time.perf_counter()
        _compare_cache[seed] = compare_pooled_vs_yearly(ds, seed=seed)
        _pipeline_seconds.append(time.perf_counter() - t0)
    return _compare_cache[seed]


def _report(n: int, status: str, detail: str) -> None:
    line = f"{status} criterion {n:>2}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


@contextmanager
def _criterion(n: int, desc: str):
    try:
        yield
    except Exception as exc:
        reason = " ".join(str(exc).split())    # keep the report line single
        if len(reason) > 160:
            reason = reason[:157] + "..."
        _report(n, "FAIL", f"{desc} ({reason})")
        raise
    _report(n, "PASS", desc)


def _need_dataset(n: int, desc: str) -> Dataset:
    ds = _real_dataset()
    if ds is None:
        root = os.environ.get(ENV_DATA_DIR, "data")
        _report(n, "SKIP", f"{desc} (dataset not found under '{root}'; "
                           f"set {ENV_DATA_DIR} or populate ./data)")
        pytest.skip(f"five-year turbine dataset not available for criterion {n}")
    return ds


def test_criterion_01_row_counts():
    desc = "row counts: 36711 total, per-year 7411/7628/7152/7136/7384"
    ds = _need_dataset(1, desc)
    with _criterion(1, desc):
        assert ds.n_records == 36711, f"total {ds.n_records}"
        for year, want in ROW_COUNTS.items():
            got = ds.for_year(year).n_records
            assert got == want, f"year {year}: {got} != {want}"


def test_criterion_02_correlations():
    desc = "correlations: at-ah -0.4763, tit-tey 0.9106, tit-cdp 0.9093 (±0.002)"
    ds = _need_dataset(2, desc)
    with _criterion(2, desc):
        cm = correlation_matrix(ds, PREDICTORS)
        for a, b, want in (("at", "ah", -0.4763), ("tit", "tey", 0.9106),
                           ("tit", "cdp", 0.9093)):
            got = cm.value(a, b)
            assert abs(got - want) <= 0.002, f"{a}-{b}: {got:.4f} vs {want}"


def test_criterion_03_variable_clusters():
    desc = ("clustering: {cdp,tey,tep,tit,afdp,tat} {ah,at} {ap}; "
            "ap exact singleton; cdp r2_own 0.983±0.05")
    ds = _need_dataset(3, desc)
    with _criterion(3, desc):
        report = cluster_variables(ds)
        got = set(report.memberships())
        want = {frozenset({"cdp", "tey", "tep", "tit", "afdp", "tat"}),
                frozenset({"ah", "at"}), frozenset({"ap"})}
        assert got == want, f"memberships {sorted(map(sorted, got))}"
        ap = report.row("ap")
        assert ap.r2_own == 1.0 and ap.ratio == 0.0, f"ap {ap}"
        cdp = report.row("cdp")
        assert abs(cdp.r2_own - 0.983) <= 0.05, f"cdp r2_own {cdp.r2_own:.4f}"


def test_criterion_04_yearly_fits():
    desc = ("cdp~tep fits (bar): 2011 r2 0.9891±0.01, slope 263.6±5%, "
            "intercept 5.44±5%; 2015 r2 0.8801±0.02 and below 2011")
    ds = _need_dataset(4, desc)
    with _criterion(4, desc):
        fits = yearly_fit(ds, "tep", "cdp", x_unit_scale=0.001)
        f11, f15 = fits[2011], fits[2015]
        assert abs(f11.r_squared - 0.9891) <= 0.01, f"2011 r2 {f11.r_squared:.4f}"
        assert abs(f11.slope - 263.6) <= 0.05 * 263.6, f"2011 slope {f11.slope:.1f}"
        assert abs(f11.intercept - 5.44) <= 0.05 * 5.44, \
            f"2011 intercept {f11.intercept:.2f}"
        assert abs(f15.r_squared - 0.8801) <= 0.02, f"2015 r2 {f15.r_squared:.4f}"
        assert f15.r_squared < f11.r_squared


def test_criterion_05_predictor_screening():
    desc = ("screening: at rank 1 portion 0.3185±0.05 (9 predictors); tit "
            "rank 1 portion 0.2205±0.05 (process); top-3 at,tit,tep >= 4/5 seeds")
    ds = _need_dataset(5, desc)
    with _criterion(5, desc):
        res9 = screen_predictors(ds, cfg=ForestConfig(seed=0))
        assert res9.ranked_predictors()[0] == "at", res9.ranked_predictors()
        at = res9.by_predictor("at")
        assert abs(at.portion - 0.3185) <= 0.05, f"at portion {at.portion:.4f}"
        res6 = screen_predictors(ds, PROCESS_PREDICTORS,
                                 cfg=ForestConfig(seed=0))
        assert res6.ranked_predictors()[0] == "tit", res6.ranked_predictors()
        tit = res6.by_predictor("tit")
        assert abs(tit.portion - 0.2205) <= 0.05, f"tit portion {tit.portion:.4f}"
        hits = 0
        for seed in SEEDS:
            top3 = screen_predictors(
                ds, cfg=ForestConfig(seed=seed)).ranked_predictors()[:3]
            hits += top3 == ["at", "tit", "tep"]
        assert hits >= 4, f"top-3 reproduced for {hits}/5 seeds"


def test_criterion_06_k_selection():
    desc = "K selection: chosen k = 3 at seed 0; k in {2,3,4} for 5 seeds"
    ds = _need_dataset(6, desc)
    with _criterion(6, desc):
        chosen = {}
        for seed in SEEDS:
            curve = select_k(ds, split(ds, seed=seed), k_max=10)
            chosen[seed] = curve.chosen_k
        assert chosen[0] == 3, f"seed 0 chose k={chosen[0]}"
        assert all(k in (2, 3, 4) for k in chosen.values()), f"chosen {chosen}"


def test_criterion_07_pooled_metrics():
    desc = ("pooled KNN: Training R2 0.9349±0.03, Test R2 0.8634±0.03; "
            "RASE ±0.4 and AAE ±0.25 of printed values")
    ds = _need_dataset(7, desc)
    with _criterion(7, desc):
        cmp = _compare(ds, 0)
        m = cmp.pooled.metrics
        targets = {"Training": (0.9349, 2.9770, 1.7471),
                   "Test": (0.8634, 4.4142, 2.6098)}
        for part, (r2, rase, aae) in targets.items():
            got = m[part]
            assert abs(got.r_squared - r2) <= 0.03, \
                f"{part} R2 {got.r_squared:.4f} vs {r2}"
            assert abs(got.rase - rase) <= 0.4, f"{part} RASE {got.rase:.4f}"
            assert abs(got.aae - aae) <= 0.25, f"{part} AAE {got.aae:.4f}"


def test_criterion_08_yearly_beats_pooled():
    desc = ("yearly aggregate Test R2 beats pooled for >= 4/5 seeds; "
            "per-year Total R2 > 0.90; pipeline under 300 s")
    ds = _need_dataset(8, desc)
    with _criterion(8, desc):
        wins = 0
        for seed in SEEDS:
            cmp = _compare(ds, seed)
            agg = cmp.by_year_aggregate["Test"].r_squared
            pooled = cmp.pooled.metrics["Test"].r_squared
            wins += agg > pooled
        assert wins >= 4, f"yearly beat pooled for {wins}/5 seeds"
        cmp0 = _compare(ds, 0)
        for ev in cmp0.yearly:
            total_r2 = ev.metrics["Total"].r_squared
            assert total_r2 > 0.90, f"year {ev.label} Total R2 {total_r2:.4f}"
        slowest = max(_pipeline_seconds)
        assert slowest < 300.0, f"slowest single pipeline took {slowest:.0f}s"


def test_criterion_09_oracle_equivalence():
    desc = "KNN oracle equivalence: 1000 random instances, exact match"
    with _criterion(9, desc):
        rng = np.random.default_rng(260826)
        instances = 0
        checked = 0
        while instances < 1000:
            n = int(rng.integers(12, 201))
            p = int(rng.integers(1, 5))
            x = np.round(rng.normal(size=(n, p)) * 2.0) / 2.0
            y = np.round(rng.normal(size=n) * 10.0, 1)
            ds = _ds_from_matrix(x, y)
            assignment = split(ds, seed=int(rng.integers(0, 10_000)))
            k = int(rng.integers(1, max(2, assignment.counts()["Training"] - 1)))
            weighting = "uniform" if rng.integers(2) else "inverse_distance"
            leave = bool(rng.integers(2))
            names = tuple(f"p{j}" for j in range(p))
            try:
                model = fit_knn(ds, assignment, names, "y", k, weighting, leave)
            except DegenerateDataError:
                continue    # grid column constant in Training; redraw
            instances += 1
            predicted = predict_rows(model, ds)
            for i in range(n):
                raw = [ds.column(nm)[i] for nm in names]
                want = _oracle_predict(model, raw, i if leave else None)
                assert predicted[i] == want, \
                    f"instance {instances} row {i}: {predicted[i]!r} != {want!r}"
                checked += 1
        assert checked >= 100_000


def test_criterion_10_invariant_suite(tmp_path_factory):
    desc = ("invariants: PCA trace/score identities, OLS r2 = corr^2, "
            "RASE >= AAE, hull, scaling invariance, command bit-reproducibility")
    with _criterion(10, desc):
        ds = make_dataset(rows_per_year=200, seed=19, drift=0.2)

        # PCA trace identity and score variance = eigenvalue
        model = fit_pca(ds)
        assert abs(float(model.eigenvalues.sum()) - model.n_variables) < 1e-9
        scores = project(model, ds, model.n_variables)
        assert np.allclose(scores.var(axis=0, ddof=1), model.eigenvalues,
                           atol=1e-6)

        # OLS r-squared equals squared Pearson correlation
        fit = linear_fit(ds.column("tep"), ds.column("cdp"))
        corr = correlation_matrix(ds, ["tep", "cdp"]).value("tep", "cdp")
        assert abs(fit.r_squared - corr ** 2) < 1e-9

        # RASE >= AAE on every evaluation; predictions inside the hull
        assignment = split(ds, seed=0)
        knn = fit_knn(ds, assignment, k=5)
        preds = predict_rows(knn, ds)
        lo, hi = knn.train_y.min(), knn.train_y.max()
        span = 1e-9 * (hi - lo + 1.0)
        assert np.all(preds >= lo - span) and np.all(preds <= hi + span)
        for part in (*PARTITIONS, "Total"):
            m = evaluate(knn, ds, assignment, part)
            assert m.rase >= m.aae * (1.0 - 1e-12), f"{part}: {m}"

        # scaling invariance: correlations, cluster membership, predictions
        cols = {k: v.copy() for k, v in ds.columns.items()}
        cols["at"] = cols["at"] * 9.0 + 100.0
        cols["tit"] = cols["tit"] * 0.01
        scaled = Dataset(cols, ds.year.copy(), ds.years)
        cm0 = correlation_matrix(ds, PREDICTORS)
        cm1 = correlation_matrix(scaled, PREDICTORS)
        assert np.allclose(cm0.matrix, cm1.matrix, atol=1e-9)
        assert set(cluster_variables(ds).memberships()) == \
            set(cluster_variables(scaled).memberships())
        knn_scaled = fit_knn(scaled, assignment, k=5)
        assert np.allclose(predict_rows(knn_scaled, scaled), preds, atol=1e-9)

        # seeded bit-reproducibility of every command
        root = tmp_path_factory.mktemp("accept_cli")
        data_dir = root / "data"
        write_year_files(make_dataset(rows_per_year=60, seed=23, drift=0.2),
                         data_dir)
        runs = {
            "summary": ["--plots"],
            "correlate": [],
            "cluster-vars": [],
            "screen": ["--trees", "10"],
            "drift": [],
            "knn": ["--k-max", "3", "--plots"],
            "report": ["--trees", "8", "--k-max", "3"],
        }
        for command, extra in runs.items():
            outputs = []
            for tag in ("a", "b"):
                out = root / f"{command}_{tag}"
                code = main([command, "--data-dir", str(data_dir),
                             "--out-dir", str(out), "--seed", "7", *extra])
                assert code == 0, f"{command} exited {code}"
                outputs.append(out)
            a, b = outputs
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), \
                    f"{command}/{name} not byte-stable"
