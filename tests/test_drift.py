import math
import re

import numpy as np
import pytest

from pemskit.drift import (
    drift_report,
    fit_pca,
    linear_fit,
    project,
    yearly_fit,
)
from pemskit.errors import ConfigError, DataError, DegenerateDataError
from pemskit.ingest import Dataset
from pemskit.synthetic import make_dataset


def _ds_from_columns(year=None, **cols):
    n = len(next(iter(cols.values())))
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
    if year is None:
        year = np.full(n, 2011, dtype=np.int64)
    years = tuple(sorted(set(int(v) for v in year)))
    return Dataset(arrays, np.asarray(year, dtype=np.int64), years)


def test_pca_two_perfectly_correlated_variables():
    x = np.arange(1.0, 21.0)
    ds = _ds_from_columns(a=x, b=3.0 * x + 2.0)
    model = fit_pca(ds, ("a", "b"))
    assert model.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)
    # symmetric pair: PC1 loads both equally
    r = 1.0 / math.sqrt(2.0)
    assert model.loadings[:, 0] == pytest.approx([r, r], abs=1e-12)
    assert model.eigenvalues[0] / model.eigenvalues.sum() == \
        pytest.approx(1.0, abs=1e-12)


def test_pca_trace_identity_and_orthonormal_loadings(turbine_ds):
    model = fit_pca(turbine_ds)
    p = model.n_variables
    assert float(model.eigenvalues.sum()) == pytest.approx(p, abs=1e-9)
    assert list(model.eigenvalues) == sorted(model.eigenvalues, reverse=True)
    assert np.all(model.eigenvalues >= 0.0)
    gram = model.loadings.T @ model.loadings
    assert np.allclose(gram, np.eye(p), atol=1e-10)
    # sign convention: each column's largest-magnitude entry is positive
    for j in range(p):
        col = model.loadings[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_score_variance_equals_eigenvalue(turbine_ds):
    model = fit_pca(turbine_ds)
    scores = project(model, turbine_ds, model.n_variables)
    var = scores.var(axis=0, ddof=1)
    assert var == pytest.approx(model.eigenvalues, abs=1e-6)
    # scores are centered on the fitting data
    assert scores.mean(axis=0) == pytest.approx(np.zeros(model.n_variables), abs=1e-9)


def test_scores_invariant_under_affine_rescaling(turbine_ds):
    base = fit_pca(turbine_ds, ("at", "ah", "tit", "tey"))
    cols = {k: v.copy() for k, v in turbine_ds.columns.items()}
    cols["at"] = cols["at"] * 12.0 - 40.0    # correlation-matrix PCA ignores units
    cols["tit"] = cols["tit"] * 0.5 + 3.0
    scaled_ds = Dataset(cols, turbine_ds.year.copy(), turbine_ds.years)
    scaled = fit_pca(scaled_ds, ("at", "ah", "tit", "tey"))
    assert scaled.eigenvalues == pytest.approx(base.eigenvalues, abs=1e-9)
    s0 = project(base, turbine_ds, 2)
    s1 = project(scaled, scaled_ds, 2)
    for j in range(2):
        sign = 1.0 if np.dot(s0[:, j], s1[:, j]) >= 0 else -1.0
        assert s1[:, j] * sign == pytest.approx(s0[:, j], abs=1e-8)


def test_fit_pca_guards():
    ds = _ds_from_columns(a=np.arange(3.0), b=np.arange(3.0) * 2.0)
    with pytest.raises(DegenerateDataError, match="more rows than variables"):
        fit_pca(_ds_from_columns(a=np.arange(2.0), b=np.arange(2.0)), ("a", "b"))
    flat = _ds_from_columns(a=np.ones(9), b=np.arange(9.0))
    with pytest.raises(DegenerateDataError, match="'a' has zero variance"):
        fit_pca(flat, ("a", "b"))
    model = fit_pca(_ds_from_columns(a=np.arange(9.0), b=np.arange(9.0) ** 2), ("a", "b"))
    with pytest.raises(ConfigError):
        project(model, ds, 3)


@pytest.mark.parametrize("far", [1e153, 1e140], ids=["inf", "finite"])
def test_project_names_a_cell_too_far_from_the_fitted_spread(far):
    # the fitted std of 'a' is 3e-160: 1e153 standardizes past float64,
    # 1e140 to 3e299, where sums of such scores could overflow
    a = np.arange(20.0) * 1e-160
    a[12] = far
    ds = _ds_from_columns(a=a, b=np.arange(20.0) ** 2)
    model = fit_pca(ds.subset(np.arange(10)), ("a", "b"))
    with pytest.raises(DegenerateDataError, match=(
            rf"^variable 'a' of row 12 is {re.escape(repr(far))}, more than "
            r"2\*\*960 standard deviations from the fitted mean: its "
            r"scores would overflow float64$")):
        project(model, ds, 2)


def _copying_project(model, ds, n_components=2):
    """project with a new matrix for each step, reading a far cell from
    the raw copy."""
    x = ds.matrix(model.variables)
    with np.errstate(over="ignore"):
        z = (x - model.means) / model.stds
    if not (np.abs(z) <= 2.0**960).all():
        row, j = divmod(int(np.flatnonzero(~(np.abs(z) <= 2.0**960))[0]),
                        model.n_variables)
        return f"variable '{model.variables[j]}' of row {row} is {float(x[row, j])!r}"
    return z @ model.loadings[:, :n_components]


def test_project_in_place_matches_the_copying_form():
    rng = np.random.default_rng(6)
    noise = _ds_from_columns(**{name: rng.normal(size=200) * 10.0 ** i
                                for i, name in enumerate("abcd")})
    for seed in range(4):
        ds = make_dataset(rows_per_year=60, seed=seed, drift=0.3)
        model = fit_pca(ds.for_year(2011))
        for n_components in (1, 2, model.n_variables):
            assert project(model, ds, n_components).tobytes() == \
                _copying_project(model, ds, n_components).tobytes()
    model = fit_pca(noise.subset(np.arange(50)), tuple("abcd"))
    assert project(model, noise, 3).tobytes() == \
        _copying_project(model, noise, 3).tobytes()
    # a far cell: both name the same variable, row and raw value
    a = np.arange(20.0) * 1e-160
    a[7], a[12] = 1e140, -1e153
    far = _ds_from_columns(a=a, b=np.arange(20.0) ** 2)
    model = fit_pca(far.subset(np.arange(5)), ("a", "b"))
    with pytest.raises(DegenerateDataError) as raised:
        project(model, far, 2)
    assert str(raised.value).startswith(_copying_project(model, far) + ", ")


def test_fit_pca_names_a_variable_whose_variance_overflows():
    # finite cells, overflowing squared deviations: the Dataset refuses
    # them, so fit_pca never meets them; warnings are errors here
    a = np.arange(9.0)
    a[:2] = (1.5e308, -1.5e308)
    with pytest.raises(DegenerateDataError,
                       match=r"^variable 'a' spans \[-1.5e\+308, 1.5e\+308\]: "
                             r"its variance overflows float64$"):
        fit_pca(_ds_from_columns(a=a, b=np.arange(9.0) ** 2), ("b", "a"))


def test_fit_pca_rejects_a_std_that_underflows():
    # a subnormal sum of squares: the correlation norm is positive, but the
    # ddof=1 variance underflows to 0 and could not standardize anything
    a = np.zeros(1000)
    a[-1] = 3e-162
    tiny = _ds_from_columns(a=a, b=np.arange(1000.0))
    with pytest.raises(DegenerateDataError, match="'a' has zero variance"):
        fit_pca(tiny, ("a", "b"))


def test_linear_fit_recovers_exact_line():
    x = np.linspace(0.0, 10.0, 50)
    fit = linear_fit(x, 2.5 * x - 4.0)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-4.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 50


def test_linear_fit_constant_target_is_perfect():
    fit = linear_fit(np.arange(5.0), np.full(5, 3.3))
    assert fit.slope == 0.0
    assert fit.intercept == pytest.approx(3.3)
    assert fit.r_squared == 1.0


def test_linear_fit_residuals_and_r2_identity():
    rng = np.random.default_rng(12)
    x = rng.normal(size=400)
    y = 1.7 * x + rng.normal(size=400)
    fit = linear_fit(x, y)
    resid = y - (fit.intercept + fit.slope * x)
    assert float(resid.sum()) == pytest.approx(0.0, abs=1e-9)
    # simple OLS: r² equals the squared Pearson correlation
    assert fit.r_squared == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2,
                                          abs=1e-9)
    assert 0.0 <= fit.r_squared <= 1.0


def test_linear_fit_guards():
    with pytest.raises(DegenerateDataError):
        linear_fit(np.array([1.0]), np.array([2.0]))
    with pytest.raises(DegenerateDataError, match="zero variance"):
        linear_fit(np.ones(5), np.arange(5.0))


def test_linear_fit_names_an_axis_whose_variance_overflows():
    # finite cells, overflowing squared deviations; warnings are errors here
    wide = np.array([1.5e308, -1.5e308, 1.0, 2.0])
    with pytest.raises(DegenerateDataError,
                       match="variable 'x': its variance overflows float64"):
        linear_fit(wide, np.arange(4.0))
    with pytest.raises(DegenerateDataError,
                       match="variable 'y': its variance overflows float64"):
        linear_fit(np.arange(4.0), wide)


@pytest.mark.parametrize("x, y, message", [
    (np.ones((5, 2)), np.arange(5.0),
     "x and y must be 1-D of one length, got shapes (5, 2) and (5,)"),
    (np.arange(5.0), np.arange(4.0),
     "x and y must be 1-D of one length, got shapes (5,) and (4,)"),
    # numpy would broadcast y over x and fit n = 5
    (np.arange(5.0), np.ones(1),
     "x and y must be 1-D of one length, got shapes (5,) and (1,)"),
    (np.array([0.0, np.nan, 2.0]), np.arange(3.0),
     "variable 'x': non-finite value nan in record 1"),
    (np.arange(3.0), np.array([0.0, 1.0, -np.inf]),
     "variable 'y': non-finite value -inf in record 2"),
], ids=["2-D", "unequal", "broadcast", "nan", "inf"])
def test_linear_fit_refuses_arrays_a_dataset_would_refuse(x, y, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        linear_fit(x, y)


def test_yearly_fit_names_the_year_and_column_whose_variance_overflows():
    # the Dataset refuses the column, over all its years, before
    # yearly_fit splits it by year: no year is named
    tep = np.arange(8.0)
    tep[5:7] = (1.5e308, -1.5e308)
    with pytest.raises(DegenerateDataError,
                       match=r"^variable 'tep' spans \[-1.5e\+308, "
                             r"1.5e\+308\]: its variance overflows float64$"):
        yearly_fit(_ds_from_columns(year=np.repeat([2011, 2012], 4), tep=tep,
                                    cdp=np.arange(8.0) ** 2),
                   x_unit_scale=0.001)


def test_yearly_fit_names_the_year_variable_and_scale_that_overflow():
    # warnings are errors here: the scaling overflows without one
    ds = make_dataset(years=(2011, 2012), rows_per_year=60, seed=1)
    with pytest.raises(DegenerateDataError,
                       match=r"^year 2011: variable 'tep' times x_unit_scale "
                             r"1e\+307 overflows float64$"):
        yearly_fit(ds, x_unit_scale=1e307)


def test_yearly_fit_names_a_year_with_one_row():
    ds = _ds_from_columns(year=[2011, 2011, 2011, 2012], tep=np.arange(4.0),
                          cdp=np.arange(4.0) ** 2)
    with pytest.raises(DegenerateDataError,
                       match="^year 2012 has fewer than 2 rows$"):
        yearly_fit(ds)


def test_yearly_fit_unit_scale_moves_slope(turbine_ds):
    plain = yearly_fit(turbine_ds, "tep", "cdp", 1.0)
    scaled = yearly_fit(turbine_ds, "tep", "cdp", 0.001)
    assert set(plain) == set(turbine_ds.years)
    for year in turbine_ds.years:
        a, b = plain[year], scaled[year]
        # shrinking x units by 1000 grows the slope by 1000; fit quality unchanged
        assert b.slope == pytest.approx(a.slope * 1000.0, rel=1e-9)
        assert b.intercept == pytest.approx(a.intercept, rel=1e-9)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-12)
        assert a.n == turbine_ds.for_year(year).n_records
    with pytest.raises(ConfigError):
        yearly_fit(turbine_ds, x_unit_scale=0.0)


def test_drift_report_reference_year_is_origin(turbine_ds):
    report = drift_report(turbine_ds)
    assert report.reference_year == turbine_ds.years[0]
    (ref,) = [yd for yd in report.years if yd.year == report.reference_year]
    assert ref.displacement == 0.0
    # reference-year scores are centered, so its centroid is the origin
    assert ref.centroid == pytest.approx((0.0, 0.0), abs=1e-9)
    for yd in report.years:
        assert yd.displacement == pytest.approx(
            math.hypot(*yd.centroid), abs=1e-12)
        assert yd.displacement >= 0.0


def test_drift_report_identical_years_show_no_drift():
    one = make_dataset(years=(2011,), rows_per_year=250, seed=3)
    cols = {k: np.concatenate([v, v, v]) for k, v in one.columns.items()}
    year = np.concatenate([np.full(250, y, dtype=np.int64) for y in (2011, 2012, 2013)])
    ds = Dataset(cols, year, (2011, 2012, 2013))
    report = drift_report(ds)
    for yd in report.years:
        assert yd.displacement == pytest.approx(0.0, abs=1e-9)
        assert yd.fit == report.years[0].fit  # identical rows, identical fit


def test_drift_report_detects_planted_drift():
    ds = make_dataset(rows_per_year=400, seed=2, drift=0.35)
    report = drift_report(ds)
    disp = [yd.displacement for yd in report.years]
    assert disp[0] == 0.0
    assert disp[-1] > disp[1] > 0.0   # drift accumulates away from the reference
    r2 = [yd.fit.r_squared for yd in report.years]
    assert all(b < a for a, b in zip(r2, r2[1:]))  # fit quality decays year over year
    assert r2[0] > 0.99


def test_drift_report_rejects_unknown_reference(turbine_ds):
    with pytest.raises(ConfigError, match="reference year"):
        drift_report(turbine_ds, reference_year=1999)


def test_drift_report_needs_two_variables(turbine_ds):
    with pytest.raises(ConfigError, match=r"\(PC1, PC2\).*at least 2 variables"):
        drift_report(turbine_ds, variables=("at",))
