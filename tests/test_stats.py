import math

import numpy as np
import pytest

from pemskit.errors import ConfigError, DegenerateDataError
from pemskit.ingest import PREDICTORS, Dataset
from pemskit.stats import (
    CorrelationMatrix,
    correlation_matrix,
    flag_high_nox,
    pearson,
    summarize,
)


def _ds_with(nox, **overrides):
    n = len(nox)
    cols = {name: np.linspace(1.0, 2.0, n) for name in PREDICTORS}
    cols["nox"] = np.asarray(nox, dtype=np.float64)
    for k, v in overrides.items():
        cols[k] = np.asarray(v, dtype=np.float64)
    return Dataset(cols, np.full(n, 2011, dtype=np.int64), (2011,))


def test_summary_hand_values():
    ds = _ds_with([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    (s,) = summarize(ds, bins=4, variables=["nox"])
    assert s.name == "nox"
    assert s.count == 8
    assert s.mean == 5.0
    assert s.std == pytest.approx(math.sqrt(32.0 / 7.0))
    assert (s.min, s.max) == (2.0, 9.0)
    assert (s.q1, s.median, s.q3) == (4.0, 4.5, 5.5)
    # 4 equal-width bins over [2, 9] with edges 2, 3.75, 5.5, 7.25, 9
    assert [c for _, _, c in s.histogram] == [1, 5, 1, 1]
    assert s.histogram[0][0] == 2.0 and s.histogram[-1][1] == 9.0


def test_histogram_counts_always_sum_to_n(turbine_ds):
    for s in summarize(turbine_ds, bins=17):
        assert sum(c for _, _, c in s.histogram) == turbine_ds.n_records


def test_summarize_defaults_cover_predictors_and_target(turbine_ds):
    names = [s.name for s in summarize(turbine_ds)]
    assert names == list(PREDICTORS) + ["nox"]
    assert all(len(s.histogram) == 30 for s in summarize(turbine_ds))


def test_constant_column_single_bin():
    ds = _ds_with([3.0, 3.0, 3.0])
    (s,) = summarize(ds, variables=["nox"])
    assert s.histogram == ((3.0, 3.0, 3),)
    assert s.std == 0.0


def test_summarize_guards():
    ds = _ds_with([1.0, 2.0])
    with pytest.raises(ConfigError):
        summarize(ds, bins=0)
    empty = Dataset({n: np.empty(0) for n in PREDICTORS + ("nox",)},
                    np.empty(0, dtype=np.int64), ())
    with pytest.raises(DegenerateDataError):
        summarize(empty)


def test_pearson_on_perfect_lines():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-14)
    assert pearson(x, -3.0 * x) == pytest.approx(-1.0, abs=1e-14)


def test_pearson_hand_value():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 3.0, 2.0])
    assert pearson(x, y) == pytest.approx(0.5)


def test_pearson_zero_variance_is_degenerate():
    with pytest.raises(DegenerateDataError):
        pearson(np.ones(5), np.arange(5.0))


def test_correlation_matrix_properties(turbine_ds):
    cm = correlation_matrix(turbine_ds, PREDICTORS + ("nox",))
    m = cm.matrix
    assert m.shape == (10, 10)
    assert np.array_equal(m, m.T)
    assert np.array_equal(np.diag(m), np.ones(10))
    assert np.all(m >= -1.0) and np.all(m <= 1.0)
    # agrees with numpy's estimator
    ref = np.corrcoef(turbine_ds.matrix(cm.variables), rowvar=False)
    assert np.allclose(m, ref, atol=1e-12)


def test_correlation_matrix_value_lookup():
    ds = _ds_with(np.arange(5.0), at=np.arange(5.0) * 2.0)
    cm = correlation_matrix(ds, ("at", "nox"))
    assert isinstance(cm, CorrelationMatrix)
    assert cm.value("at", "nox") == 1.0
    assert cm.value("nox", "at") == 1.0


def test_correlation_matrix_degenerate_inputs():
    ds = _ds_with([1.0, 2.0, 3.0], ap=[7.0, 7.0, 7.0])
    with pytest.raises(DegenerateDataError, match="'ap' has zero variance"):
        correlation_matrix(ds, ("ap", "nox"))
    one_row = _ds_with([1.0])
    with pytest.raises(DegenerateDataError, match="at least 2"):
        correlation_matrix(one_row, ("at", "nox"))


# Finite cells whose squared deviations overflow float64.  The suite turns
# warnings into errors, so these also check that no RuntimeWarning is
# emitted on the way to the error.
_OVERFLOWING = [1.5e308, -1.5e308, 1.0, 2.0]


def test_correlation_matrix_names_a_variable_whose_variance_overflows():
    ds = _ds_with([1.0, 2.0, 4.0, 3.0], at=_OVERFLOWING)
    with pytest.raises(DegenerateDataError,
                       match="variable 'at': its variance overflows float64"):
        correlation_matrix(ds, ("ap", "at", "nox"))


def test_summarize_names_a_variable_whose_variance_overflows():
    ds = _ds_with([1.0, 2.0, 4.0, 3.0], at=_OVERFLOWING)
    with pytest.raises(DegenerateDataError,
                       match="variable 'at': its variance overflows float64"):
        summarize(ds, variables=["ap", "at"])


def test_flag_high_nox_strictly_above_quantile():
    ds = _ds_with([10.0, 20.0, 30.0, 40.0, 50.0])
    # 0.8 quantile of 1..5 grid is 42; only 50 exceeds it
    assert list(flag_high_nox(ds, 0.8)) == [False, False, False, False, True]
    assert list(flag_high_nox(ds, 0.5)) == [False, False, False, True, True]


def test_flag_high_nox_closed_endpoints():
    ds = _ds_with([10.0, 10.0, 20.0, 30.0])
    # quantile 0: everything strictly above the minimum
    assert list(flag_high_nox(ds, 0.0)) == [False, False, True, True]
    # quantile 1: nothing is above the maximum
    assert not flag_high_nox(ds, 1.0).any()


def test_flag_high_nox_default_rate(iid_ds):
    flagged = flag_high_nox(iid_ds)
    rate = flagged.mean()
    assert 0.15 < rate <= 0.20  # strict inequality keeps the rate at or below 20%


def test_flag_high_nox_rejects_bad_quantile(tiny_ds):
    for q in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            flag_high_nox(tiny_ds, q)
