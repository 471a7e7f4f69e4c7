import math

import numpy as np
import pytest

from pemskit.errors import DegenerateDataError
from pemskit.ingest import PREDICTORS, Dataset
from pemskit.stats import (
    DEFAULT_BINS,
    CorrelationMatrix,
    correlation_matrix,
    eigenpairs,
    flag_high_nox,
    gram,
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
    (s,) = summarize(ds, variables=["nox"])
    assert s.name == "nox"
    assert s.count == 8
    assert s.mean == 5.0
    assert s.std == pytest.approx(math.sqrt(32.0 / 7.0))
    assert (s.min, s.max) == (2.0, 9.0)
    assert (s.q1, s.median, s.q3) == (4.0, 4.5, 5.5)
    # DEFAULT_BINS = 30 equal-width bins over [2, 9], each 7/30 wide:
    # 4 falls in bin 8 (from 2 + 56/30), 5 in bin 12, 7 in bin 21
    assert len(s.histogram) == DEFAULT_BINS == 30
    assert {i: c for i, (_, _, c) in enumerate(s.histogram) if c} == {
        0: 1, 8: 3, 12: 2, 21: 1, 29: 1}
    assert s.histogram[0][0] == 2.0 and s.histogram[-1][1] == 9.0


def test_histogram_counts_always_sum_to_n(turbine_ds):
    for s in summarize(turbine_ds, [*PREDICTORS, "nox"]):
        assert len(s.histogram) == DEFAULT_BINS
        assert sum(c for _, _, c in s.histogram) == turbine_ds.n_records


def test_constant_column_single_bin():
    ds = _ds_with([3.0, 3.0, 3.0])
    (s,) = summarize(ds, variables=["nox"])
    assert s.histogram == ((3.0, 3.0, 3),)
    assert s.std == 0.0


def test_summarize_guards():
    empty = Dataset({n: np.empty(0) for n in PREDICTORS + ("nox",)},
                    np.empty(0, dtype=np.int64), ())
    with pytest.raises(DegenerateDataError):
        summarize(empty, ["nox"])


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


# The inline forms that eigenpairs and gram replaced, kept as references:
# the new functions must give the same bytes.
def _drift_eigen_reference(corr):
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    for j in range(eigvecs.shape[1]):
        lead = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[lead, j] < 0.0:
            eigvecs[:, j] = -eigvecs[:, j]
    return eigvals, eigvecs


def _varclus_gram_reference(sub, divisor):
    corr = (sub.T @ sub) / divisor
    return (corr + corr.T) / 2.0


def _varclus_eigen_reference(corr):
    def fix_sign(vec):
        if vec[np.argmax(np.abs(vec))] < 0:
            return -vec
        return vec

    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    return eigvals, np.column_stack([fix_sign(eigvecs[:, j])
                                     for j in range(eigvecs.shape[1])])


def _standardized(x):
    centered = x - x.mean(axis=0)
    return centered / centered.std(axis=0, ddof=1)


def _kernel_cases():
    rng = np.random.default_rng(20)
    for n, p in ((50, 2), (200, 5), (1000, 9)):
        mixed = rng.normal(size=(n, p)) @ rng.normal(size=(p, p))
        yield f"random {n}x{p}", _standardized(mixed)
    twin = rng.normal(size=(40, 3))
    twin[:, 2] = twin[:, 0]         # two identical columns: a zero eigenvalue
    yield "singular", _standardized(twin)


@pytest.mark.parametrize("name, z", list(_kernel_cases()),
                         ids=[name for name, _ in _kernel_cases()])
def test_gram_and_eigenpairs_match_the_inline_forms(name, z):
    divisor = z.shape[0] - 1
    corr = gram(z, divisor)
    assert corr.tobytes() == _varclus_gram_reference(z, divisor).tobytes()
    plain = z.T @ z                 # correlation_matrix's inline form
    assert gram(z).tobytes() == ((plain + plain.T) / 2.0).tobytes()
    values, vectors = eigenpairs(corr)
    for reference in (_drift_eigen_reference, _varclus_eigen_reference):
        ref_values, ref_vectors = reference(corr)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()
    assert (np.diff(values) <= 0.0).all() and values[-1] >= 0.0
    lead = vectors[np.abs(vectors).argmax(axis=0), range(z.shape[1])]
    assert (lead > 0.0).all()


def test_eigenpairs_of_a_tie_in_magnitude():
    # both eigenvectors have entries of equal |value|: the first is signed
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    values, vectors = eigenpairs(corr)
    for reference in (_drift_eigen_reference, _varclus_eigen_reference):
        ref_values, ref_vectors = reference(corr)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()
    assert values == pytest.approx([1.5, 0.5])
    assert (vectors[0] > 0.0).all()


def test_flag_high_nox_strictly_above_quantile():
    ds = _ds_with([10.0, 20.0, 30.0, 40.0, 50.0])
    # 0.8 quantile of 1..5 grid is 42; only 50 exceeds it
    assert list(flag_high_nox(ds)) == [False, False, False, False, True]


def test_flag_high_nox_default_rate(iid_ds):
    flagged = flag_high_nox(iid_ds)
    rate = flagged.mean()
    assert 0.15 < rate <= 0.20  # strict inequality keeps the rate at or below 20%
