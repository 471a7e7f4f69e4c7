import numpy as np
import pytest

from pemskit import knn, make_dataset
from pemskit.ingest import Dataset


def cpu_dispatch() -> list[str]:
    """The CPU features numpy picks its SIMD loops from at run time, of
    those this machine has (disabling one it lacks changes nothing)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath
    have = getattr(_multiarray_umath, "__cpu_features__", {})
    return [name for name in getattr(_multiarray_umath, "__cpu_dispatch__", [])
            if have.get(name)]


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Whether a and b hold the same years, column names, year tags and
    column bytes (dtypes included)."""
    def same(u, v):
        return u.dtype == v.dtype and u.shape == v.shape \
            and u.tobytes() == v.tobytes()

    return (a.years == b.years and list(a.columns) == list(b.columns)
            and same(a.year, b.year)
            and all(same(a.columns[k], b.columns[k]) for k in a.columns))


# one line per acceptance criterion, printed after the run so the
# verdicts are visible even with pytest's output capture on
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def turbine_ds() -> Dataset:
    """Five synthetic years with mild drift; structure-rich fixture."""
    return make_dataset(rows_per_year=300, seed=11, drift=0.3)


@pytest.fixture(scope="session")
def iid_ds() -> Dataset:
    """Five synthetic years, identically distributed (drift 0)."""
    return make_dataset(rows_per_year=300, seed=5, drift=0.0)


@pytest.fixture()
def tiny_ds() -> Dataset:
    """Small two-year dataset with handmade columns."""
    rng = np.random.default_rng(3)
    n = 80
    cols = {
        "at": rng.normal(17, 7, n),
        "ap": rng.normal(1013, 6, n),
        "ah": rng.normal(77, 10, n),
        "afdp": rng.normal(4, 0.5, n),
        "tit": rng.normal(1086, 15, n),
        "tat": rng.normal(546, 6, n),
        "tep": rng.normal(25, 4, n),
        "tey": rng.normal(134, 14, n),
        "cdp": rng.normal(12, 1, n),
        "nox": rng.normal(65, 10, n),
    }
    year = np.repeat(np.array([2011, 2012], dtype=np.int64), n // 2)
    return Dataset(columns=cols, year=year, years=(2011, 2012))


@pytest.fixture()
def knn_work(monkeypatch) -> dict[str, int]:
    """Counts, while a test runs, the calls to knn.fit_knn and the query
    rows that knn._scan is given."""
    work = {"fits": 0, "queries": 0}
    fit_knn, scan = knn.fit_knn, knn._scan

    def counted_fit(*args, **kwargs):
        work["fits"] += 1
        return fit_knn(*args, **kwargs)

    def counted_scan(train_z, q_z, own, k, train_aug):
        work["queries"] += q_z.shape[0]
        return scan(train_z, q_z, own, k, train_aug)

    monkeypatch.setattr(knn, "fit_knn", counted_fit)
    monkeypatch.setattr(knn, "_scan", counted_scan)
    return work
