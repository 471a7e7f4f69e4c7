"""Peak traced memory of the real-scale analytics, in units of one
records-by-predictors float64 matrix (the copy Dataset.matrix makes).

Each kernel scales that one copy in place, per-record tables leave numpy
a block of rows at a time, and chart text is joined once and written in
slices.  tracemalloc counts numpy's buffers and Python's objects alike,
so these peaks repeat exactly from run to run.
"""

import tracemalloc

import numpy as np
import pytest

from pemskit import cli, drift, knn, stats, varclus
from pemskit.ingest import PREDICTORS, TARGET, Dataset

YEARS = (2011, 2012, 2013, 2014, 2015)


def _wide_ds(rows_per_year: int) -> Dataset:
    """Five years of numpy draws: a shared load factor over every column."""
    rng = np.random.default_rng(7)
    n = len(YEARS) * rows_per_year
    load = rng.normal(size=n)
    cols = {name: 10.0 + (i + 1) * (load * (i % 3) + rng.normal(size=n))
            for i, name in enumerate(PREDICTORS + (TARGET,))}
    return Dataset(cols, np.repeat(np.array(YEARS), rows_per_year), YEARS)


@pytest.fixture(scope="module")
def big_ds() -> Dataset:
    return _wide_ds(4000)


def _peak(ds: Dataset, run) -> float:
    """run()'s traced peak over the bytes of one n x 9 float64 matrix."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (ds.n_records * len(PREDICTORS) * 8)


def _command(ds: Dataset, name: str, out_dir, plots: bool):
    """A call of the command that writes its outputs as main does."""
    config = cli.RunConfig(command=name, out_dir=str(out_dir), plots=plots)

    def run():
        for output, content in cli._COMMANDS[name][0](ds, config):
            cli._write(config, output, content)
            del content
    return run


# Each bound sits between the in-place peaks at 20,000 rows (2.00-2.11
# matrices; project 1.22, its copy and the scores) and the 3.05 that a
# kernel reads when it makes a new matrix for each step (the copy, the
# centered copy, a scaled or squared one).
@pytest.mark.parametrize("kernel, bound", [
    (lambda ds: stats.correlation_matrix(ds, PREDICTORS), 2.25),
    (lambda ds: varclus._standardized(ds, PREDICTORS), 2.25),
    (lambda ds: varclus.cluster_variables(ds, PREDICTORS), 2.25),
    (lambda ds: drift.project(drift.fit_pca(ds.for_year(2011)), ds), 1.35),
], ids=["correlation_matrix", "standardized", "cluster_variables", "project"])
def test_kernel_scales_its_one_copy_in_place(big_ds, kernel, bound):
    peak = _peak(big_ds, lambda: kernel(big_ds))
    assert peak <= bound, f"peak {peak:.2f} matrices"


def test_fit_knn_scales_its_one_copy_in_place(big_ds):
    # only the Training rows are copied (0.7); std's centered temporary
    # (0.7) and the Training row numbers (0.08) meet them, 1.52 in all.
    # Taking the rows from a copy of the full matrix reads 1.78, and
    # scaling a new matrix per step 2.23
    assignment = knn.split(big_ds, seed=1)
    peak = _peak(big_ds, lambda: knn.fit_knn(big_ds, assignment, k=3))
    assert peak <= 1.6, f"peak {peak:.2f} matrices"


# At 20,000 rows `drift` reads 1.23 matrices and `correlate --plots`
# 2.45; holding the 20k rows as Python lists reads 3.46, and copying each
# chart for its last newline and encoding it whole 3.49.
@pytest.mark.parametrize("name, plots, bound", [
    ("drift", False, 1.35),
    ("correlate", True, 3.0),
])
def test_command_and_its_writes_stay_near_one_copy(big_ds, tmp_path, name,
                                                   plots, bound):
    # a first run fills caches and makes the lazily built objects of the
    # code it runs: one-time allocations that do not grow with the rows
    _command(_wide_ds(60), name, tmp_path / "warm", plots)()
    peak = _peak(big_ds, _command(big_ds, name, tmp_path / "out", plots))
    assert peak <= bound, f"peak {peak:.2f} matrices"
