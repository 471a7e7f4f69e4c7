import math
import re

import numpy as np
import pytest
from conftest import same_dataset

from pemskit.errors import ConfigError
from pemskit.ingest import PREDICTORS
from pemskit.synthetic import DEFAULT_YEARS, make_dataset


def test_shape_and_defaults():
    ds = make_dataset(rows_per_year=50, seed=1)
    assert ds.years == DEFAULT_YEARS
    assert ds.n_records == 50 * len(DEFAULT_YEARS)
    assert set(PREDICTORS) <= set(ds.columns)
    assert "nox" in ds.columns
    assert not ds.has_co
    assert make_dataset(rows_per_year=50, seed=1, include_co=True).has_co


def test_regeneration_is_bit_identical():
    a = make_dataset(rows_per_year=80, seed=7, drift=0.2)
    b = make_dataset(rows_per_year=80, seed=7, drift=0.2)
    assert same_dataset(a, b)
    c = make_dataset(rows_per_year=80, seed=8, drift=0.2)
    assert not same_dataset(a, c)


def test_values_respect_physical_rules():
    for ds in (make_dataset(rows_per_year=400, seed=0, drift=0.3),
               make_dataset(rows_per_year=200, seed=9, include_co=True)):
        for name in ds.columns:
            assert np.isfinite(ds.column(name)).all(), name
        ah = ds.column("ah")
        assert ((ah >= 0.0) & (ah <= 100.0)).all()
        for name in ("ap", "cdp", "tey"):
            assert (ds.column(name) > 0.0).all(), name
        for name in ("nox", "co") if ds.has_co else ("nox",):
            assert (ds.column(name) >= 0.0).all(), name


def test_co_draw_does_not_disturb_other_columns():
    # the CO stream position is always consumed, so flipping include_co
    # must leave every other column untouched
    plain = make_dataset(rows_per_year=60, seed=4)
    with_co = make_dataset(rows_per_year=60, seed=4, include_co=True)
    for name in PREDICTORS + ("nox",):
        assert np.array_equal(plain.column(name), with_co.column(name))


def test_years_are_independent_streams():
    whole = make_dataset(years=(2011, 2012), rows_per_year=100, seed=3)
    alone = make_dataset(years=(2012,), rows_per_year=100, seed=3)
    # a year's values do not depend on which other years were generated
    assert np.array_equal(whole.for_year(2012).column("nox"),
                          alone.column("nox"))


@pytest.mark.parametrize("kwargs, message", [
    (dict(years=()), "years must be non-empty and unique"),
    (dict(years=(2011, 2012, 2011)), "years must be non-empty and unique"),
    (dict(rows_per_year=0), "rows_per_year must be >= 1, got 0"),
    (dict(drift=-0.1), "drift must be >= 0, got -0.1"),
    (dict(drift=math.nan), "drift must be >= 0, got nan"),
    (dict(drift=math.inf), "drift must be >= 0, got inf"),
], ids=["no-years", "repeated-year", "no-rows", "negative-drift",
        "nan-drift", "infinite-drift"])
def test_bad_arguments_are_refused(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        make_dataset(**{"rows_per_year": 5, **kwargs})


def test_drift_moves_later_years():
    still = make_dataset(rows_per_year=300, seed=6, drift=0.0)
    moved = make_dataset(rows_per_year=300, seed=6, drift=0.4)
    first_still = still.for_year(2011).column("at").mean()
    first_moved = moved.for_year(2011).column("at").mean()
    assert first_still == first_moved  # drift indexes from the first year
    last_still = still.for_year(2015).column("at").mean()
    last_moved = moved.for_year(2015).column("at").mean()
    assert last_moved - last_still > 0.5
