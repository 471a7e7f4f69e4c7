"""Seeded synthetic turbine telemetry for tests and demos.

Mimics the real data's structure without copying it: a latent load
factor drives the process block (tit, tat, tey, tep, cdp, afdp),
ambient temperature and humidity share a weather factor, pressure is
independent, and NOx responds to ambient temperature, load, and inlet
temperature.  A drift knob shifts ambient conditions and loosens the
cdp~tep relation year over year, so process-change detectors have
something real to find.

All draws come from per-year SplitMix64 streams
(derive_seed(seed, year)), so output is bit-reproducible everywhere.
The co draw is consumed whether or not co is kept, so include_co does
not change the other columns.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ConfigError
from .ingest import Dataset
from .rng import SplitMix64, derive_seed

DEFAULT_YEARS = (2011, 2012, 2013, 2014, 2015)


def _gauss(rng: SplitMix64) -> float:
    u1 = 1.0 - rng.random()     # (0, 1]: keeps log() finite
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def make_dataset(years=DEFAULT_YEARS, rows_per_year: int = 400,
                 seed: int = 0, include_co: bool = False,
                 drift: float = 0.0) -> Dataset:
    """Generate a multi-year dataset with turbine-like structure.

    drift > 0 warms later years and adds growing noise to the cdp~tep
    relation; drift = 0 makes years identically distributed.
    """
    years = tuple(int(y) for y in years)
    if not years or len(set(years)) != len(years):
        raise ConfigError(f"years must be non-empty and unique, got {years}")
    if rows_per_year < 1:
        raise ConfigError(f"rows_per_year must be >= 1, got {rows_per_year}")
    if drift < 0.0 or not math.isfinite(drift):
        raise ConfigError(f"drift must be >= 0, got {drift}")

    names = ["at", "ap", "ah", "afdp", "tit", "tat", "tep", "tey", "cdp",
             "nox", "co"]
    # 8 bytes a value, where a list of floats takes 32: ~10 MB less at 5 x 7,400
    data = {name: array("d") for name in names}
    year_col = array("q")

    for yi, year in enumerate(sorted(years)):
        rng = SplitMix64(derive_seed(seed, year))
        cdp_noise_sd = 0.05 + 0.5 * drift * yi
        for _ in range(rows_per_year):
            g = [_gauss(rng) for _ in range(12)]
            at = 17.0 + 7.0 * g[0] + 0.8 * drift * yi
            ah = min(100.0, max(25.0, 77.0 - 3.4 * g[0] + 9.0 * g[1]))
            ap = 1013.0 + 6.0 * g[2]
            load = g[3]
            tit = min(1100.0, 1086.0 + 16.0 * load + 2.0 * g[4])
            tat = 546.0 - 5.5 * load + 1.6 * g[5]
            tey = max(25.0, 134.0 + 15.0 * load - 0.4 * (at - 17.0) + 1.2 * g[6])
            tep = max(17.0, 25.5 + 4.3 * load + 0.3 * g[7])
            cdp = max(6.0, 3.1 + 0.355 * tep + cdp_noise_sd * g[8])
            afdp = max(2.0, 3.9 + 0.5 * load + 0.3 * g[9])
            nox = max(5.0, 66.0 - 0.9 * (at - 17.0) - 3.2 * load
                      + 0.15 * (tit - 1086.0) + 2.2 * g[10])
            co = max(0.05, 2.4 - 1.3 * load + 0.6 * g[11])
            for name, v in (("at", at), ("ap", ap), ("ah", ah), ("afdp", afdp),
                            ("tit", tit), ("tat", tat), ("tep", tep),
                            ("tey", tey), ("cdp", cdp), ("nox", nox),
                            ("co", co)):
                data[name].append(v)
            year_col.append(year)

    if not include_co:
        del data["co"]
    columns = {name: np.asarray(vals) for name, vals in data.items()}
    return Dataset(columns=columns, year=np.asarray(year_col, dtype=np.int64),
                   years=tuple(sorted(years)))
