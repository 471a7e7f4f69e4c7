import math
import os
import resource
import subprocess
import sys
from xml.dom import minidom

import numpy as np
import pytest

from pemskit.ingest import Dataset, write_year_files
from pemskit.svgplot import bars, line, scatter
from pemskit.synthetic import make_dataset


def _parse(svg: str):
    return minidom.parseString(svg)


def test_scatter_is_well_formed_and_deterministic():
    series = [("high", [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
              ("low", [1.5, 2.5], [4.5, 5.0])]
    a = scatter(series, "title", "x", "y")
    b = scatter(series, "title", "x", "y")
    assert a == b
    doc = _parse(a)
    assert doc.documentElement.tagName == "svg"
    assert a.count("<circle") == 5
    assert "high" in a and "low" in a  # legend entries
    assert a.endswith("\n")


def test_line_marks_every_point():
    svg = line([("rase", [1.0, 2.0, 3.0], [0.5, 0.4, 0.45])], "curve", "k", "rase")
    _parse(svg)
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 3


def test_bars_draws_one_rect_per_bin():
    svg = bars([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [5, 0, 2], "hist", "value")
    _parse(svg)
    assert svg.count('class="bar"') == 3 or svg.count("<rect") >= 3


def test_labels_are_escaped():
    svg = scatter([("a<b", [1.0], [1.0])], 'x & "y" <z>', "x<", "y>")
    _parse(svg)  # would blow up on raw < & > in text nodes
    assert "a<b" not in svg.split("</style>")[-1] or "&lt;" in svg


def test_handles_single_point_and_flat_ranges():
    svg = scatter([("only", [2.0], [3.0])], "t", "x", "y")
    _parse(svg)
    flat = line([("flat", [1.0, 2.0], [5.0, 5.0])], "t", "x", "y")
    _parse(flat)


def _run_bounded(*argv: str) -> subprocess.CompletedProcess:
    """Run Python on ``argv`` with 1 GB of address space and 60 s, so a
    tick loop that cannot end fails the test instead of hanging it."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def test_a_range_of_a_few_ulps_ends_its_ticks():
    proc = _run_bounded("-c", (
        "import math; from pemskit.svgplot import line; "
        "print(line([('y', [0.0, 1.0], [1.0, math.nextafter(1.0, 2.0)])], "
        "'t', 'x', 'y'))"))
    assert proc.returncode == 0, proc.stderr
    _parse(proc.stdout)


def test_summary_plots_a_column_a_few_ulps_wide(tmp_path):
    ds = make_dataset(years=(2011,), rows_per_year=40, seed=3)
    ap = np.full(ds.n_records, 1013.0)
    ap[::2] = math.nextafter(1013.0, 2000.0)
    write_year_files(Dataset({**ds.columns, "ap": ap}, ds.year.copy(),
                             ds.years), tmp_path)
    proc = _run_bounded("-m", "pemskit.cli", "summary", "--plots", "--years",
                        "2011", "--data-dir", str(tmp_path), "--out-dir",
                        str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    _parse((tmp_path / "out" / "hist_ap.svg").read_text())


@pytest.mark.parametrize("axis, draw", [
    ("x", lambda wide, ok: scatter([("a", wide, ok)], "t", "x", "y")),
    ("y", lambda wide, ok: line([("a", ok, wide)], "t", "x", "y")),
    ("x", lambda wide, ok: bars(wide[:2], wide[:2], ok[:2], "t", "x")),
], ids=["scatter", "line", "bars"])
def test_an_axis_whose_range_overflows_is_named(axis, draw):
    with pytest.raises(ValueError,
                       match=rf"the {axis} axis cannot span \[-1.5e\+308, "
                             r"1.5e\+308\]: its padded range overflows"):
        draw([1.5e308, -1.5e308, 1.0], [1.0, 2.0, 3.0])
