import math
import os
import resource
import subprocess
import sys
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pemskit import svgplot
from pemskit.errors import DegenerateDataError
from pemskit.ingest import Dataset, write_year_files
from pemskit.svgplot import _fmt, _fmt_all, bars, line, scatter
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


@pytest.mark.parametrize("values", [[0.0, 5e-324], [0.0, 2e-323],
                                    [5e-324, 5e-324]],
                         ids=["one-subnormal", "four-subnormals",
                              "one-subnormal-twice"])
def test_an_axis_spanning_only_subnormals_plots(values):
    _parse(scatter([("a", values, [1.0, 2.0])], "t", "x", "y"))
    _parse(bars(values[:1], values[1:], [3.0], "t", "x"))


@pytest.mark.parametrize("cells", [(0.0, 5e-324), (5e-324, 5e-324)],
                         ids=["alternating", "constant"])
def test_summary_plots_a_column_of_subnormals(tmp_path, cells):
    ds = make_dataset(rows_per_year=20, seed=3)
    ah = np.resize(np.array(cells), ds.n_records)
    write_year_files(Dataset({**ds.columns, "ah": ah}, ds.year.copy(),
                             ds.years), tmp_path)
    proc = _run_bounded("-m", "pemskit.cli", "summary", "--plots",
                        "--data-dir", str(tmp_path), "--out-dir",
                        str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    _parse((tmp_path / "out" / "hist_ah.svg").read_text())


@pytest.mark.parametrize("axis, draw", [
    ("x", lambda wide, ok: scatter([("a", wide, ok)], "t", "x", "y")),
    ("y", lambda wide, ok: line([("a", ok, wide)], "t", "x", "y")),
    ("x", lambda wide, ok: bars(wide[:2], wide[:2], ok[:2], "t", "x")),
], ids=["scatter", "line", "bars"])
def test_an_axis_whose_range_overflows_is_named(axis, draw):
    with pytest.raises(DegenerateDataError,
                       match=rf"the {axis} axis '{axis}' cannot span "
                             r"\[-1.5e\+308, 1.5e\+308\]: its padded range "
                             r"overflows"):
        draw([1.5e308, -1.5e308, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("where", [0, 2], ids=["first", "middle"])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("chart", ["scatter", "line", "bars"])
def test_a_nan_on_an_axis_is_named(chart, axis, where):
    values = [1.0, 2.0, 3.0, 4.0]
    holed = values.copy()
    holed[where] = math.nan
    xs, ys = (holed, values) if axis == "x" else (values, holed)
    with pytest.raises(ValueError, match=rf"^the {axis} axis holds NaN$"):
        if chart == "bars":
            bars(xs, [x + 1.0 for x in xs], ys, "t", "x")
        else:
            {"scatter": scatter, "line": line}[chart](
                [("a", [0.5], [0.5]), ("b", xs, ys)], "t", "x", "y")


@pytest.mark.parametrize("series", [[], [("a", [], [])], [("a", [1.0], [])]],
                         ids=["no-series", "empty-series", "no-y"])
@pytest.mark.parametrize("chart", [scatter, line])
def test_a_chart_without_points_says_so(chart, series):
    with pytest.raises(ValueError, match="^no data points to plot$"):
        chart(series, "t", "x", "y")


# ------------------------------------------- bulk 2-decimal formatting

def _reference_fmt(v: float) -> str:
    """The one-value rule the bulk formatter replaced."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


ADVERSARIAL = [
    0.0, -0.0, -0.004, 0.004, 0.005, -0.005, 0.995, -0.995, 0.9949999,
    1e6, -1e6, 1e6 + 0.005, 10.0, -10.0, 100.0, 100.5, -100.05, 0.1, 0.01,
    1.10, 1.01, 2.675, 1.005, 1.015, 0.125, 0.135, 1e-300, 5e-324, 1.5e300,
    -1.5e300, 99999.995, 9.995, 0.045, -0.045, 720.0, 64.0, 432.0,
    math.inf, -math.inf, math.nan,
    *[k / 1000 for k in range(-2005, 2006, 10)],          # x.xx5 ties
]


def test_bulk_formatter_matches_the_one_value_rule():
    assert _fmt_all(ADVERSARIAL) == [_reference_fmt(v) for v in ADVERSARIAL]
    assert [_fmt(v) for v in ADVERSARIAL] == \
        [_reference_fmt(v) for v in ADVERSARIAL]
    assert _fmt_all([]) == []


@pytest.mark.parametrize("lo, hi", [(-0.004, 123456.789), (0.5, -98765.4321),
                                    (-1e-9, 1e12), (7.0, 7.0)])
def test_bulk_formatter_over_values_of_mixed_widths(lo, hi):
    values = np.linspace(lo, hi, 3001).tolist()
    assert _fmt_all(values) == [_reference_fmt(v) for v in values]


@given(st.lists(st.floats(), max_size=50))
def test_bulk_formatter_matches_the_one_value_rule_on_any_floats(values):
    assert _fmt_all(values) == [_reference_fmt(v) for v in values]


def _reference_chart(series, title, x_label, y_label, polyline):
    """scatter (``polyline`` False) or line as drawn point by point before
    the bulk path."""
    xs = [float(v) for _, sx, _ in series for v in sx]
    ys = [float(v) for _, _, sy in series for v in sy]
    if not xs:
        raise ValueError("no data points to plot")
    frame = svgplot._Frame((min(xs), max(xs)), (min(ys), max(ys)),
                           title, x_label, y_label)
    px = [[_reference_fmt(frame.px(float(x))) for x in sx] for _, sx, _ in series]
    py = [[_reference_fmt(frame.py(float(y))) for y in sy] for _, _, sy in series]
    parts = frame.header()
    for i in range(len(series)):
        color = svgplot.PALETTE[i % len(svgplot.PALETTE)]
        points = list(zip(px[i], py[i]))
        if polyline:
            text = " ".join(f"{x},{y}" for x, y in points)
            parts.append(f'<polyline points="{text}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        style = ' r="3"' if polyline else ' r="2"'
        style += f' fill="{color}"' + ("" if polyline else ' fill-opacity="0.55"')
        parts += [f'<circle cx="{x}" cy="{y}"{style}/>' for x, y in points]
    parts += frame.legend([label for label, _, _ in series])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_scatter_with_an_empty_second_series_matches_the_per_point_path():
    series = [("normal", [1.0, 2.5, -3.0], [0.5, 0.25, 4.0]),
              ("high NOx", [], [])]
    assert scatter(series, "t", "x", "y") == \
        _reference_chart(series, "t", "x", "y", polyline=False)


def test_charts_across_chunk_boundaries_match_the_per_point_path():
    rng = np.random.default_rng(5)
    n = 2 * svgplot._CHUNK + 7
    series = [("a", (rng.normal(size=n) * 40).tolist(),
               rng.normal(size=n).tolist()),
              ("b", [], []),
              ("c", list(range(svgplot._CHUNK)),
               (rng.normal(size=svgplot._CHUNK) - 9).tolist()),
              ("d", [0.0, -0.0, 1e-9], [np.float32(0.1), 3, -2.0]),
              # the axes span the x and y that no point is drawn with
              ("e", [-0.0, 0.0, 2500.0], [0.0, -0.0]),
              ("f", [1.0], [0.0, 40.0])]
    arrays = [(label, np.asarray(sx, dtype=np.float64),
               np.asarray(sy, dtype=np.float64)) for label, sx, sy in series]
    for chart, polyline in ((scatter, False), (line, True)):
        svg = chart(series, "t", "x", "y")
        assert svg == _reference_chart(series, "t", "x", "y", polyline)
        assert chart(arrays, "t", "x", "y") == svg


_COORD = st.integers(-10**8, 10**8).map(lambda i: i / 128)


@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=20),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), max_size=4))
def test_axis_ends_match_the_per_point_path_on_any_floats(points, zeros):
    """np.min and np.max may pick -0.0 where min and max pick 0.0, or the
    reverse; no byte may depend on which."""
    series = [("a", [x for x, _ in points], [y for _, y in points]),
              ("b", zeros, zeros[::-1])]
    for chart, polyline in ((scatter, False), (line, True)):
        assert chart(series, "t", "x", "y") == \
            _reference_chart(series, "t", "x", "y", polyline)
