"""Minimal SVG chart emission: scatter, line, and bar charts.

No plotting dependency; output is a deterministic function of the data,
so rendered files can be byte-compared in reproducibility tests.

Every coordinate is written with two decimals, then trimmed: a trailing
``.00`` is dropped, else a trailing ``0``, and ``-0`` becomes ``0``
(so 1.50 -> "1.5", 2.00 -> "2", -0.004 -> "0").  ``_fmt_all`` applies
that rule to a whole run of values at once: one ``%.2f`` format over the
run, then three ``str.replace`` passes.  A series' x and y are float64
arrays (any number sequence is converted once).  Each axis spans every
value given for it.  A NaN raises a ValueError naming the axis, and a
span whose padded range overflows float64 a DegenerateDataError naming
the axis and its label.  One chart body serves scatter and line: it
formats each series' points once, in chunks of ``_CHUNK`` points, so a
37k-point scatter never holds one string per point.
"""

from __future__ import annotations

import html
import math
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
WIDTH = 720
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 48


#: Points formatted per ``%`` operation in scatter and line charts.
_CHUNK = 1024


def _fmt_all(values: Sequence[float]) -> list[str]:
    """Each value with two decimals, less a trailing ``.00`` or ``0``, and
    ``-0`` as ``0``."""
    text = ("%.2f\n" * len(values)) % tuple(values)
    # "x.y0" -> "x.y" and "x.00" -> "x.0" -> "x"; only a number that is
    # exactly "-0" holds the substring "-0\n"
    text = text.replace("0\n", "\n").replace(".0\n", "\n").replace("-0\n", "0\n")
    return text.split("\n")[:-1]


def _fmt(v: float) -> str:
    return _fmt_all((v,))[0]


def _tick_label(v: float) -> str:
    return f"{v:g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    raw = (hi - lo) / target
    if not raw > 0.0:   # hi <= lo, or a subnormal span whose step underflows
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    # mag underflows to 0 when raw is the smallest subnormal
    step = next((m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw), raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:   # step is below half an ulp of t: t cannot move
            break
        t += step
    return ticks


def _span(axis: str, arrays: Sequence[np.ndarray]) -> tuple[float, float]:
    """The smallest and the largest value in ``arrays``."""
    ends = [end(a) for a in arrays if a.size for end in (np.min, np.max)]
    if not ends:
        raise ValueError("no data points to plot")
    if np.isnan(ends).any():
        raise ValueError(f"the {axis} axis holds NaN")
    return float(min(ends)), float(max(ends))


class _Frame:
    """Data-to-pixel mapping plus axis/legend boilerplate."""

    def __init__(self, x_span: tuple[float, float],
                 y_span: tuple[float, float],
                 title: str, x_label: str, y_label: str):
        self.x_lo, self.x_hi = self._padded("x", x_label, *x_span)
        self.y_lo, self.y_hi = self._padded("y", y_label, *y_span)
        self.title, self.x_label, self.y_label = title, x_label, y_label

    @staticmethod
    def _padded(axis: str, label: str, lo: float,
                hi: float) -> tuple[float, float]:
        if hi == lo:
            pad = abs(lo) * 0.05 or 1.0     # also when 5 % of lo underflows
        else:
            pad = (hi - lo) * 0.05
        if not math.isfinite((hi + pad) - (lo - pad)):
            raise DegenerateDataError(
                f"the {axis} axis '{label}' cannot span [{lo!r}, {hi!r}]: "
                "its padded range overflows float64")
        return lo - pad, hi + pad

    def px(self, x: float) -> float:
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * w

    def py(self, y: float) -> float:
        h = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y_lo) / (self.y_hi - self.y_lo) * h

    def header(self) -> list[str]:
        e = html.escape
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{e(self.title)}</text>',
        ]
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                     'stroke="black"/>')
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                     'stroke="black"/>')
        for t in _nice_ticks(self.x_lo, self.x_hi):
            px = _fmt(self.px(t))
            parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 4}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{_tick_label(t)}</text>')
        for t in _nice_ticks(self.y_lo, self.y_hi):
            py = _fmt(self.py(t))
            parts.append(f'<line x1="{x0 - 4}" y1="{py}" x2="{x0}" y2="{py}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{x0 - 7}" y="{py}" text-anchor="end" '
                         f'dominant-baseline="middle" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{_tick_label(t)}</text>')
        parts.append(f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{e(self.x_label)}</text>')
        parts.append(f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {(y0 + y1) // 2})">'
                     f'{e(self.y_label)}</text>')
        return parts

    def legend(self, labels: Sequence[str]) -> list[str]:
        if len(labels) < 2:
            return []
        parts = []
        for i, label in enumerate(labels):
            color = PALETTE[i % len(PALETTE)]
            y = MARGIN_T + 14 + 16 * i
            x = WIDTH - MARGIN_R - 120
            parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{x + 14}" y="{y}" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{html.escape(label)}</text>')
        return parts


#: (label, x, y): float64 arrays, or number sequences converted once; an
#: axis spans every value given for it and rejects NaN.
Series = tuple[str, np.ndarray | Sequence[float], np.ndarray | Sequence[float]]


def _chart(series: Sequence[Series], title: str, x_label: str,
           y_label: str, marker: str, polyline: bool) -> str:
    """A circle with the attributes ``marker`` (``{}`` is the color) per
    point, after a polyline through each series' points if ``polyline``."""
    xs = [np.asarray(sx, dtype=np.float64) for _, sx, _ in series]
    ys = [np.asarray(sy, dtype=np.float64) for _, _, sy in series]
    frame = _Frame(_span("x", xs), _span("y", ys), title, x_label, y_label)
    parts = frame.header()
    for i, (sx, sy) in enumerate(zip(xs, ys)):
        color = PALETTE[i % len(PALETTE)]
        circle = f'<circle cx="%s" cy="%s" {marker.format(color)}/>'
        n = min(len(sx), len(sy))
        xy = np.column_stack((frame.px(sx[:n]), frame.py(sy[:n]))).ravel()
        path, circles = [], []
        for start in range(0, 2 * n, 2 * _CHUNK):
            text = tuple(_fmt_all(xy[start:start + 2 * _CHUNK].tolist()))
            points = len(text) // 2
            if polyline:
                path.append(" ".join(["%s,%s"] * points) % text)
            circles.append("\n".join([circle] * points) % text)
        if polyline:
            parts.append(f'<polyline points="{" ".join(path)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.extend(circles)
    parts.extend(frame.legend([label for label, _, _ in series]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter(series: Sequence[Series], title: str, x_label: str,
            y_label: str) -> str:
    """Scatter chart; each series gets a palette color and legend row."""
    return _chart(series, title, x_label, y_label,
                  'r="2" fill="{}" fill-opacity="0.55"', polyline=False)


def line(series: Sequence[Series], title: str, x_label: str,
         y_label: str) -> str:
    """Line chart with point markers."""
    return _chart(series, title, x_label, y_label, 'r="3" fill="{}"',
                  polyline=True)


def bars(edges_lo: Sequence[float], edges_hi: Sequence[float],
         counts: Sequence[float], title: str, x_label: str,
         y_label: str = "count") -> str:
    """Histogram-style bars over [lo, hi) bins."""
    lo, hi, heights = (np.asarray(v, dtype=np.float64)
                       for v in (edges_lo, edges_hi, counts))
    frame = _Frame(_span("x", (lo, hi)), _span("y", (np.zeros(1), heights)),
                   title, x_label, y_label)
    parts = frame.header()
    base = frame.py(0.0)
    for left, right, c in zip(lo.tolist(), hi.tolist(), heights.tolist()):
        x = frame.px(left)
        w = max(frame.px(right) - x, 0.5)
        top = frame.py(c)
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(top)}" '
                     f'width="{_fmt(w)}" height="{_fmt(max(base - top, 0.0))}" '
                     f'fill="{PALETTE[0]}" stroke="white" stroke-width="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
