"""Minimal SVG chart emission: scatter, line, and bar charts.

No plotting dependency; output is a deterministic function of the data,
so rendered files can be byte-compared in reproducibility tests.

Every coordinate is written with two decimals, then trimmed: a trailing
``.00`` is dropped, else a trailing ``0``, and ``-0`` becomes ``0``
(so 1.50 -> "1.5", 2.00 -> "2", -0.004 -> "0").  ``_fmt_all`` applies
that rule to a whole run of values at once: one ``%.2f`` format over the
run, then three ``str.replace`` passes.  Scatter and line series map
whole arrays to pixels and format their points in chunks of
``_CHUNK`` points, so a 37k-point scatter never holds one string per
point.
"""

from __future__ import annotations

import html
import math
from typing import Sequence

import numpy as np

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
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:   # step is below half an ulp of t: t cannot move
            break
        t += step
    return ticks


class _Frame:
    """Data-to-pixel mapping plus axis/legend boilerplate."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 title: str, x_label: str, y_label: str):
        self.x_lo, self.x_hi = self._padded("x", min(xs), max(xs))
        self.y_lo, self.y_hi = self._padded("y", min(ys), max(ys))
        self.title, self.x_label, self.y_label = title, x_label, y_label

    @staticmethod
    def _padded(axis: str, lo: float, hi: float) -> tuple[float, float]:
        if hi == lo:
            pad = 1.0 if lo == 0.0 else abs(lo) * 0.05
        else:
            pad = (hi - lo) * 0.05
        if not math.isfinite((hi + pad) - (lo - pad)):
            raise ValueError(f"the {axis} axis cannot span [{lo!r}, {hi!r}]: "
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


Series = tuple[str, Sequence[float], Sequence[float]]


def _collect(series: Sequence[Series]) -> tuple[list[float], list[float]]:
    xs = [float(v) for _, sx, _ in series for v in sx]
    ys = [float(v) for _, _, sy in series for v in sy]
    if not xs:
        raise ValueError("no data points to plot")
    return xs, ys


def _points(frame: _Frame, sx: Sequence[float], sy: Sequence[float],
            template: str, sep: str) -> list[str]:
    """``template`` % (x, y) for each point's pixel text, joined by ``sep``
    in chunks of ``_CHUNK`` points."""
    n = min(len(sx), len(sy))
    xy = np.empty(2 * n)
    xy[0::2] = frame.px(np.asarray(sx[:n], dtype=np.float64))
    xy[1::2] = frame.py(np.asarray(sy[:n], dtype=np.float64))
    chunks = []
    for start in range(0, 2 * n, 2 * _CHUNK):
        text = _fmt_all(xy[start:start + 2 * _CHUNK].tolist())
        chunks.append(sep.join([template] * (len(text) // 2)) % tuple(text))
    return chunks


def scatter(series: Sequence[Series], title: str, x_label: str,
            y_label: str) -> str:
    """Scatter chart; each series gets a palette color and legend row."""
    xs, ys = _collect(series)
    frame = _Frame(xs, ys, title, x_label, y_label)
    parts = frame.header()
    for i, (label, sx, sy) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        parts.extend(_points(frame, sx, sy, f'<circle cx="%s" cy="%s" r="2" '
                             f'fill="{color}" fill-opacity="0.55"/>', "\n"))
    parts.extend(frame.legend([label for label, _, _ in series]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line(series: Sequence[Series], title: str, x_label: str,
         y_label: str) -> str:
    """Line chart with point markers."""
    xs, ys = _collect(series)
    frame = _Frame(xs, ys, title, x_label, y_label)
    parts = frame.header()
    for i, (label, sx, sy) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(_points(frame, sx, sy, "%s,%s", " "))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.extend(_points(frame, sx, sy, f'<circle cx="%s" cy="%s" r="3" '
                             f'fill="{color}"/>', "\n"))
    parts.extend(frame.legend([label for label, _, _ in series]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bars(edges_lo: Sequence[float], edges_hi: Sequence[float],
         counts: Sequence[float], title: str, x_label: str,
         y_label: str = "count") -> str:
    """Histogram-style bars over [lo, hi) bins."""
    xs = [float(v) for v in edges_lo] + [float(v) for v in edges_hi]
    ys = [0.0] + [float(c) for c in counts]
    frame = _Frame(xs, ys, title, x_label, y_label)
    parts = frame.header()
    base = frame.py(0.0)
    for lo, hi, c in zip(edges_lo, edges_hi, counts):
        x = frame.px(float(lo))
        w = max(frame.px(float(hi)) - x, 0.5)
        top = frame.py(float(c))
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(top)}" '
                     f'width="{_fmt(w)}" height="{_fmt(max(base - top, 0.0))}" '
                     f'fill="{PALETTE[0]}" stroke="white" stroke-width="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
