"""Minimal SVG chart emission: scatter, line, and bar charts.

No plotting dependency; output is a deterministic function of the data,
so rendered files can be byte-compared in reproducibility tests.

Every coordinate is written as ``%.2f`` writes it, then trimmed: a
trailing ``.00`` is dropped, else a trailing ``0``, and ``-0`` becomes
``0`` (so 1.50 -> "1.5", 2.00 -> "2", -0.004 -> "0").  ``_text`` applies
that rule to a whole array in one pass of numpy operations.  ``%.2f``
rounds the exact binary value v to two decimals, half to even, so the
text is that of the integer n = round-half-even(100·|v|), with a "-"
when v < 0 and n > 0.
- n is exact.  Dekker's product (a Veltkamp split of |v|; 100 needs
  none) gives p + e == 100·|v| exactly, with p = fl(100·|v|).  The sign
  of (p - floor(p) - 0.5) + e then says whether 100·|v| lies above,
  below or on the midpoint between floor(p) and floor(p) + 1, and on
  the midpoint the even one is taken.  Each step is one IEEE double
  operation, correctly rounded on every SIMD level, and exact wherever
  its rounding could change what is read (of the last sum only the sign
  is read, and a rounded sum keeps the sign of the exact one).
- The digits come from n by float division: while n < 2**47,
  floor(n / 100**j) is n // 100**j exactly.  The last two digits go
  through a 100-entry table that holds them already trimmed (".5",
  ".05", ""), and the integer part two digits at a time through another.
So the integer form holds for |v| < 2**40.  A non-finite value, or a
larger one, is written by ``%.2f`` itself, inside ``_text``.  No chart
coordinate is such a value: each lies in the WIDTH x HEIGHT canvas.

A series' x and y are float64 arrays (any number sequence is converted
once) of one length, or a ValueError names the series.  Each axis spans
every value given for it.  A NaN raises a ValueError naming the axis,
and a span whose padded range overflows float64 a DegenerateDataError
naming the axis and its label.  One chart body serves scatter and line.
It writes each series in pieces of ``_CHUNK`` points: one ``_text`` call
formats a piece's coordinates, and its rows are laid side by side as one
byte matrix, padding dropped, so a 37k-point scatter never holds one
string per point.  Header ticks and bars format all their numbers in one
call per chart.
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


#: Points per piece of a scatter or line chart: per ``_text`` call and
#: per string of the chart's text.
_CHUNK = 1024

#: From this |v| on, ``_text`` leaves the integer form to ``%.2f``:
#: below it, n < 100 * 2**40 < 2**47.
_FAR = 2.0 ** 40
#: Veltkamp's constant for float64: splits a value into two halves of at
#: most 26 significant bits each.
_SPLIT = 2.0 ** 27 + 1.0


def _codes(texts: Sequence[str], dtype: str) -> np.ndarray:
    """Each text's ASCII bytes padded with 0 bytes to one ``dtype`` item."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.encode().ljust(size, b"\0")
                                  for t in texts), dtype=dtype)


#: The last two digits r of n as text: "", ".d" or ".dd" (r = 0 -> "",
#: 50 -> ".5"), and at 100 + r the same after the "0" of a value below 1.
_DECIMALS = _codes([f"{w}.{r:02d}".rstrip("0").rstrip(".") or w
                    for w in ("", "0") for r in range(100)], "<u4")
#: Two digits i of an integer part: unpadded for a leading pair (0 as ""),
#: and at 100 + i zero-padded for one with digits before it.
_PAIRS = _codes([str(i) if i else "" for i in range(100)]
                + [f"{i:02d}" for i in range(100)], "<u2")
#: 100**j: floor(n / 100**j) is n // 100**j for every n < 2**47 (13
#: digits before the point, so j <= 8).
_HUNDREDS = 100.0 ** np.arange(9)


def _text(v: np.ndarray) -> np.ndarray:
    """Each value of the float64 array ``v`` under the two-decimal rule,
    as one row of ASCII bytes followed by 0 bytes up to the widest."""
    a = np.abs(v)
    near = a < _FAR
    far = None if near.all() else ~near     # NaN too
    if far is not None:
        a[far] = 0.0
    # p + e == 100·a exactly (Dekker; 100 needs no split)
    c = a * _SPLIT
    hi = c - (c - a)
    p = a * 100.0
    e = hi * 100.0 - p
    e += (a - hi) * 100.0
    # 100·a lies above, below or on the midpoint of n and n + 1 as s is
    # positive, negative or 0 (p - n - 0.5 is exact where |s| is near 0);
    # n + 0.75, n + 0.25 or n + 0.5 is exact, and rint rounds it half to
    # even
    n = np.floor(p)
    s = p - n
    s -= 0.5
    s += e
    n += 0.5
    np.add(n, 0.25, out=n, where=s > 0.0)
    np.subtract(n, 0.25, out=n, where=s < 0.0)
    np.rint(n, out=n)
    # row j of q is n // 100**(j + 1): the integer part, then its pairs
    pairs = len(str(int(n.max()) // 100)) + 1 >> 1
    q = np.floor(n / _HUNDREDS[1:pairs + 2, None])
    decimals = n - q[0] * 100.0
    np.add(decimals, 100.0, out=decimals, where=q[0] < 1.0)
    digits = q[:-1] - q[1:] * 100.0
    np.add(digits, 100.0, out=digits, where=q[1:] > 0.0)
    sign = v < 0.0
    lead = int(sign.any())
    out = np.zeros((v.shape[0], lead + 2 * pairs + 4), dtype=np.uint8)
    if lead:
        out[:, 0] = sign & (n > 0.0)        # -0.004 is "0"
        out[:, 0] *= ord("-")
    out[:, lead:-4].view("<u2")[:] = _PAIRS[digits[::-1].T.astype(np.intp)]
    out[:, -4:].view("<u4")[:, 0] = _DECIMALS[decimals.astype(np.intp)]
    if far is not None:
        texts = [("%.2f" % x).rstrip("0").rstrip(".").encode()
                 for x in v[far].tolist()]
        width = max(map(len, texts))
        if width > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[far] = np.frombuffer(b"".join(t.ljust(out.shape[1], b"\0")
                                          for t in texts),
                                 dtype=np.uint8).reshape(len(texts), -1)
    return out


def _rows(pieces: Sequence[bytes | np.ndarray]) -> str:
    """Rows made of ``pieces`` laid side by side, as one string: a byte
    string is repeated on every row, and the i-th row of each array (rows
    of ASCII bytes, as ``_text`` makes them) goes into the i-th row.  The
    0 bytes are dropped, and so is the last row's last byte: the last
    piece ends with the separator of the rows."""
    n = next(p.shape[0] for p in pieces if isinstance(p, np.ndarray))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    col = 0
    for piece, width in zip(pieces, widths):
        rows[:, col:col + width] = np.frombuffer(piece, dtype=np.uint8) \
            if isinstance(piece, bytes) else piece
        col += width
    rows[-1, -1] = 0
    return str(rows[rows > 0], "ascii")


def _strings(text: np.ndarray) -> list[str]:
    """The rows of a ``_text`` result, one string each."""
    return _rows((text, b"\n")).split("\n")


def _fmt_all(values: Sequence[float]) -> list[str]:
    """Each value with two decimals, less a trailing ``.00`` or ``0``, and
    ``-0`` as ``0``."""
    v = np.asarray(values, dtype=np.float64)
    return _strings(_text(v)) if v.size else []


def _fmt(v: float) -> str:
    return _fmt_all((v,))[0]


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
        self.x_ticks = _nice_ticks(self.x_lo, self.x_hi)
        self.y_ticks = _nice_ticks(self.y_lo, self.y_hi)

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

    def tick_at(self) -> np.ndarray:
        """The x ticks' pixel x, then the y ticks' pixel y."""
        return np.array([self.px(t) for t in self.x_ticks]
                        + [self.py(t) for t in self.y_ticks])

    def header(self, at: Sequence[str] | None = None) -> list[str]:
        """The chart's opening parts; ``at`` is the text of tick_at(),
        made here unless the caller formats it along with its own
        numbers."""
        if at is None:
            at = _fmt_all(self.tick_at())
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
        for t, px in zip(self.x_ticks, at):
            parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 4}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{t:g}</text>')
        for t, py in zip(self.y_ticks, at[len(self.x_ticks):]):
            parts.append(f'<line x1="{x0 - 4}" y1="{py}" x2="{x0}" y2="{py}" '
                         'stroke="black"/>')
            parts.append(f'<text x="{x0 - 7}" y="{py}" text-anchor="end" '
                         f'dominant-baseline="middle" '
                         f'font-family="sans-serif" font-size="11">'
                         f'{t:g}</text>')
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


#: (label, x, y): float64 arrays of one length, or number sequences
#: converted once; an axis spans every value given for it and rejects NaN.
Series = tuple[str, np.ndarray | Sequence[float], np.ndarray | Sequence[float]]


def _chart(series: Sequence[Series], title: str, x_label: str,
           y_label: str, marker: str, polyline: bool) -> str:
    """A circle with the attributes ``marker`` (``{}`` is the color) per
    point, after a polyline through each series' points if ``polyline``."""
    xs = [np.asarray(sx, dtype=np.float64) for _, sx, _ in series]
    ys = [np.asarray(sy, dtype=np.float64) for _, _, sy in series]
    frame = _Frame(_span("x", xs), _span("y", ys), title, x_label, y_label)
    parts = frame.header()
    for i, ((label, _, _), sx, sy) in enumerate(zip(series, xs, ys)):
        if len(sx) != len(sy):
            raise ValueError(f"series '{label}' has {len(sx)} x values and "
                             f"{len(sy)} y values")
        color = PALETTE[i % len(PALETTE)]
        circle_end = f'" {marker.format(color)}/>\n'.encode()
        path, circles = [], []
        for start in range(0, len(sx), _CHUNK):
            x = frame.px(sx[start:start + _CHUNK])
            y = frame.py(sy[start:start + _CHUNK])
            text = _text(np.concatenate((x, y)))
            cx, cy = text[:len(x)], text[len(x):]
            if polyline:
                path.append(_rows((cx, b",", cy, b" ")))
            circles.append(_rows((b'<circle cx="', cx, b'" cy="', cy,
                                  circle_end)))
        if polyline:
            parts.append(f'<polyline points="{" ".join(path)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.extend(circles)
    parts.extend(frame.legend([label for label, _, _ in series]))
    parts.append("</svg>\n")     # one join: the chart is never copied again
    return "\n".join(parts)


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
    if not len(lo) == len(hi) == len(heights):
        raise ValueError(f"{len(lo)} lower edges, {len(hi)} upper edges and "
                         f"{len(heights)} counts do not make bars")
    frame = _Frame(_span("x", (lo, hi)), _span("y", (np.zeros(1), heights)),
                   title, x_label, y_label)
    at = frame.tick_at()
    x = frame.px(lo)
    top = frame.py(heights)
    text = _text(np.concatenate((at, x, top,
                                 np.maximum(frame.px(hi) - x, 0.5),
                                 np.maximum(frame.py(0.0) - top, 0.0))))
    parts = frame.header(_strings(text[:len(at)]))
    x, top, width, height = (text[i:i + len(lo)] for i in
                             range(len(at), len(text), len(lo)))
    parts.append(_rows((b'<rect x="', x, b'" y="', top, b'" width="', width,
                        b'" height="', height, f'" fill="{PALETTE[0]}" '
                        'stroke="white" stroke-width="0.5"/>\n'.encode())))
    parts.append("</svg>\n")
    return "\n".join(parts)
