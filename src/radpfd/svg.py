"""Minimal static SVG line charts.

Renders up to two series as polylines with axes, tick labels, and a
legend.  Output is a plain string of SVG markup, deterministic for a
given input: coordinates are formatted to fixed decimals and nothing
depends on ambient state.  Batch consumers diff these files, so
determinism matters more than beauty.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_WIDTH = 800
_HEIGHT = 500
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_COLORS = ("#000000", "#999999")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float):
    # lo < hi: line_chart widens equal bounds before it asks for ticks
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mag * mult
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(t: float) -> str:
    if t == int(t) and abs(t) < 1e15:
        return str(int(t))
    return f"{t:.6g}"


def _line(x1, y1, x2, y2, stroke="#000000", width=1, dash=None) -> str:
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _text(x, y, body, size, anchor=None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}">{body}</text>'


def line_chart(series, labels, title: str) -> str:
    """SVG chart of one or two series, each a list of (x, y) floats.

    Points with non-finite y are dropped per-series.  Axis ranges cover
    all remaining points with a small vertical margin.
    """
    if not series or len(series) > 2:
        raise ValueError("expected one or two series")
    if len(labels) != len(series):
        raise ValueError("one label per series")
    cleaned = []
    for pts in series:
        cleaned.append(
            [(float(x), float(y)) for x, y in pts if math.isfinite(float(y))]
        )
    allpts = [pt for pts in cleaned for pt in pts]
    if not allpts:
        raise ValueError("no finite data points")
    x_lo = min(p[0] for p in allpts)
    x_hi = max(p[0] for p in allpts)
    y_lo = min(p[1] for p in allpts)
    y_hi = max(p[1] for p in allpts)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    pad = (y_hi - y_lo) * 0.05 or max(abs(y_hi), 1.0) * 0.05
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _text(_WIDTH // 2, 24, title, 16, "middle"),
        # Axes
        _line(x0, _MARGIN_T, x0, y0),
        _line(x0, y0, _WIDTH - _MARGIN_R, y0),
    ]
    for t in _ticks(x_lo, x_hi):
        px = _fmt(sx(t))
        out.append(_line(px, y0, px, y0 + 5))
        out.append(_text(px, y0 + 20, _tick_label(t), 11, "middle"))
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(_line(x0 - 5, _fmt(py), x0, _fmt(py)))
        out.append(_text(x0 - 8, _fmt(py + 4), _tick_label(t), 11, "end"))
    # Zero line if the range crosses it
    if y_lo < 0 < y_hi:
        py = _fmt(sy(0))
        out.append(_line(x0, py, _WIDTH - _MARGIN_R, py, "#cccccc", dash="4 3"))
    for idx, pts in enumerate(cleaned):
        if not pts:
            continue
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{_COLORS[idx]}" stroke-width="{2 - idx}"/>'
        )
    for idx, label in enumerate(labels):
        lx = _MARGIN_L + 10
        ly = _MARGIN_T + 16 + 18 * idx
        out.append(_line(lx, ly - 4, lx + 24, ly - 4, _COLORS[idx], 2 - idx))
        out.append(_text(lx + 30, ly, label, 12))
    out.append("</svg>")
    return "\n".join(out) + "\n"
