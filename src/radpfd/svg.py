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

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    # Axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    out.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    # Zero line if the range crosses it
    if y_lo < 0 < y_hi:
        py = sy(0)
        out.append(
            f'<line x1="{x0}" y1="{_fmt(py)}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{_fmt(py)}" stroke="#cccccc" stroke-width="1" '
            f'stroke-dasharray="4 3"/>'
        )
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
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{_COLORS[idx]}" stroke-width="{2 - idx}"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
