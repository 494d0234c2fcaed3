"""Minimal standalone SVG writer for semi-logarithmic convergence plots.

Hand-rolled on purpose: one fixed layout, log ticks at decades, a polyline
with markers per series, and no external resources, so the output is
self-contained and byte-stable.
"""

import math
from xml.sax.saxutils import escape

_WIDTH, _HEIGHT = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 42, 52
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(x, y, body, size: int, anchor="middle", extra="") -> str:
    """One sans-serif <text> element; `anchor` None leaves out text-anchor,
    and `extra` holds further attributes."""
    anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{escape(str(body))}</text>')


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"/>')


def render_semilog(ns, series, title: str = "") -> str:
    """SVG text for error-vs-degree curves with a log10 vertical axis.

    `series` is a list of (label, values) pairs aligned with `ns`; entries
    that are None or not positive-finite are skipped point-wise.
    """
    ns = list(ns)
    finite = [
        v
        for _, values in series
        for v in values
        if v is not None and math.isfinite(v) and v > 0.0
    ]
    if not ns or not finite:
        raise ValueError("nothing to plot: no positive finite values")
    lo = math.floor(math.log10(min(finite)))
    hi = math.ceil(math.log10(max(finite)))
    if hi == lo:
        hi += 1
    x_min, x_max = min(ns), max(ns)
    if x_max == x_min:
        x_max += 1
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(n) -> float:
        return _LEFT + plot_w * (n - x_min) / (x_max - x_min)

    def sy(v) -> float:
        return _TOP + plot_h * (hi - math.log10(v)) / (hi - lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(_WIDTH // 2, 24, title, 14))
    bottom = _TOP + plot_h
    for k in range(lo, hi + 1):
        y = sy(10.0**k)
        parts.append(_line(_LEFT, _fmt(y), _LEFT + plot_w, _fmt(y), "#cccccc", 0.5))
        parts.append(_text(_LEFT - 8, _fmt(y + 4), f"1e{k}", 11, anchor="end"))
    for n in ns:
        x = _fmt(sx(n))
        parts.append(_line(x, bottom, x, bottom + 5, "black", 1))
        parts.append(_text(x, bottom + 20, n, 11))
    y_mid = _TOP + plot_h // 2
    parts.append(_text(_LEFT + plot_w // 2, _HEIGHT - 12, "N", 12))
    parts.append(_text(18, y_mid, "error", 12, extra=f' transform="rotate(-90 18 {y_mid})"'))
    for idx, (label, values) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = [
            (sx(n), sy(v))
            for n, v in zip(ns, values)
            if v is not None and math.isfinite(v) and v > 0.0
        ]
        if pts:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for x, y in pts:
                parts.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>'
                )
        ly = _TOP + 16 + 16 * idx
        parts.append(_line(_LEFT + plot_w - 120, ly - 4, _LEFT + plot_w - 96, ly - 4,
                           color, 1.5))
        parts.append(_text(_LEFT + plot_w - 90, ly, label, 11, anchor=None))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
