"""Dependency-free SVG line plots for the command-line reports.

Deliberately small: line series on linear axes, nice tick placement,
a legend box, fixed palette and canvas size. Output is deterministic text,
so reruns stay byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> np.ndarray:
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("axis range must be finite")
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * mag) <= target:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    return np.arange(start, hi + step / 2.0, step)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(series, title: str = "", xlabel: str = "",
              ylabel: str = "") -> str:
    """Render line series to an SVG string.

    series: iterable of (label, x, y) with array-likes x and y.
    """
    series = [(str(lab), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for lab, x, y in series]
    if not series:
        raise ValueError("need at least one series")
    for lab, x, y in series:
        if x.shape != y.shape or x.ndim != 1 or x.size == 0:
            raise ValueError(f"series {lab!r} needs matching non-empty 1-D arrays")

    xlo = min(x.min() for _, x, _ in series)
    xhi = max(x.max() for _, x, _ in series)
    ylo = min(y.min() for _, _, y in series)
    yhi = max(y.max() for _, _, y in series)
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    width, height = 660, 460
    ml, mr, mt, mb = 64, 16, 34, 48
    pw, phh = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (v - xlo) / (xhi - xlo or 1.0) * pw

    def py(v):
        return mt + (yhi - v) / (yhi - ylo) * phh

    xt = _nice_ticks(xlo, xhi)
    yt = _nice_ticks(ylo, yhi)
    yt = yt[(yt >= ylo - 1e-12) & (yt <= yhi + 1e-12)]
    xt = xt[(xt >= xlo - 1e-12) & (xt <= xhi + 1e-12)]

    e = []
    e.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}" '
             f'font-family="Helvetica,Arial,sans-serif">')
    e.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        e.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                 f'font-size="14">{title}</text>')

    for t in xt:
        x = px(t)
        e.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + phh}" '
                 f'stroke="#dddddd" stroke-width="1"/>')
        e.append(f'<text x="{x:.2f}" y="{mt + phh + 18}" text-anchor="middle" '
                 f'font-size="11">{_fmt(t)}</text>')
    for t in yt:
        y = py(t)
        e.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
                 f'stroke="#dddddd" stroke-width="1"/>')
        e.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end" '
                 f'font-size="11">{_fmt(t)}</text>')

    e.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{phh}" fill="none" '
             f'stroke="#333333" stroke-width="1"/>')
    if xlabel:
        e.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    if ylabel:
        yc = mt + phh / 2
        e.append(f'<text x="16" y="{yc:.1f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {yc:.1f})">{ylabel}</text>')

    for i, (lab, x, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        e.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                 f'stroke-width="1.8"/>')

    lx, ly = ml + 12, mt + 14
    for i, (lab, _, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        yy = ly + i * 18
        e.append(f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 22}" y2="{yy - 4}" '
                 f'stroke="{color}" stroke-width="2.5"/>')
        e.append(f'<text x="{lx + 28}" y="{yy}" font-size="11">{lab}</text>')

    e.append("</svg>")
    return "\n".join(e) + "\n"
