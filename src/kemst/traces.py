"""Deterministic CSV trace emission and minimal hand-built SVG plots."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path


def format_cell(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def write_csv(path, record_type, records) -> None:
    """One row per record; the columns are the record dataclass's fields."""
    columns = [f.name for f in dataclasses.fields(record_type)]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(format_cell(getattr(rec, c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


_PALETTE = ("#1f6fb2", "#c23b21", "#2e8540", "#8031a7")


def svg_plot(path, series, title: str = "") -> None:
    """Write a line plot; series is a list of (label, xs, ys) triples.

    Plots are reproduction aids, so this stays a bare polyline emitter:
    one axes box, linear scales, a small legend.
    """
    width, height, pad = 720, 420, 48.0
    xs_all = [x for _label, xs, _ys in series for x in xs]
    ys_all = [y for _label, _xs, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{pad / 2:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    for tick in range(5):
        fx = x_lo + (x_hi - x_lo) * tick / 4
        fy = y_lo + (y_hi - y_lo) * tick / 4
        parts.append(
            f'<text x="{sx(fx):.1f}" y="{height - pad / 2.5:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{fx:.3g}</text>'
        )
        parts.append(
            f'<text x="{pad / 2.5:.1f}" y="{sy(fy) + 3:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{fy:.3g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad:.1f}" y="{pad + 14 * (idx + 1):.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
