"""Minimal hand-rolled SVG output for grids and reliability diagrams.

Kept dependency-free on purpose: reports stay viewable anywhere without a
plotting stack. Cells are emitted row by row as filled rects.
"""

from __future__ import annotations

import numpy as np

from .calibration import BinStats
from .diagnostics import GridMap

# class palette; cycles past ten classes
PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
           "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    return tuple(int(color[i:i + 2], 16) for i in (1, 3, 5))


def _mix(color: str, white: float) -> str:
    r, g, b = _hex_to_rgb(color)
    mixed = [round(v + (255 - v) * white) for v in (r, g, b)]
    return "#{:02x}{:02x}{:02x}".format(*mixed)


def class_color(idx: int) -> str:
    return PALETTE[idx % len(PALETTE)]


def _svg_open(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>']


# plot sizes in pixels, which the title row adds to
GRID_SIZE = 640
RELIABILITY_SIZE = 420


def grid_svg(grid: GridMap, points: np.ndarray | None = None,
             labels: np.ndarray | None = None, title: str = "") -> str:
    """Render a GridMap as a colored raster with optional scatter overlay.

    Decision grids color by predicted class; responsibility grids color by the
    winning plane, washed out where the winner's share is weak.
    """
    ny, nx = grid.values.shape[:2]
    margin, title_h = 10, 24 if title else 0
    plot = GRID_SIZE - 2 * margin
    cell_w = plot / nx
    cell_h = plot / ny
    width, height = GRID_SIZE, GRID_SIZE + title_h
    parts = _svg_open(width, height)
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="16" font-family="sans-serif" '
                     f'font-size="14" text-anchor="middle">{title}</text>')

    (x_lo, x_hi) = float(grid.xs[0]), float(grid.xs[-1])
    (y_lo, y_hi) = float(grid.ys[0]), float(grid.ys[-1])
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    for i in range(ny):
        # y axis points up; svg's points down
        py = margin + title_h + (ny - 1 - i) * cell_h
        run_start, run_color = 0, None
        row_colors = []
        for j in range(nx):
            if grid.values.ndim == 2:
                color = _mix(class_color(int(grid.values[i, j])), 0.35)
            else:
                share = grid.values[i, j, :-1]
                winner = int(grid.values[i, j, -1])
                strength = float(share[winner])
                color = _mix(class_color(winner), 1.0 - strength)
            row_colors.append(color)
        # merge horizontal runs of one color to keep files small
        for j in range(nx + 1):
            color = row_colors[j] if j < nx else None
            if color != run_color:
                if run_color is not None:
                    px = margin + run_start * cell_w
                    w = (j - run_start) * cell_w
                    parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" '
                                 f'width="{w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" '
                                 f'fill="{run_color}"/>')
                run_start, run_color = j, color

    if points is not None:
        points = np.asarray(points)
        for k in range(points.shape[0]):
            px = margin + (points[k, 0] - x_lo) / x_span * plot
            py = margin + title_h + (1 - (points[k, 1] - y_lo) / y_span) * plot
            if not (0 <= px <= width and 0 <= py <= height):
                continue
            fill = class_color(int(labels[k])) if labels is not None else "#333333"
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2" '
                         f'fill="{fill}" stroke="#ffffff" stroke-width="0.4"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def reliability_svg(rows: list[BinStats], ece_value: float,
                    title: str = "Reliability") -> str:
    """Confidence-vs-accuracy bars with the identity diagonal."""
    margin, title_h = 40, 24
    plot = RELIABILITY_SIZE - 2 * margin
    width = height = RELIABILITY_SIZE + title_h
    parts = _svg_open(width, height)
    parts.append(f'<text x="{width / 2:.1f}" y="16" font-family="sans-serif" '
                 f'font-size="14" text-anchor="middle">{title} '
                 f'(ece={ece_value:.4f})</text>')
    ox, oy = margin, title_h + margin

    def sx(v: float) -> float:
        return ox + v * plot

    def sy(v: float) -> float:
        return oy + (1 - v) * plot

    total = sum(r.count for r in rows) or 1
    for r in rows:
        if r.count == 0:
            continue
        x0, x1 = sx(r.low), sx(r.high)
        parts.append(f'<rect x="{x0:.2f}" y="{sy(r.accuracy):.2f}" '
                     f'width="{x1 - x0:.2f}" height="{sy(0) - sy(r.accuracy):.2f}" '
                     f'fill="#4e79a7" fill-opacity="0.8"/>')
        # confidence marker per occupied bin
        parts.append(f'<line x1="{x0:.2f}" y1="{sy(r.mean_confidence):.2f}" '
                     f'x2="{x1:.2f}" y2="{sy(r.mean_confidence):.2f}" '
                     f'stroke="#e15759" stroke-width="2"/>')
    parts.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
                 f'y2="{sy(1):.1f}" stroke="#666666" stroke-dasharray="4,3"/>')
    parts.append(f'<rect x="{ox}" y="{oy}" width="{plot}" height="{plot}" '
                 f'fill="none" stroke="#333333"/>')
    for v in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{sx(v):.1f}" y="{sy(0) + 16:.1f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="middle">{v:g}</text>')
        parts.append(f'<text x="{ox - 6}" y="{sy(v) + 4:.1f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="end">{v:g}</text>')
    parts.append(f'<text x="{sx(0.5):.1f}" y="{height - 4}" font-size="12" '
                 f'font-family="sans-serif" text-anchor="middle">confidence</text>')
    parts.append("</svg>")
    return "\n".join(parts)
