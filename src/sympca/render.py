"""Standalone SVG renderers for the two interval-PCA plots.

``render_circle`` draws the symbolic correlation circle: a unit circle with
one axis-aligned rectangle per variable spanning its correlation intervals
on the two chosen components. ``render_plane`` draws the symbolic principal
plane: one rectangle per object spanning its score intervals. Each maps its
intervals to whole-array coordinates and hands them to one figure body,
which writes the axes, their names and the labelled rectangles.

Geometry contract (documented so output can be inverted exactly):

* viewport: a fixed 600 x 600.
* circle: center (300, 300), radius 0.42 * 600 = 252;
  a correlation point (cx, cy) maps to
  ``svg_x = center_x + radius * cx``, ``svg_y = center_y - radius * cy``.
* plane: the score bounding box, padded by 5% of its span per axis, maps
  affinely onto the full viewport (y inverted, SVG grows downward).

Coordinates are emitted at full float precision, so mapping rectangle
corners back through the inverse affine transform reproduces the input
intervals to machine accuracy. Output is deterministic: identical input
produces byte-identical SVG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, _is_integer
from .intervals import IntervalMatrix

__all__ = ["PlotSpec", "render_circle", "render_plane", "PALETTE"]

VIEWPORT_SIZE = 600  # width and height, in px
CIRCLE_RADIUS_FRACTION = 0.42
PLANE_PADDING_FRACTION = 0.05

# Fixed qualitative palette; row i uses PALETTE[i % 12].
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
    "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)

_FONT = 'font-family="sans-serif" font-size="12"'


@dataclass(frozen=True)
class PlotSpec:
    """Which components to plot, and the figure's title.

    Component indices are 1-based, matching the PC1, PC2, ... labels.
    """

    axis_x: int = 1
    axis_y: int = 2
    title: str = ""

    def __post_init__(self) -> None:
        if not (_is_integer(self.axis_x) and _is_integer(self.axis_y)):
            raise DataError(
                f"component indices must be integers, got "
                f"({self.axis_x!r}, {self.axis_y!r})"
            )
        if self.axis_x == self.axis_y:
            raise DataError("axis_x and axis_y must differ")
        if self.axis_x < 1 or self.axis_y < 1:
            raise DataError("component indices are 1-based and positive")


def _fmt(x: float) -> str:
    return repr(float(x))


def _axis_columns(table: IntervalMatrix, spec: PlotSpec) -> tuple[int, int]:
    q = len(table.cols)
    if spec.axis_x > q or spec.axis_y > q:
        raise DataError(
            f"axis out of range: requested ({spec.axis_x}, {spec.axis_y}) "
            f"of {q} components"
        )
    return spec.axis_x - 1, spec.axis_y - 1


def _rect(x: float, y: float, w: float, h: float, color: str) -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
    )


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" stroke="#999999" stroke-width="1"/>'
    )


def _escape(text: str) -> str:
    """XML-escape ``&``, ``>`` and ``<``, as ``xml.sax.saxutils.escape`` does
    with no extra entities (importing that module loads the network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x: float, y: float, anchor: str, content: str, color: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'{_FONT} fill="{color}">{_escape(content)}</text>'
    )


def _figure(spec: PlotSpec, origin: tuple[float, float], names: tuple[str, str],
            extra: list[str], rows: tuple[str, ...], rects, marks,
            anchor: str) -> str:
    """The one figure body of both plots: header and title, axis lines
    crossing at ``origin``, ``extra`` elements, the axis ``names``, then one
    palette-coloured rectangle per row from the arrays ``rects`` (x, y, width,
    height), labelled at ``marks`` (x, y) with text anchor ``anchor``."""
    ox, oy = origin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT_SIZE}" height="{VIEWPORT_SIZE}" '
        f'viewBox="0 0 {VIEWPORT_SIZE} {VIEWPORT_SIZE}">',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_fmt(VIEWPORT_SIZE / 2)}" y="16" text-anchor="middle" '
            f'{_FONT}>{_escape(spec.title)}</text>'
        )
    parts.append(_line(0.0, oy, float(VIEWPORT_SIZE), oy))
    parts.append(_line(ox, 0.0, ox, float(VIEWPORT_SIZE)))
    parts.extend(extra)
    parts.append(_text(float(VIEWPORT_SIZE) - 4.0, oy - 6.0, "end", names[0], "#444444"))
    parts.append(_text(ox + 6.0, 14.0, "start", names[1], "#444444"))
    rects = zip(*(a.tolist() for a in rects))
    marks = zip(*(a.tolist() for a in marks))
    for i, (name, rect, mark) in enumerate(zip(rows, rects, marks)):
        color = PALETTE[i % len(PALETTE)]
        parts.append(_rect(*rect, color))
        parts.append(_text(*mark, anchor, name, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_circle(correlations: IntervalMatrix, spec: PlotSpec) -> str:
    """Render the correlation circle; input must already be clamped to
    [-1, 1] (which keeps all geometry inside the viewport)."""
    jx, jy = _axis_columns(correlations, spec)
    if correlations.lo.size and (
        correlations.lo.min() < -1.0 or correlations.hi.max() > 1.0
    ):
        raise DataError(
            "correlation intervals must be clamped to [-1, 1] before rendering"
        )
    cx = cy = VIEWPORT_SIZE / 2.0
    radius = CIRCLE_RADIUS_FRACTION * VIEWPORT_SIZE
    x_lo, x_hi = correlations.lo[:, jx], correlations.hi[:, jx]
    y_lo, y_hi = correlations.lo[:, jy], correlations.hi[:, jy]
    circle = (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    rects = (cx + radius * x_lo, cy - radius * y_hi,
             radius * (x_hi - x_lo), radius * (y_hi - y_lo))
    marks = (cx + radius * ((x_lo + x_hi) / 2.0),
             cy - radius * ((y_lo + y_hi) / 2.0))
    return _figure(spec, (cx, cy), (correlations.cols[jx], correlations.cols[jy]),
                   [circle], correlations.rows, rects, marks, "middle")


def render_plane(scores: IntervalMatrix, spec: PlotSpec) -> str:
    """Render objects as rectangles over their score intervals on two
    components; the data box is padded 5% per axis, axes cross at zero."""
    jx, jy = _axis_columns(scores, spec)
    if len(scores.rows) == 0:
        raise DataError("cannot render an empty table")
    x_min, x_max = float(scores.lo[:, jx].min()), float(scores.hi[:, jx].max())
    y_min, y_max = float(scores.lo[:, jy].min()), float(scores.hi[:, jy].max())
    # A degenerate span would collapse the affine map; give it unit room.
    x_pad = PLANE_PADDING_FRACTION * (x_max - x_min) if x_max > x_min else 0.5
    y_pad = PLANE_PADDING_FRACTION * (y_max - y_min) if y_max > y_min else 0.5
    x0, x1 = x_min - x_pad, x_max + x_pad
    y0, y1 = y_min - y_pad, y_max + y_pad

    def sx(value: float) -> float:
        return (value - x0) * VIEWPORT_SIZE / (x1 - x0)

    def sy(value: float) -> float:
        return (y1 - value) * VIEWPORT_SIZE / (y1 - y0)

    x_lo, x_hi = scores.lo[:, jx], scores.hi[:, jx]
    y_lo, y_hi = scores.lo[:, jy], scores.hi[:, jy]
    left, right, top, bottom = sx(x_lo), sx(x_hi), sy(y_hi), sy(y_lo)
    # a degenerate score gets a 2-px marker centered on the point
    point = (x_lo == x_hi) & (y_lo == y_hi)
    rects = (
        np.where(point, left - 1.0, left),
        np.where(point, bottom - 1.0, top),
        np.where(point, 2.0, right - left),
        np.where(point, 2.0, bottom - top),
    )
    marks = (right + 3.0, top - 3.0)
    return _figure(spec, (sx(0.0), sy(0.0)), (scores.cols[jx], scores.cols[jy]),
                   [], scores.rows, rects, marks, "start")
