"""Standalone SVG renderers for the two interval-PCA plots.

``render_circle`` draws the symbolic correlation circle: a unit circle with
one axis-aligned rectangle per variable spanning its correlation intervals
on the two chosen components. ``render_plane`` draws the symbolic principal
plane: one rectangle per object spanning its score intervals. Each maps its
intervals to whole-array coordinates and hands them to one figure body,
the only writer of SVG text: the axes, their names and the labelled
rectangles.

Geometry contract (documented so output can be inverted exactly):

* viewport: a fixed 600 x 600.
* circle: center (300, 300), radius 0.42 * 600 = 252;
  a correlation point (cx, cy) maps to
  ``svg_x = center_x + radius * cx``, ``svg_y = center_y - radius * cy``.
* plane: each axis maps its scores times ``2**-k``, ``k = max(0, e - 1000)``
  and ``e`` the binary exponent of that axis's largest |bound| (so k = 0
  for scores below 2**1000). The scaled score bounding box, padded by 5% of
  its span per axis, maps affinely onto the full viewport (y inverted, SVG
  grows downward), and every coordinate is finite.

Coordinates are emitted at full float precision, so mapping rectangle
corners back through the inverse affine transform, then multiplying by
``2**k`` (exact), reproduces the input intervals to machine accuracy.
Output is deterministic: identical input produces byte-identical SVG.
A title, axis name or row label holding a character outside XML 1.0's
``Char`` (a C0 control other than tab, LF and CR; U+FFFE, U+FFFF; a lone
surrogate) raises DataError; a CR is written ``&#13;``, so every text
reads back exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import cycle

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
_AXIS = 'stroke="#999999" stroke-width="1"'
# One character outside XML 1.0's Char production.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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
        if not isinstance(self.title, str):
            raise DataError(f"title must be a string, got {self.title!r}")


def _axis_columns(table: IntervalMatrix, spec: PlotSpec) -> tuple[int, int]:
    q = len(table.cols)
    if spec.axis_x > q or spec.axis_y > q:
        raise DataError(
            f"axis out of range: requested ({spec.axis_x}, {spec.axis_y}) "
            f"of {q} components"
        )
    return spec.axis_x - 1, spec.axis_y - 1


def _escape(text: str) -> str:
    """XML-escape as ``xml.sax.saxutils.escape(text, {"\\r": "&#13;"})`` does
    (importing it loads the network stack); a bare CR would read back as LF."""
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\r", "&#13;"))


def _figure(spec: PlotSpec, origin: tuple[float, float], names: tuple[str, str],
            extra: list[str], rows: tuple[str, ...], rects, marks,
            anchor: str) -> str:
    """The one figure body of both plots: header and title, axis lines
    crossing at ``origin``, ``extra`` elements, the axis ``names``, then one
    palette-coloured rectangle per row from the arrays ``rects`` (x, y, width,
    height), labelled at ``marks`` (x, y) with text anchor ``anchor``.

    Numbers are written by ``repr`` of Python floats, so ``origin`` must hold
    Python floats."""
    texts = (spec.title, *names, *rows)
    if _NOT_XML_CHAR.search("".join(texts)):
        bad = next(t for t in texts if _NOT_XML_CHAR.search(t))
        raise DataError(
            f"cannot write {bad!r} to SVG: it holds a character XML 1.0 does not allow"
        )
    ox, oy = origin
    size = float(VIEWPORT_SIZE)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT_SIZE}" height="{VIEWPORT_SIZE}" '
        f'viewBox="0 0 {VIEWPORT_SIZE} {VIEWPORT_SIZE}">',
    ]
    if spec.title:
        parts.append(
            f'<text x="{size / 2!r}" y="16" text-anchor="middle" '
            f'{_FONT}>{_escape(spec.title)}</text>'
        )
    parts.append(
        f'<line x1="0.0" y1="{oy!r}" x2="{size!r}" y2="{oy!r}" {_AXIS}/>\n'
        f'<line x1="{ox!r}" y1="0.0" x2="{ox!r}" y2="{size!r}" {_AXIS}/>'
    )
    parts.extend(extra)
    parts.append(
        f'<text x="{size - 4.0!r}" y="{oy - 6.0!r}" text-anchor="end" {_FONT} '
        f'fill="#444444">{_escape(names[0])}</text>\n'
        f'<text x="{ox + 6.0!r}" y="14.0" text-anchor="start" {_FONT} '
        f'fill="#444444">{_escape(names[1])}</text>'
    )
    parts.extend(
        f'<rect x="{x!r}" y="{y!r}" width="{w!r}" height="{h!r}" fill="none" '
        f'stroke="{color}" stroke-width="1.5"/>\n'
        f'<text x="{tx!r}" y="{ty!r}" text-anchor="{anchor}" {_FONT} '
        f'fill="{color}">{_escape(name)}</text>'
        for name, color, (x, y, w, h, tx, ty) in zip(
            rows, cycle(PALETTE), np.column_stack((*rects, *marks)).tolist())
    )
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
        f'<circle cx="{cx!r}" cy="{cy!r}" r="{radius!r}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    rects = (cx + radius * x_lo, cy - radius * y_hi,
             radius * (x_hi - x_lo), radius * (y_hi - y_lo))
    marks = (cx + radius * ((x_lo + x_hi) / 2.0),
             cy - radius * ((y_lo + y_hi) / 2.0))
    return _figure(spec, (cx, cy), (correlations.cols[jx], correlations.cols[jy]),
                   [circle], correlations.rows, rects, marks, "middle")


def _plane_axis(scores: IntervalMatrix, j: int):
    """Column j's score bounds times 2**-k, and the padded range that maps
    onto the viewport: the bounding box plus 5% of its span on each side.
    k = max(0, e - 1000), e the exponent of the largest |bound|, so 600 times
    the span stays finite; 2**-k is exact in the normal range, and k = 0
    below 2**1000."""
    lo, hi = scores.lo[:, j], scores.hi[:, j]
    k = max(0, math.frexp(max(-lo.min(), hi.max()))[1] - 1000)
    lo, hi = np.ldexp(lo, -k), np.ldexp(hi, -k)
    v_min, v_max = float(lo.min()), float(hi.max())
    # A degenerate span would collapse the affine map; give it unit room.
    pad = PLANE_PADDING_FRACTION * (v_max - v_min) if v_max > v_min else 0.5
    return lo, hi, v_min - pad, v_max + pad


def render_plane(scores: IntervalMatrix, spec: PlotSpec) -> str:
    """Render objects as rectangles over their score intervals on two
    components; the data box is padded 5% per axis, axes cross at zero."""
    jx, jy = _axis_columns(scores, spec)
    if len(scores.rows) == 0:
        raise DataError("cannot render an empty table")
    x_lo, x_hi, x0, x1 = _plane_axis(scores, jx)
    y_lo, y_hi, y0, y1 = _plane_axis(scores, jy)

    def sx(value: float) -> float:
        return (value - x0) * VIEWPORT_SIZE / (x1 - x0)

    def sy(value: float) -> float:
        return (y1 - value) * VIEWPORT_SIZE / (y1 - y0)

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
