from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sympca import (
    DataError,
    IntervalMatrix,
    PlotSpec,
    clamp_correlations,
    pca_auto,
    render_circle,
    render_plane,
)
from sympca.render import _NOT_XML_CHAR, _escape

SVG_NS = "{http://www.w3.org/2000/svg}"


def _rects(svg: str) -> list[dict]:
    root = ET.fromstring(svg)
    return [r.attrib for r in root.iter(f"{SVG_NS}rect")]


class TestPlotSpec:
    def test_defaults(self):
        spec = PlotSpec()
        assert spec.axis_x == 1 and spec.axis_y == 2
        assert [f.name for f in dataclasses.fields(PlotSpec)] == ["axis_x", "axis_y", "title"]

    def test_same_axes_rejected(self):
        with pytest.raises(DataError, match="must differ"):
            PlotSpec(axis_x=2, axis_y=2)

    def test_nonpositive_axis_rejected(self):
        with pytest.raises(DataError, match="1-based"):
            PlotSpec(axis_x=0, axis_y=1)

    @pytest.mark.parametrize("axis_x", [1.5, "1", True])
    def test_non_integer_axis_rejected(self, axis_x):
        with pytest.raises(DataError) as info:
            PlotSpec(axis_x, 2)
        assert str(info.value) == (
            f"component indices must be integers, got ({axis_x!r}, 2)"
        )

    def test_numpy_integer_axes_accepted(self, oils):
        spec = PlotSpec(np.int64(1), np.int64(2))
        assert render_plane(oils, spec) == render_plane(oils, PlotSpec())


class TestRenderCircle:
    def _table(self, lo, hi, rows=None):
        lo = np.asarray(lo, dtype=float)
        rows = rows or tuple(f"var{i}" for i in range(lo.shape[0]))
        return IntervalMatrix(rows, ("PC1", "PC2"), lo, hi)

    def test_affine_map_anchor(self):
        # with a 600x600 canvas, correlation 1.0 lands at 300 + 252 = 552
        t = self._table([[1.0, 0.0]], [[1.0, 0.5]])
        rects = _rects(render_circle(t, PlotSpec()))
        assert float(rects[0]["x"]) == pytest.approx(552.0)

    def test_full_diameter_rectangle(self):
        t = self._table([[-1.0, 0.0]], [[1.0, 0.1]])
        rects = _rects(render_circle(t, PlotSpec()))
        assert float(rects[0]["x"]) == pytest.approx(48.0)
        assert float(rects[0]["width"]) == pytest.approx(504.0)  # 2 * 252

    def test_inverse_affine_recovers_intervals(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-1, 0.5, size=(6, 2))
        hi = lo + rng.uniform(0, 0.4, size=(6, 2))
        t = self._table(lo, np.clip(hi, None, 1.0))
        spec = PlotSpec()
        radius = 252.0
        cx, cy = 300.0, 300.0
        for i, rect in enumerate(_rects(render_circle(t, spec))):
            x = float(rect["x"])
            y = float(rect["y"])
            w = float(rect["width"])
            h = float(rect["height"])
            assert (x - cx) / radius == pytest.approx(t.lo[i, 0], abs=1e-9)
            assert (x + w - cx) / radius == pytest.approx(t.hi[i, 0], abs=1e-9)
            assert (cy - y) / radius == pytest.approx(t.hi[i, 1], abs=1e-9)
            assert (cy - (y + h)) / radius == pytest.approx(t.lo[i, 1], abs=1e-9)

    def test_geometry_stays_in_viewport(self, oils):
        res = pca_auto(oils)
        svg = render_circle(clamp_correlations(res.correlations), PlotSpec())
        root = ET.fromstring(svg)
        for rect in root.iter(f"{SVG_NS}rect"):
            x, y = float(rect.get("x")), float(rect.get("y"))
            w, h = float(rect.get("width")), float(rect.get("height"))
            assert 0 <= x <= x + w <= 600
            assert 0 <= y <= y + h <= 600
        circle = next(root.iter(f"{SVG_NS}circle"))
        assert float(circle.get("r")) == pytest.approx(252.0)

    def test_unclamped_input_rejected(self):
        t = self._table([[-1.2, 0.0]], [[0.0, 0.5]])
        with pytest.raises(DataError, match="clamped"):
            render_circle(t, PlotSpec())

    def test_axis_out_of_range(self):
        t = self._table([[0.0, 0.0]], [[0.5, 0.5]])
        with pytest.raises(DataError, match="axis out of range"):
            render_circle(t, PlotSpec(axis_x=1, axis_y=3))

    def test_deterministic_output(self, oils):
        res = pca_auto(oils)
        clamped = clamp_correlations(res.correlations)
        spec = PlotSpec(title="circle")
        assert render_circle(clamped, spec) == render_circle(clamped, spec)

    def test_label_and_title_escaped(self):
        t = self._table([[0.0, 0.0]], [[0.5, 0.5]], rows=("<weird&name>",))
        svg = render_circle(t, PlotSpec(title="A&B"))
        assert "&lt;weird&amp;name&gt;" in svg
        assert "A&amp;B" in svg


@given(st.text(alphabet=st.sampled_from("&<>;amplgt#x \"'") | st.characters()))
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text, {"\r": "&#13;"})


class TestRenderPlane:
    def _scores(self):
        lo = np.array([[1.275, -1.353], [-3.046, 0.234]])
        hi = np.array([[4.733, 4.428], [-2.226, 1.162]])
        return IntervalMatrix(("Linseed", "Beef"), ("PC1", "PC2"), lo, hi)

    def test_inverse_affine_recovers_intervals(self):
        t = self._scores()
        spec = PlotSpec()
        x_min, x_max = t.lo[:, 0].min(), t.hi[:, 0].max()
        y_min, y_max = t.lo[:, 1].min(), t.hi[:, 1].max()
        x_pad, y_pad = 0.05 * (x_max - x_min), 0.05 * (y_max - y_min)
        x0, x1 = x_min - x_pad, x_max + x_pad
        y0, y1 = y_min - y_pad, y_max + y_pad

        def inv_x(sx):
            return x0 + sx * (x1 - x0) / 600

        def inv_y(sy):
            return y1 - sy * (y1 - y0) / 600

        for i, rect in enumerate(_rects(render_plane(t, spec))):
            x, y = float(rect["x"]), float(rect["y"])
            w, h = float(rect["width"]), float(rect["height"])
            assert inv_x(x) == pytest.approx(t.lo[i, 0], abs=1e-9)
            assert inv_x(x + w) == pytest.approx(t.hi[i, 0], abs=1e-9)
            assert inv_y(y) == pytest.approx(t.hi[i, 1], abs=1e-9)
            assert inv_y(y + h) == pytest.approx(t.lo[i, 1], abs=1e-9)

    def test_degenerate_row_gets_marker(self):
        t = IntervalMatrix(
            ("pt", "box"), ("PC1", "PC2"),
            [[0.5, 0.5], [-1.0, -1.0]], [[0.5, 0.5], [0.0, 0.0]],
        )
        rects = _rects(render_plane(t, PlotSpec()))
        assert float(rects[0]["width"]) == 2.0
        assert float(rects[0]["height"]) == 2.0
        assert float(rects[1]["width"]) > 2.0

    def test_deterministic_output(self, oils):
        scores = pca_auto(oils).scores
        spec = PlotSpec(axis_x=1, axis_y=2)
        assert render_plane(scores, spec) == render_plane(scores, spec)

    def test_axis_selection(self, oils):
        scores = pca_auto(oils).scores
        svg = render_plane(scores, PlotSpec(axis_x=3, axis_y=4))
        assert ">PC3<" in svg and ">PC4<" in svg

    def test_axis_out_of_range(self, oils):
        scores = pca_auto(oils).scores
        with pytest.raises(DataError, match="axis out of range"):
            render_plane(scores, PlotSpec(axis_x=1, axis_y=5))

    def test_empty_table_rejected(self):
        t = IntervalMatrix((), ("PC1", "PC2"), np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(DataError, match="empty"):
            render_plane(t, PlotSpec())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Bytes as rendered before the plane's coordinates were computed as arrays.
# The inputs are exact data, not PCA results, so no eigensolver rounding
# reaches them.
class TestRenderPlaneBytes:
    def test_oils(self, oils):
        svg = render_plane(oils, PlotSpec())
        assert _sha256(svg) == (
            "6d549ca1fde1cb80343a2dfcd9a1f4e0fa1231d1aaef75d4432d93fd7889307b"
        )

    def test_unlabelled_with_title(self, oils):
        # Also the bytes from before the viewport size was fixed at 600 x 600.
        spec = PlotSpec(axis_x=3, axis_y=1, title="A&B <plane>")
        assert _sha256(render_plane(oils, spec)) == (
            "33ab8c183fbd8c87991931efe7b4b6e454d9883ec18b8b4de79b34602c0ec65e"
        )

    def test_degenerate_row(self):
        t = IntervalMatrix(
            ("pt", "box"), ("PC1", "PC2"),
            [[0.5, 0.5], [-1.0, -1.0]], [[0.5, 0.5], [0.0, 0.0]],
        )
        assert render_plane(t, PlotSpec()) == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="600" '
            'height="600" viewBox="0 0 600 600">\n'
            '<line x1="0.0" y1="209.0909090909091" x2="600.0" y2="209.0909090909091" '
            'stroke="#999999" stroke-width="1"/>\n'
            '<line x1="390.90909090909093" y1="0.0" x2="390.90909090909093" y2="600.0" '
            'stroke="#999999" stroke-width="1"/>\n'
            '<text x="596.0" y="203.0909090909091" text-anchor="end" '
            'font-family="sans-serif" font-size="12" fill="#444444">PC1</text>\n'
            '<text x="396.90909090909093" y="14.0" text-anchor="start" '
            'font-family="sans-serif" font-size="12" fill="#444444">PC2</text>\n'
            '<rect x="571.7272727272727" y="26.272727272727256" width="2.0" height="2.0" '
            'fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
            '<text x="575.7272727272727" y="24.272727272727256" text-anchor="start" '
            'font-family="sans-serif" font-size="12" fill="#1f77b4">pt</text>\n'
            '<rect x="27.272727272727256" y="209.0909090909091" width="363.6363636363637" '
            'height="363.6363636363636" fill="none" stroke="#d62728" stroke-width="1.5"/>\n'
            '<text x="393.90909090909093" y="206.0909090909091" text-anchor="start" '
            'font-family="sans-serif" font-size="12" fill="#d62728">box</text>\n'
            "</svg>\n"
        )


def _circle_table() -> IntervalMatrix:
    # Exact data inside [-1, 1]: integer quotients, correctly rounded on any
    # platform; 13 rows wrap the palette, and one label needs escaping.
    i = np.arange(13.0)
    lo = np.column_stack([(i * 37 % 150 - 100) / 100, (i * 53 % 120 - 90) / 100,
                          -i / 13])
    hi = lo + np.column_stack([(i % 5) / 10, (i % 3) / 8, i / 26])
    rows = tuple(f"v{k}" for k in range(12)) + ("a<b&c",)
    return IntervalMatrix(rows, ("PC1", "PC2", "PC3"), lo, hi)


# Bytes as rendered by the circle's per-row loop, before the two plots shared
# one figure body.
class TestRenderCircleBytes:
    def test_default_spec(self):
        assert _sha256(render_circle(_circle_table(), PlotSpec())) == (
            "682c86deb88b1f2c353878ead99e01f09101f92c09510e308154d9a5d6581d5d"
        )

    def test_unlabelled_with_title(self):
        # Also the bytes from before the viewport size was fixed at 600 x 600.
        spec = PlotSpec(axis_x=3, axis_y=1, title="A&B <circle>")
        assert _sha256(render_circle(_circle_table(), spec)) == (
            "a8b0c455351d04eeaf3237b2831eb0ea18cf61507145733c38fa6bd27e7e3e45"
        )


# Any text XML 1.0 can hold: its Char production.
_XML_TEXT = st.text(st.one_of(
    st.sampled_from("\t\n\r"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000),
), max_size=6)

_NUMERIC_ATTRIBUTES = ("x", "y", "width", "height", "x1", "y1", "x2", "y2",
                       "cx", "cy", "r")


@st.composite
def _wide_tables(draw):
    """Tables whose column x has midpoints within 1e-150 of 0 and one cell
    [-h, h], h from 1e155 to 1e157: pca_auto's score bounds then reach about
    1e305 to 1e307, where 600 times an axis span overflows."""
    m = draw(st.integers(3, 6))
    rows = draw(st.lists(_XML_TEXT, min_size=m, max_size=m, unique=True))
    cols = draw(st.lists(_XML_TEXT, min_size=2, max_size=2, unique=True))
    mids = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    half = draw(st.floats(1e155, 1e157))
    other = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m, unique=True))
    lo = np.column_stack([np.multiply(mids, 1e-150), other])
    hi = lo.copy()
    lo[-1, 0], hi[-1, 0] = -half, half
    return IntervalMatrix(rows, cols, lo, hi)


@settings(deadline=None, max_examples=60)
@given(_wide_tables(), _XML_TEXT)
# The 4x2 table of a cell [-1e155, 1e155] among midpoints 0, 1e-150, 0.
@example(IntervalMatrix(
    ("a", "b", "c", "d"), ("x", "y"),
    [[0.0, 1.0], [1e-150, 3.0], [0.0, 2.0], [-1e155, 4.0]],
    [[0.0, 1.0], [1e-150, 3.0], [0.0, 2.0], [1e155, 4.0]],
), "")
def test_plots_parse_with_finite_coordinates(table, title):
    # Whatever pca_auto answers with two components, both plots are XML with
    # finite numbers (nearly collinear columns can leave only one).
    try:
        res = pca_auto(table)
    except DataError:
        reject()
    if len(res.scores.cols) < 2:
        reject()
    spec = PlotSpec(title=title)
    for svg in (render_plane(res.scores, spec),
                render_circle(clamp_correlations(res.correlations), spec)):
        for element in ET.fromstring(svg).iter():
            for name in _NUMERIC_ATTRIBUTES:
                if name in element.attrib:
                    assert math.isfinite(float(element.attrib[name])), (element.tag, name)


@pytest.mark.parametrize("render, rows, cols, title, bad", [
    (render_plane, ("a\x01b", "c"), ("PC1", "PC2"), "", "a\x01b"),
    (render_circle, ("a", "c"), ("PC1", "x\ufffey"), "", "x\ufffey"),
    (render_circle, ("a", "c"), ("PC1", "PC2"), "t\ud800", "t\ud800"),
    (render_plane, ("a", "c"), ("PC1", "PC2"), "\uffff", "\uffff"),
], ids=["row-label-control", "column-name-fffe", "title-lone-surrogate",
        "title-ffff"])
def test_text_xml_cannot_hold_refused(render, rows, cols, title, bad):
    t = IntervalMatrix(rows, cols, [[0.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(DataError) as info:
        render(t, PlotSpec(title=title))
    assert str(info.value) == (
        f"cannot write {bad!r} to SVG: it holds a character XML 1.0 does not allow"
    )


def test_not_xml_char_matches_negated_char_class():
    # The XML 1.0 Char production as a negated class, over every code point.
    char = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _NOT_XML_CHAR.findall(every) == char.findall(every)


def test_carriage_returns_read_back():
    t = IntervalMatrix(("a\rb", "c", "d"), ("x\r\ny", "z"),
                       [[0.0, 1.0], [1.0, 3.0], [2.0, 2.0]],
                       [[1.0, 2.0], [3.0, 3.5], [2.5, 4.0]])
    res = pca_auto(t)
    spec = PlotSpec(title="t\r1\r")
    for svg, label in ((render_plane(res.scores, spec), "a\rb"),
                       (render_circle(clamp_correlations(res.correlations), spec), "x\r\ny")):
        texts = [e.text for e in ET.fromstring(svg).iter(f"{SVG_NS}text")]
        assert "t\r1\r" in texts and label in texts
