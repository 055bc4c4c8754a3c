from __future__ import annotations

import csv
import io
import itertools
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympca import (
    ClassicTable,
    DataError,
    IntervalMatrix,
    aggregate_classic,
    parse_classic_csv,
    parse_interval_csv,
    write_interval_csv,
)
from sympca import tableio
from sympca.tableio import _PAIR_RE


class TestParseIntervalCsv:
    def test_bracket_cells(self):
        text = ',GRA,FRE\nLinseed,"[0.93,0.935]","[-27,-18]"\n'
        t = parse_interval_csv(text)
        assert t.rows == ("Linseed",) and t.cols == ("GRA", "FRE")
        assert (t.lo[0, 0], t.hi[0, 0]) == (0.93, 0.935)
        assert (t.lo[0, 1], t.hi[0, 1]) == (-27.0, -18.0)

    def test_degenerate_cell(self):
        t = parse_interval_csv(',a\nr,"[5,5]"\n')
        assert (t.lo[0, 0], t.hi[0, 0]) == (5.0, 5.0)

    def test_inverted_cell_with_position(self):
        with pytest.raises(DataError, match=r"row 'r'.*column 'a'"):
            parse_interval_csv(',a\nr,"[2,1]"\n')

    def test_malformed_cell_with_position(self):
        with pytest.raises(DataError, match=r"malformed.*row 'r'.*column 'b'"):
            parse_interval_csv(',a,b\nr,"[1,2]",oops\n')

    def test_scientific_notation_and_whitespace(self):
        t = parse_interval_csv(',a\nr," [ 1e-3 , 2.5E+2 ] "\n')
        assert (t.lo[0, 0], t.hi[0, 0]) == (1e-3, 250.0)

    def test_crlf_accepted(self):
        t = parse_interval_csv(',a\r\nr,"[1,2]"\r\n')
        assert (t.lo[0, 0], t.hi[0, 0]) == (1.0, 2.0)

    def test_ragged_row(self):
        with pytest.raises(DataError, match="ragged row 'r'"):
            parse_interval_csv(',a,b\nr,"[1,2]"\n')

    def test_duplicate_row_label(self):
        with pytest.raises(DataError, match="duplicate row label"):
            parse_interval_csv(',a\nr,"[1,2]"\nr,"[3,4]"\n')

    def test_header_only_gives_empty_table(self):
        t = parse_interval_csv(",a,b\n")
        assert t.shape == (0, 2)

    def test_no_header(self):
        with pytest.raises(DataError, match="empty input"):
            parse_interval_csv("")

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            parse_interval_csv(',a\nr,"[-inf,2]"\n')


class TestPairedColumnLayout:
    def test_equivalent_to_bracket_form(self):
        paired = ",x.lo,x.hi,y.lo,y.hi\nr1,0,1,5,6\nr2,-2,-1,0,0\n"
        t = parse_interval_csv(paired)
        assert t.cols == ("x", "y")
        assert (t.lo[0, 0], t.hi[0, 0]) == (0.0, 1.0)
        assert (t.lo[1, 1], t.hi[1, 1]) == (0.0, 0.0)

    def test_incomplete_pair(self):
        with pytest.raises(DataError, match="incomplete bound pair"):
            parse_interval_csv(",x.lo,x.hi,y.lo\nr,0,1,2\n")

    def test_inverted_pair_cell(self):
        with pytest.raises(DataError, match="lower bound exceeds"):
            parse_interval_csv(",x.lo,x.hi\nr,3,1\n")


class TestWriteIntervalCsv:
    def test_round_trip_oils(self, oils):
        assert parse_interval_csv(write_interval_csv(oils)) == oils

    def test_round_trip_17_digit_values(self):
        lo = np.array([[0.1 + 0.2, -1e-17]])
        hi = np.array([[1.0 / 3.0, 2e300]])
        t = IntervalMatrix(("r",), ("a", "b"), lo, hi)
        assert parse_interval_csv(write_interval_csv(t)) == t

    def test_empty_rows_gives_header_only(self):
        t = IntervalMatrix((), ("a", "b"), np.zeros((0, 2)), np.zeros((0, 2)))
        assert write_interval_csv(t) == ",a,b\n"

    def test_degenerate_cells_form(self):
        t = IntervalMatrix(("r",), ("a",), [[3.0]], [[3.0]])
        assert '"[3.0,3.0]"' in write_interval_csv(t)

    @pytest.mark.parametrize(
        "rows,cols",
        [((), ("\r",)), ((), ("\r0",)), ((), ("", "\r")), (("a\rb", "c"), ("x\r\ny",))],
    )
    def test_round_trip_carriage_return_labels(self, rows, cols):
        grid = np.arange(len(rows) * len(cols), dtype=float).reshape(len(rows), len(cols))
        t = IntervalMatrix(rows, cols, grid, grid + 1.0)
        assert parse_interval_csv(write_interval_csv(t)) == t

    def test_lf_line_endings(self):
        t = IntervalMatrix(("r",), ("a",), [[0.0]], [[1.0]])
        out = write_interval_csv(t)
        assert "\r" not in out and out.endswith("\n")

    # Bytes as written before the cells were formatted outside csv.
    @pytest.mark.parametrize(
        "table,expected",
        [
            (
                IntervalMatrix(
                    ("a,b", 'say "hi"', "line\nfeed", "bare\rcr", "", " lead", "Öl 油"),
                    ("x", 'q"c'),
                    [[-1.5, 0.1 + 0.2], [0.0, -0.0], [1e-300, 2.5], [-3.0, 1.0 / 3.0],
                     [5e-324, 1e22], [-2.0, 7.0], [0.5, 0.25]],
                    [[-0.5, 1.3], [1.0, 1.0], [1.0, 3.5],
                     [-2.0, 1.3333333333333333], [1.0, 1e22], [-1.0, 8.0], [1.5, 1.25]],
                ),
                ',x,"q""c"\n"a,b","[-1.5,-0.5]","[0.30000000000000004,1.3]"\n'
                '"say ""hi""","[0.0,1.0]","[-0.0,1.0]"\n"line\nfeed","[1e-300,1.0]","[2.5,3.5]"\n'
                '"bare\rcr","[-3.0,-2.0]","[0.3333333333333333,1.3333333333333333]"\n'
                ',"[5e-324,1.0]","[1e+22,1e+22]"\n lead,"[-2.0,-1.0]","[7.0,8.0]"\n'
                'Öl 油,"[0.5,1.5]","[0.25,1.25]"\n',
            ),
            (
                IntervalMatrix(("r", "", "c\rr", " "), (), np.zeros((4, 0)), np.zeros((4, 0))),
                '""\nr\n""\n"c\rr"\n \n',
            ),
            (
                IntervalMatrix(("r", "s\rt"), ("a\rb", "c"), [[0.0, 1.0], [2.0, 3.0]],
                               [[1.0, 1.0], [2.0, 4.0]]),
                '"","a\rb","c"\nr,"[0.0,1.0]","[1.0,1.0]"\n"s\rt","[2.0,2.0]","[3.0,4.0]"\n',
            ),
        ],
        ids=["labels", "no-columns", "cr-header"],
    )
    def test_pinned_bytes(self, table, expected):
        assert write_interval_csv(table) == expected


class TestParseClassicCsv:
    def test_numeric_table(self):
        t = parse_classic_csv(",a,b\n1,1.5,2\n2,3,4\n")
        assert t.rows == ("1", "2") and t.cols == ("a", "b")
        assert np.allclose(t.values, [[1.5, 2], [3, 4]])

    def test_concept_column_kept_as_text(self):
        t = parse_classic_csv(",state,x\n1,CA,0.5\n2,NV,0.7\n", concept="state")
        assert t.concept == "state"
        assert t.concept_labels == ("CA", "NV")
        assert t.cols == ("x",)

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(DataError, match=r"malformed number.*column 'a'"):
            parse_classic_csv(",a\nr,hello\n")

    def test_missing_concept(self):
        with pytest.raises(DataError, match="not found"):
            parse_classic_csv(",a\nr,1\n", concept="state")


class TestClassicTable:
    @pytest.mark.parametrize("values, concept, message", [
        ([[1.0, 2.0]], None, "value grid shape (1, 2) does not match labels (1, 1)"),
        ([[np.inf]], None, "classic table contains non-finite entries"),
        ([[1.0]], "s", "concept labels must cover every row"),
    ])
    def test_direct_construction_checked(self, values, concept, message):
        with pytest.raises(DataError) as info:
            ClassicTable(("r",), ("x",), values, concept=concept)
        assert str(info.value) == message


def _aggregate_by_loop(table):
    """Reference: one fancy-indexed block per group, in first-appearance order."""
    members: dict[str, list[int]] = {}
    for i, key in enumerate(table.concept_labels):
        members.setdefault(key, []).append(i)
    lo = np.array([table.values[rows].min(axis=0) for rows in members.values()])
    hi = np.array([table.values[rows].max(axis=0) for rows in members.values()])
    return tuple(members), table.cols, lo, hi


class TestAggregateClassic:
    def _table(self):
        return ClassicTable(
            rows=("1", "2", "3", "4"),
            cols=("x", "y"),
            values=np.array([[3.0, 10.0], [5.0, 20.0], [4.0, 30.0], [7.0, 5.0]]),
            concept="g",
            concept_labels=("a", "a", "a", "b"),
        )

    def test_min_max_per_group(self):
        out = aggregate_classic(self._table(), "g")
        assert out.rows == ("a", "b")
        assert (out.lo[0, 0], out.hi[0, 0]) == (3.0, 5.0)
        assert (out.lo[0, 1], out.hi[0, 1]) == (10.0, 30.0)

    def test_singleton_group(self):
        out = aggregate_classic(self._table(), "g")
        assert (out.lo[1, 0], out.hi[1, 0]) == (7.0, 7.0)

    def test_first_appearance_order(self):
        t = ClassicTable(
            rows=("1", "2", "3"),
            cols=("x",),
            values=np.array([[1.0], [2.0], [3.0]]),
            concept="g",
            concept_labels=("z", "a", "z"),
        )
        out = aggregate_classic(t, "g")
        assert out.rows == ("z", "a")
        assert (out.lo[0, 0], out.hi[0, 0]) == (1.0, 3.0)

    def test_all_distinct_gives_degenerate_cells(self):
        t = ClassicTable(
            rows=("1", "2"),
            cols=("x", "y"),
            values=np.array([[1.0, 2.0], [3.0, 4.0]]),
            concept="g",
            concept_labels=("p", "q"),
        )
        out = aggregate_classic(t, "g")
        assert np.array_equal(out.lo, out.hi)
        assert np.array_equal(out.lo, t.values)

    def test_members_contained(self):
        t = self._table()
        out = aggregate_classic(t, "g")
        group_row = {key: g for g, key in enumerate(out.rows)}
        for i, key in enumerate(t.concept_labels):
            g = group_row[key]
            for j in range(len(t.cols)):
                assert out.lo[g, j] <= t.values[i, j] <= out.hi[g, j]

    def test_numeric_concept_column_refused(self):
        # Grouping is by the text of the designated concept column, so "0",
        # "-0" and "0.0" are three concepts, as in `sympca aggregate --by`.
        text = ",state,x\n1,0,0.5\n2,-0,0.7\n3,0.0,0.1\n4,0,0.2\n"
        with pytest.raises(DataError, match=r"column 'state' is numeric data, not the "
                           r"concept column: parse the file with concept='state'"):
            aggregate_classic(parse_classic_csv(text), "state")
        out = aggregate_classic(parse_classic_csv(text, concept="state"), "state")
        assert out.rows == ("0", "-0", "0.0")
        assert out.cols == ("x",)
        assert (out.lo[0, 0], out.hi[0, 0]) == (0.2, 0.5)

    def test_missing_concept(self):
        with pytest.raises(DataError, match="not found"):
            aggregate_classic(self._table(), "nope")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_group_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        values = rng.normal(size=(m, 4))
        keys = tuple(f"g{k}" for k in rng.integers(0, 9, m))
        t = ClassicTable(
            tuple(map(str, range(m))), ("k", "x", "y", "z"), values,
            concept="g", concept_labels=keys,
        )
        got = aggregate_classic(t, "g")
        rows, cols, lo, hi = _aggregate_by_loop(t)
        assert got.rows == rows and got.cols == cols
        assert np.array_equal(got.lo, lo) and np.array_equal(got.hi, hi)

    def test_zero_ends_signed_as_ieee_minimum_maximum(self):
        # Groups of 0.0, -0.0, 1.0 and -1.0: a zero minimum is -0.0 when the
        # group holds a -0.0, and a zero maximum is 0.0 when it holds a 0.0.
        rng = np.random.default_rng(5)
        m, n = 2000, 12
        values = rng.choice([0.0, -0.0, 1.0, -1.0], size=(m, n))
        keys = tuple(f"g{k}" for k in rng.integers(0, 300, m))
        t = ClassicTable(
            tuple(map(str, range(m))), tuple(f"c{j}" for j in range(n)), values,
            concept="g", concept_labels=keys,
        )
        members: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            members.setdefault(key, []).append(i)
        lo = np.empty((len(members), n))
        hi = np.empty_like(lo)
        for g, rows in enumerate(members.values()):
            for j in range(n):
                cells = [float(values[i, j]) for i in rows]
                signs = {math.copysign(1.0, c) for c in cells if c == 0.0}
                low, high = min(cells), max(cells)
                if low == 0.0:
                    low = -0.0 if -1.0 in signs else 0.0
                if high == 0.0:
                    high = 0.0 if 1.0 in signs else -0.0
                lo[g, j], hi[g, j] = low, high
        got = aggregate_classic(t, "g")
        assert got.rows == tuple(members)
        assert got.lo.tobytes() == lo.tobytes()
        assert got.hi.tobytes() == hi.tobytes()

    def test_single_row_groups_match_loop(self):
        t = ClassicTable(
            ("1", "2", "3"), ("x",), np.array([[2.0], [-1.0], [5.0]]),
            concept="g", concept_labels=("b", "a", "b"),
        )
        got = aggregate_classic(t, "g")
        rows, cols, lo, hi = _aggregate_by_loop(t)
        assert got.rows == rows == ("b", "a")
        assert np.array_equal(got.lo, lo) and np.array_equal(got.hi, hi)

    def test_empty_input(self):
        empty = ClassicTable(rows=(), cols=("x",), values=np.zeros((0, 1)))
        with pytest.raises(DataError, match="empty"):
            aggregate_classic(empty, "x")


# Each message is what a cell-by-cell parse raises: the first bad cell in
# record order wins, and within a record a ragged length comes first.
INTERVAL_ERRORS = [
    (',a,b\nr,"[1,2]",oops\n',
     "malformed interval cell 'oops' at (row 'r', column 'b')"),
    (',a\nr,"[1,x]"\n', "malformed number 'x' at (row 'r', column 'a')"),
    (',a\nr,"[nan,2]"\n', "non-finite number 'nan' at (row 'r', column 'a')"),
    (',a\nr,"[1,inf]"\n', "non-finite number 'inf' at (row 'r', column 'a')"),
    (',a\nr,"[0,1e999]"\n', "non-finite number '1e999' at (row 'r', column 'a')"),
    (',a\nr,"[2,1]"\n', "lower bound exceeds upper bound at (row 'r', column 'a')"),
    (',a\nr,"[x,nan]"\n', "malformed number 'x' at (row 'r', column 'a')"),
    (',a\nr,"[nan,x]"\n', "non-finite number 'nan' at (row 'r', column 'a')"),
    (',a,b\nr,"[2,1]",bad\n',
     "lower bound exceeds upper bound at (row 'r', column 'a')"),
    (',a\nr,"[1,2]"\nr2,"[-inf,0]"\n',
     "non-finite number '-inf' at (row 'r2', column 'a')"),
    (',a,b\nr1,"[1,2]",bad\nr2,"[1,2]"\n',
     "malformed interval cell 'bad' at (row 'r1', column 'b')"),
    (',a,b\nr1,"[1,2]"\nr2,"[1,2]",bad\n', "ragged row 'r1': expected 3 fields, got 2"),
    (',a\n"r,1",bad\n', "malformed interval cell 'bad' at (row 'r,1', column 'a')"),
    (',a\n"say ""hi""","[1,-1]"\n',
     "lower bound exceeds upper bound at (row 'say \"hi\"', column 'a')"),
    (',a\nÖl,"[1,2,3]"\n', "malformed interval cell '[1,2,3]' at (row 'Öl', column 'a')"),
    (",x.lo,x.hi\nr,0,abc\n", "malformed number 'abc' at (row 'r', column 'x')"),
    (",x.lo,x.hi\nr,nan,1\n", "non-finite number 'nan' at (row 'r', column 'x')"),
    (",x.lo,x.hi\nr,3,1\n", "lower bound exceeds upper bound at (row 'r', column 'x')"),
    (",x.hi,x.lo\nr,1,2\n", "lower bound exceeds upper bound at (row 'r', column 'x')"),
    (",x.lo,x.hi\nr,0\n", "ragged row 'r': expected 3 fields, got 2"),
    (",x.lo,x.hi,y.lo,y.hi\nr1,0,1,2,bad\nr2,0,1\n",
     "malformed number 'bad' at (row 'r1', column 'y')"),
    (",x.lo,x.hi,y.lo,y.hi\nr1,0,1,2,1e999\n",
     "non-finite number '1e999' at (row 'r1', column 'y')"),
    # A plain cell may not be padded with \x1c-\x1f, which float() keeps,
    # on either path: a bracket bound may (see TestValidEdgeInputs).
    (",x.lo,x.hi\nr,\x1c1,2\n", "malformed number '\\x1c1' at (row 'r', column 'x')"),
    (',x.lo,x.hi\n"r",\x1c1,2\n', "malformed number '\\x1c1' at (row 'r', column 'x')"),
]

CLASSIC_ERRORS = [
    (",a\nr,hello\n", None, "malformed number 'hello' at (row 'r', column 'a')"),
    (",a\nr,nan\n", None, "non-finite number 'nan' at (row 'r', column 'a')"),
    (",a,b\nr,1,-inf\n", None, "non-finite number '-inf' at (row 'r', column 'b')"),
    (",a\nr,1e999\n", None, "non-finite number '1e999' at (row 'r', column 'a')"),
    (",a\nr,\n", None, "malformed number '' at (row 'r', column 'a')"),
    (",state,a\nr,CA,hello\n", "state",
     "malformed number 'hello' at (row 'r', column 'a')"),
    (",a,b\nr1,1,bad\nr2,1\n", None, "malformed number 'bad' at (row 'r1', column 'b')"),
    (",a,b\nr1,1\nr2,1,bad\n", None, "ragged row 'r1': expected 3 fields, got 2"),
    (",a,b\nr1,1,2\nr2,1,2,3\n", None, "ragged row 'r2': expected 3 fields, got 4"),
    (",state\nr1,a\n", "state", "no data column left: every column is the concept or excluded"),
    (",a\nr,\x1c1\n", None, "malformed number '\\x1c1' at (row 'r', column 'a')"),
    (',a\n"r",\x1c1\n', None, "malformed number '\\x1c1' at (row 'r', column 'a')"),
]


class TestErrorParity:
    @pytest.mark.parametrize("text,message", INTERVAL_ERRORS)
    def test_interval_message(self, text, message):
        with pytest.raises(DataError) as info:
            parse_interval_csv(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,concept,message", CLASSIC_ERRORS)
    def test_classic_message(self, text, concept, message):
        with pytest.raises(DataError) as info:
            parse_classic_csv(text, concept=concept)
        assert str(info.value) == message


class TestValidEdgeInputs:
    @pytest.mark.parametrize(
        "text",
        [
            ',a\nr,"[1_000,2_000]"\n',
            ',a\nr," [ 1000 ,\t2e3 ] "\n',
            ',a\r\nr,"[1000,2000]"\r\n',
            ",a.lo,a.hi\r\nr, 1_000 ,2000.0\r\n",
            ',a\n\nr,"[1000,2000]"\n\n',
            # whitespace that float() does not strip around a bound (\x1c),
            # and digits outside ASCII, which it reads
            ',a\nr,"[\u0661\u0660\u0660\u0660,2000\r\x1c ]"\n',
            ',a\nr," [\u0661\u0660\u0660\u0660\u3000\x1c,\xa02e3]"\n',
        ],
    )
    def test_interval_cells(self, text):
        t = parse_interval_csv(text)
        assert t.rows == ("r",) and t.cols == ("a",)
        assert (t.lo[0, 0], t.hi[0, 0]) == (1000.0, 2000.0)

    def test_every_whitespace_character(self):
        # The grammar's \s is str.isspace() on every code point, and any of it
        # may pad a bracket cell and its bounds. A quoted label sends the text
        # to csv.reader.
        space = re.compile(r"\s").fullmatch
        codes = range(sys.maxunicode + 1)
        assert [i for i in codes if bool(space(chr(i))) != chr(i).isspace()] == []
        for c in (chr(i) for i in codes if chr(i).isspace()):
            for cell in (f"[{c}1{c},{c}2{c}]", f"{c}[{c}1{c},{c}2{c}]{c}"):
                for label in ("r", '"r"'):
                    t = parse_interval_csv(f',a\n{label},"{cell}"\n')
                    assert (t.lo[0, 0], t.hi[0, 0]) == (1.0, 2.0), (c, cell, label)

    def test_interval_labels(self):
        text = ',"a,b","say ""x""",油\n"r,1","[1,2]","[3,4]","[5,6]"\nÖl,"[0,0]","[0,0]","[0,0]"\n'
        t = parse_interval_csv(text)
        assert t.rows == ("r,1", "Öl")
        assert t.cols == ("a,b", 'say "x"', "油")
        assert (t.lo[0, 2], t.hi[0, 2]) == (5.0, 6.0)

    def test_classic_cells_and_labels(self):
        text = ',"a,b",state,c\r\n"r ""1""",1_000, Öl ,\t-2.5 \r\n油,0,"N,V",1e3\r\n'
        t = parse_classic_csv(text, concept="state")
        assert t.rows == ('r "1"', "油") and t.cols == ("a,b", "c")
        assert t.concept_labels == ("Öl", "N,V")
        assert t.values.tolist() == [[1000.0, -2.5], [0.0, 1000.0]]


_labels = st.text(max_size=6)
_bounds = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
).map(sorted)


@st.composite
def _interval_tables(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(_labels, min_size=m, max_size=m, unique=True))
    # A header whose every name ends in .lo/.hi is the paired layout.
    cols = draw(
        st.lists(_labels, min_size=n, max_size=n, unique=True).filter(
            lambda names: not all(_PAIR_RE.match(name) for name in names)
        )
    )
    cells = draw(st.lists(_bounds, min_size=m * n, max_size=m * n))
    grid = np.array(cells, dtype=float).reshape(m, n, 2)
    return IntervalMatrix(tuple(rows), tuple(cols), grid[..., 0], grid[..., 1])


def _csv_writer_reference(table: IntervalMatrix) -> str:
    """write_interval_csv as it was written through csv.writer."""
    lines: list[str] = []
    header = ["", *table.cols]
    quoted = any("\r" in name for name in header)
    csv.writer(
        SimpleNamespace(write=lines.append), lineterminator="\n",
        quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL,
    ).writerow(header)
    pad = ("",) if table.cols else ()
    cell = '"[{!r},{!r}]"'.format
    label = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    for name, lows, highs in zip(table.rows, table.lo.tolist(), table.hi.tolist()):
        label.writerow((name, *pad))
        lines[-1] = lines[-1][:-2] + ",".join(map(cell, lows, highs)) + "\n"
    return "".join(lines)


_quoting_labels = st.text(st.sampled_from(',"\r\n \x1cÖ'), max_size=4)


@st.composite
def _quoting_tables(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 3))
    rows = draw(st.lists(_quoting_labels, min_size=m, max_size=m, unique=True))
    cols = draw(st.lists(_quoting_labels, min_size=n, max_size=n, unique=True))
    grid = np.array(draw(st.lists(_bounds, min_size=m * n, max_size=m * n)), dtype=float)
    grid = grid.reshape(m, n, 2)
    return IntervalMatrix(tuple(rows), tuple(cols), grid[..., 0], grid[..., 1])


@settings(deadline=None)
@given(_quoting_tables())
def test_write_matches_csv_writer(table):
    text = write_interval_csv(table)
    assert text == _csv_writer_reference(table)
    if table.cols:  # the reader refuses a header that names no column
        assert parse_interval_csv(text) == table


class TestRoundTripProperty:
    @settings(deadline=None)
    @given(_interval_tables())
    def test_parse_inverts_write(self, table):
        back = parse_interval_csv(write_interval_csv(table))
        assert back == table
        assert np.array_equal(np.signbit(back.lo), np.signbit(table.lo))
        assert np.array_equal(np.signbit(back.hi), np.signbit(table.hi))

    def test_extreme_values(self):
        lo = np.array([[-0.0, 5e-324, -1.7976931348623157e308, -1e308]])
        hi = np.array([[0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 1e308]])
        t = IntervalMatrix(("r",), ("a", "b", "c", "d"), lo, hi)
        back = parse_interval_csv(write_interval_csv(t))
        assert back == t and np.signbit(back.lo[0, 0])


# The bracket grammar, as README states it, and the cell-by-cell check it
# implies: the bulk parse must agree with it on acceptance, values and the
# first error's message.
_GRAMMAR = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")


def _reference_bounds(cell: str, where: str) -> tuple[float, float] | str:
    match = _GRAMMAR.match(cell)
    if match is None:
        return f"malformed interval cell {cell!r} at {where}"
    return _reference_pair(match.groups(), where)


def _reference_pair(texts: tuple[str, str], where: str) -> tuple[float, float] | str:
    bounds = []
    for text in texts:
        try:
            value = float(text)
        except ValueError:
            return f"malformed number {text!r} at {where}"
        if not math.isfinite(value):
            return f"non-finite number {text!r} at {where}"
        bounds.append(value)
    if bounds[0] > bounds[1]:
        return f"lower bound exceeds upper bound at {where}"
    return bounds[0], bounds[1]


def _grammar_check(cells: list[str]) -> None:
    """Parse the cells, two to a row, as a table with columns a and b, and
    compare with the cell-by-cell reference: same values, or the same first
    error."""
    cols = ("a", "b")[: len(cells)]
    records = [cells[k : k + 2] for k in range(0, len(cells), 2)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["", *cols])
    writer.writerows([f"r{i}", *r] for i, r in enumerate(records))
    expected = [
        _reference_bounds(cell, f"(row {f'r{i}'!r}, column {col!r})")
        for i, r in enumerate(records)
        for col, cell in zip(cols, r)
    ]
    error = next((e for e in expected if isinstance(e, str)), None)
    if error is None:
        t = parse_interval_csv(out.getvalue())
        assert t.lo.ravel().tolist() == [lo for lo, _ in expected]
        assert t.hi.ravel().tolist() == [hi for _, hi in expected]
    else:
        with pytest.raises(DataError) as info:
            parse_interval_csv(out.getvalue())
        assert str(info.value) == error


def _mostly(right: list[str], wrong: list[str]) -> st.SearchStrategy[str]:
    return st.one_of(*[st.sampled_from(right)] * 3, st.sampled_from(wrong))


_cell_text = st.text(
    st.sampled_from(list("[],0123456789.eE+-_xnaif \t\r\n\x1c\xa0\u3000\u0661")),
    max_size=10,
)
_space = st.sampled_from(["", " ", "\t", "\r", "\x1c", "\xa0", "\u3000", " \x1c"])
_number = _mostly(["1", "-2.5", ".\u0661", "1e3", "1_0"], ["nan", "x", "1 2", "", "1e999"])
# Near-valid cells: each slot of the grammar is filled wrongly a quarter of
# the time, so that most examples hold one fault.
_bracket_cell = st.builds(
    "{}{}{}{}{}{}{}{}{}{}{}".format,
    _space, _mostly(["["], ["", "x", "[["]), _space, _number, _space,
    _mostly([","], ["", ",,", ", ,"]), _space, _number, _space,
    _mostly(["]"], ["", "]]", "x"]), _space,
)


class TestBracketGrammarProperty:
    @settings(deadline=None, max_examples=500)
    @given(st.one_of(_bracket_cell, _cell_text))
    @example("[.\u0661,2\r\x1c ]")
    @example(" [\u0661\u3000\x1c,\xa02]")
    def test_cell_matches_grammar(self, cell):
        _grammar_check([cell])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(_bracket_cell, _cell_text), min_size=4, max_size=4))
    def test_first_error_matches_cell_walk(self, cells):
        _grammar_check(cells)


class TestUnreadableCsv:
    # csv.reader raises on a field longer than its limit; the parse reports a
    # DataError naming the line, whichever tokeniser the text would take.
    @pytest.mark.parametrize(
        "head,tail",
        [(",a\nr,1\nq,", "\n"), (',a\n"r",1\nq,', "\n"), (",a\r\nr,1\r\nq,", "")],
        ids=["quote-free", "quoted", "crlf"],
    )
    def test_classic_field_over_limit(self, head, tail):
        limit = csv.field_size_limit()
        with pytest.raises(DataError) as info:
            parse_classic_csv(head + "1" * (limit + 1) + tail)
        assert str(info.value) == (
            f"unreadable CSV at line 3: field larger than field limit ({limit})"
        )

    @pytest.mark.parametrize(
        "text",
        [',a\n"r","[1,2]"\nq,"[1,{}]"\n', ",a.lo,a.hi\nr,1,2\nq,1,{}\n"],
        ids=["bracketed", "paired"],
    )
    def test_interval_field_over_limit(self, text):
        limit = csv.field_size_limit()
        with pytest.raises(DataError) as info:
            parse_interval_csv(text.format("2" * (limit + 1)))
        assert str(info.value) == (
            f"unreadable CSV at line 3: field larger than field limit ({limit})"
        )

    def test_line_over_limit_with_short_fields_parses(self):
        n = csv.field_size_limit() // 2 + 1
        text = "," + ",".join(f"c{j}" for j in range(n)) + "\nr" + ",1" * n + "\n"
        t = parse_classic_csv(text)
        assert t.shape == (1, n) and t.values.min() == 1.0


def _reference_classic(text: str, concept: str | None, exclude=()):
    """parse_classic_csv as csv.reader records and one float() per cell:
    (rows, cols, concept labels, values), or the first error's message."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [record for record in reader if record]
    except csv.Error as exc:
        return f"unreadable CSV at line {reader.line_num}: {exc}"
    if not records:
        return "empty input: no header row"
    header, *body = records
    names = header[1:]
    if not names:
        return "header must name at least one data column"
    for j, name in enumerate(names):
        if name in names[:j]:
            return f"duplicate column label: {name!r}"
    if concept is not None and concept not in names:
        return f"concept column {concept!r} not found"
    for name in sorted(exclude):
        if name not in names or name == concept:
            return f"no column named {name!r}"
    data = [j for j, name in enumerate(names) if name != concept and name not in exclude]
    if not data:
        return "no data column left: every column is the concept or excluded"
    values = []
    for record in body:
        if len(record) != len(header):
            return (
                f"ragged row {record[0]!r}: expected {len(header)} fields, "
                f"got {len(record)}"
            )
        for j in data:
            where = f"(row {record[0]!r}, column {names[j]!r})"
            try:
                value = float(record[1 + j])
            except ValueError:
                return f"malformed number {record[1 + j]!r} at {where}"
            if not math.isfinite(value):
                return f"non-finite number {record[1 + j]!r} at {where}"
            values.append(value)
    labels = () if concept is None else tuple(
        record[1 + names.index(concept)].strip() for record in body
    )
    return (
        tuple(record[0] for record in body),
        tuple(names[j] for j in data),
        labels,
        values,
    )


def _column_names(text: str) -> list[str]:
    try:
        header = next(filter(None, csv.reader(io.StringIO(text, newline=""))), [])
    except csv.Error:  # NUL, before Python 3.11
        return []
    return header[1:]


# Characters csv.reader treats specially (quote, CR, LF, NUL, comma), ones
# str.splitlines() breaks at but csv does not (\x1c, \x85, \u2028), and the
# pieces of numbers and labels.
_csv_char = st.sampled_from(list(',\n\r"\x00 \x1c\x85\u2028' "0123456789.eE+-_" "abxyz"))
_field = _mostly(["1", "-2.5", "1e3", " 4 ", "CA", "NV", "x"], ["", "nan", "1e999"]) | st.text(
    _csv_char, max_size=4
)


@st.composite
def _classic_texts(draw):
    """Mostly rectangular tables of numbers and labels, with some fields
    holding any of ``_csv_char``; a quarter of the time any text at all."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(_csv_char, max_size=30))
    width = draw(st.integers(1, 4))
    name = _mostly(["", "a", "b", "c", "k", "a b"], ["\x1c", "a,b", '"q"'])
    records = [[draw(name) for _ in range(width)]]
    for _ in range(draw(st.integers(0, 4))):
        n = draw(_mostly([width], [width - 1, width + 1]))
        records.append([draw(_field) for _ in range(max(n, 1))])
    ends = st.sampled_from(["\n", "\n", "\n\n", "\r\n", "\n \n"])
    text = "".join(",".join(record) + draw(ends) for record in records)
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestClassicTokeniserProperty:
    # parse_classic_csv splits quote-free text with str.split and reads any
    # other text with csv.reader; both must agree with the csv reference.
    @settings(deadline=None, max_examples=400)
    @given(_classic_texts())
    @example(",a,b\n")  # header only: no record, not one empty field
    @example(",a,b\n\n")
    @example(",a,b\nr,1,2")  # no final newline
    @example("\n,a\n\nr,1\n\n\ns,2\n")  # blank lines
    @example(",a\n   \nr,1\n")  # a line of spaces is a one-field record
    @example(",k,a\nr, CA ,1\ns,NV,2\n")  # concept column first or last
    @example(",a\nx\u2028y,1\nz\x1cw,2\nv\x85,3\n")  # splitlines() breaks these
    @example(",a\nr,1\x00\n")
    @example(',"a,b"\r\n"r",1\r\n')
    @example(",a\nr,1\rs,2\n")
    @example(",a\nr\r,1\n")
    @example(",a\nr\x00,1\n")
    @example(',"a\r\nb",c\r\nr,1,2\r\n')  # read as LF, the header name would change
    @example(",a\r\nr,1\rs,2\r\n")  # a bare CR among CRLF line ends
    def test_matches_csv_reader(self, text):
        _check_classic(text)

    @settings(deadline=None, max_examples=200)
    @given(_classic_texts())
    @example("\n,a\n\nr,1\n\n\ns,2\n")
    @example(",k,a\nr, CA ,1\ns,NV,2\nt,CA,3\n")
    @example(",a\nr,1\ns,\"2\"\n")  # a quote in a late block
    def test_matches_csv_reader_small_blocks(self, text):
        with mock.patch.object(tableio, "_BLOCK", 4):
            _check_classic(text)


def _check_classic(text: str) -> None:
    """parse_classic_csv against the csv reference, under every concept and
    exclude= choice the header allows, one unknown name included."""
    names = _column_names(text)
    for concept, exclude in itertools.product(
        (None, "?", *names), ((), ("?",), *((name,) for name in names[:2])),
    ):
        expected = _reference_classic(text, concept, exclude)
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                parse_classic_csv(text, concept=concept, exclude=exclude)
            assert str(info.value) == expected
        else:
            t = parse_classic_csv(text, concept=concept, exclude=exclude)
            got = (t.rows, t.cols, t.concept_labels, t.values.ravel().tolist())
            assert got == expected


def _reference_interval(text: str):
    """parse_interval_csv as csv.reader records, the bracket grammar per cell
    and one float() per bound: the table, or the first error's message."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [record for record in reader if record]
    except csv.Error as exc:
        return f"unreadable CSV at line {reader.line_num}: {exc}"
    if not records:
        return "empty input: no header row"
    header, *body = records
    names = header[1:]
    if not names:
        return "header must name at least one data column"
    if all(_PAIR_RE.match(name) for name in names):
        slots: dict[str, dict[str, int]] = {}
        for j, name in enumerate(names):
            base, side = _PAIR_RE.match(name).groups()
            if side in slots.setdefault(base, {}):
                return f"duplicate column label: {name!r}"
            slots[base][side] = j
        for base, sides in slots.items():
            if set(sides) != {"lo", "hi"}:
                return f"incomplete bound pair for column {base!r}"
        cols = list(slots)
        cells = lambda record: [
            (base, _reference_pair((record[1 + s["lo"]], record[1 + s["hi"]]), where))
            for base, s in slots.items()
            for where in [f"(row {record[0]!r}, column {base!r})"]
        ]
    else:
        cols = names
        cells = lambda record: [
            (col, _reference_bounds(cell, f"(row {record[0]!r}, column {col!r})"))
            for col, cell in zip(names, record[1:])
        ]
    bounds = []
    for record in body:
        if len(record) != len(header):
            return (
                f"ragged row {record[0]!r}: expected {len(header)} fields, "
                f"got {len(record)}"
            )
        for _, cell in cells(record):
            if isinstance(cell, str):
                return cell
            bounds.append(cell)
    grid = np.array(bounds, dtype=float).reshape(len(body), len(cols), 2)
    try:
        return IntervalMatrix(
            tuple(record[0] for record in body), tuple(cols), grid[..., 0], grid[..., 1]
        )
    except DataError as exc:
        return str(exc)


# Bracket cells as write_interval_csv quotes them, and forms only csv.reader
# reads right: a quote or CR inside, a record spread over two lines, outer
# whitespace, no quotes, a bound padded with \x1c (which only str.strip()
# removes), a cell that is not two bounds.
_CELL_FORMS = (
    ['"[{},{}]"', '"[ {} ,\t{} ]"'],
    ['[{},{}]', '" [{},{}] "', '"[{}\x1c,{}]"', '"[{},{}]"x', '"[{},{},1]"',
     '"[{}{}]"', '"[{},""{}]"', '"[{}\r,{}]"', '"[{}\x00,{}]"', '"[{},{}]\n"',
     "{},{}", '"[{},{}],[1,2]"'],
)
_BOUNDS = (
    [("1", "1"), ("-2.5", "1e3"), ("-0.0", "0"), ("0", "-0.0"), (" 4 ", "1_0")],
    [("2", "1"), ("x", "1"), ("nan", "1"), ("", "2"), ("1", "1e999"), ("1", ".")],
)
# Labels csv.reader reads as one field, and one ('"[') it does not.
_ODD_LABELS = (['"q"', ']"', 'ab]"', "a\x1cb", ' "x" ', '"a,b"', "a b", ""], ['"['])


@st.composite
def _interval_texts(draw):
    """Interval CSV texts, bracketed or paired; half of them with no fault
    but their labels, and a fifth of the rest any text of the characters
    that matter to either tokeniser."""
    faulty = draw(st.booleans())
    if faulty and draw(st.integers(0, 4)) == 0:
        return draw(st.text(st.sampled_from(list(',\n\r"[]\x00 \x1c1.x')), max_size=30))

    def pick(right_wrong):
        right, wrong = right_wrong
        return draw(_mostly(right, wrong) if faulty else st.sampled_from(right))

    def rare():
        return faulty and draw(st.integers(0, 9)) == 0

    n = draw(st.integers(1, 3))
    paired = draw(st.integers(0, 3)) == 0
    if paired:
        sides = [(f"c{j}.lo", f"c{j}.hi") for j in range(n)]
        names = [name for pair in sides for name in draw(st.permutations(pair))]
        names[-1] = pick(([names[-1]], ["c0.lo", "d.hi", "c"]))
    else:
        names = [pick(([f"c{j}"], ['"a,b"', '"q""x"', "c0"])) for j in range(n)]
    records = [["", *names]]
    for i in range(draw(st.integers(0, 5))):
        odd = pick(_ODD_LABELS)
        label = draw(_mostly([f"r{i}"], [odd, f"{odd}{i}"]))
        bounds = [pick(_BOUNDS) for _ in range(n)]
        if paired:
            cells = [text for pair in bounds for text in pair]
        else:
            cells = [pick(_CELL_FORMS).format(*pair) for pair in bounds]
        records.append([label, *(cells[:-1] if rare() else cells)])
    nl = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    ends = st.sampled_from([nl, nl, nl + nl])  # some records followed by a blank line
    text = "".join(
        ",".join(record) + (nl + " " + nl if rare() else draw(ends)) for record in records
    )
    return text if draw(st.booleans()) else text.rstrip("\n")


def _check_interval(text: str) -> None:
    expected = _reference_interval(text)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            parse_interval_csv(text)
        assert str(info.value) == expected
    else:
        t = parse_interval_csv(text)
        assert (t.rows, t.cols) == (expected.rows, expected.cols)
        assert t.lo.tobytes() == expected.lo.tobytes()
        assert t.hi.tobytes() == expected.hi.tobytes()


class TestBracketTokeniserProperty:
    # parse_interval_csv reads quote-free text and canonically quoted bracket
    # cells in row blocks and any other text with csv.reader; both must agree
    # with the csv reference on values, labels and the first error.
    @settings(deadline=None, max_examples=400)
    @given(_interval_texts())
    @example(',a\nab]","[1,2]"\n')  # csv keeps the label ab]"
    @example(',a\nab]",1,2]"\n')
    @example(',a\n"[,"[1,2]"\n')
    @example(',a\n]",1\ns,"[1,2]"\n')
    @example(',a,b\nr,"[1,2,3]","[4]"\n')  # two bounds in all, split wrongly
    @example(',a,b\nr,"[1,2]","[3,4]","[5,6]"\ns,"[7,8]"\n')  # cells moved across rows
    @example(',a\nr,"[1,,2]"\n')
    @example(',a\nr,"[1,2,]"\n')  # one field too many, in the right places
    @example(',a\nr,xx1,2]"\n')
    @example(',a\nr,"[1,2xx\n')
    @example(',a\nr,"[1,2]"\ns,xx3,4]"\n')
    @example(',a\nr,"[1,"2]"\n')
    @example(',a\nr\r,"[1,2]"\n')  # csv.reader ends a record at a CR
    @example(',a\nr\x00,"[1,2]"\n')  # NUL: unreadable before Python 3.11
    @example(',a\nr,"[]"\n')
    @example(',a\n\nr,"[1,2]"\n\n\ns,"[ 3 , 4 ]"\n')
    @example(',a\nr,"[1\x1c,2]"\n')  # \x1c pads a bracket bound
    @example(',a\nr,"[1,2]\n[3,4]"\n')
    @example(',"a,b"\nr,"[1,2]"\n')  # a quoted header, canonical cells
    @example(",a.lo,a.hi\nr,1,2\ns,-0.0,0\n")
    @example(",a.hi,a.lo\nr,2,1\n")
    @example(',"a\r\nb"\r\nr,"[1,2]"\r\n')  # read as LF, the header name would change
    @example(',a\r\nr,"[1,2]\r\n"\r\n')  # a quoted CRLF in a bracket cell
    def test_matches_csv_reader(self, text):
        _check_interval(text)

    @settings(deadline=None, max_examples=200)
    @given(_interval_texts())
    @example(',a\nr,"[1,2]"\ns,"[3,4]"\nt,"[x,1]"\n')
    @example(',a\nr,"[1,2]"\ns,"[3,4]"\n"t","[5,6]"\n')
    @example(",a.lo,a.hi\nr,1,2\ns,3,4\nt,5\n")
    def test_matches_csv_reader_small_blocks(self, text):
        with mock.patch.object(tableio, "_BLOCK", 4):
            _check_interval(text)


def _classic_text(m: int, n: int) -> str:
    """A classic table of m records: a concept column, a text column and n
    numbers a record."""
    values = np.random.default_rng(11).normal(0.0, 100.0, (m, n)).tolist()
    lines = [",state,note," + ",".join(f"v{j}" for j in range(n))]
    lines += (
        f"rec{i},S{i % 500:03d},n{i}," + ",".join(map(repr, row))
        for i, row in enumerate(values)
    )
    return "\n".join(lines) + "\n"


def _interval_text(m: int, n: int, seed: int = 12) -> str:
    rng = np.random.default_rng(seed)
    lo = rng.normal(0.0, 100.0, (m, n))
    table = IntervalMatrix(
        tuple(f"r{i}" for i in range(m)), tuple(f"v{j}" for j in range(n)),
        lo, lo + rng.uniform(0.0, 10.0, lo.shape),
    )
    return write_interval_csv(table)


def _traced_peak(parse) -> int:
    tracemalloc.start()
    try:
        parse()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def forks(monkeypatch) -> Iterator[list[int]]:
    """The pids of the helpers that ``tableio`` forks during a test, on two
    usable CPUs; afterwards no child of this process is left."""
    pids: list[int] = []

    def fork() -> int:
        pid = os.fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(tableio, "_fork", fork)
    monkeypatch.setattr(tableio, "_usable_cpus", lambda: 2)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_process(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(tableio, "_usable_cpus", lambda: 1)
        return call()


class TestParseMemory:
    # Row blocks bound what a parse holds besides its result: the tokens of
    # one block, not a string per field of the whole text. On one CPU the
    # whole parse is traced; on two, a helper process parses half the blocks
    # out of tracemalloc's sight, and this process holds what it sends.
    def test_classic_peak(self, monkeypatch):
        monkeypatch.setattr(tableio, "_usable_cpus", lambda: 1)
        text = _classic_text(20000, 20)
        peak = _traced_peak(lambda: parse_classic_csv(text, concept="state", exclude=["note"]))
        assert peak <= 2.5 * len(text)

    def test_classic_peak_two_cores(self, forks):
        text = _classic_text(20000, 20)
        peak = _traced_peak(lambda: parse_classic_csv(text, concept="state", exclude=["note"]))
        assert len(forks) == 1
        assert peak <= 2.5 * len(text)

    def test_bracket_peak(self, monkeypatch):
        monkeypatch.setattr(tableio, "_usable_cpus", lambda: 1)
        text = _interval_text(20000, 20)
        peak = _traced_peak(lambda: parse_interval_csv(text))
        assert peak <= 2.5 * len(text)


class TestRowBlocks:
    # A block of 16 characters holds one record: every error and fallback
    # below lies in a late block. On two CPUs a forked helper converts the
    # second half of the blocks, so the errors at rows 30 and 35 of 40 lie
    # in the helper's half; the messages are those of one process.
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, forks):
        monkeypatch.setattr(tableio, "_BLOCK", 16)

    def _rows(self, m: int) -> list[str]:
        return [f"r{i},{i},{i + 1}" for i in range(m)]

    def test_malformed_number_before_ragged_row(self):
        rows = self._rows(40)
        rows[30] = "r30,30,x"
        rows[35] = "r35,35"
        with pytest.raises(DataError) as info:
            parse_classic_csv(",a,b\n" + "\n".join(rows) + "\n")
        assert str(info.value) == "malformed number 'x' at (row 'r30', column 'b')"

    def test_ragged_row_before_malformed_number(self):
        rows = self._rows(40)
        rows[30] = "r30,30"
        rows[35] = "r35,35,x"
        with pytest.raises(DataError) as info:
            parse_classic_csv(",a,b\n" + "\n".join(rows) + "\n")
        assert str(info.value) == "ragged row 'r30': expected 3 fields, got 2"

    def test_bracket_errors_in_order(self):
        rows = [f'r{i},"[{i},{i + 1}]"' for i in range(40)]
        rows[30] = 'r30,"[31,30]"'
        rows[35] = 'r35,"[1,2]","[3,4]"'
        with pytest.raises(DataError) as info:
            parse_interval_csv(",a\n" + "\n".join(rows) + "\n")
        assert str(info.value) == "lower bound exceeds upper bound at (row 'r30', column 'a')"

    def test_concept_and_excluded_text_column(self):
        rows = [f"r{i},S{i % 3},note {i},{i},{-i}" for i in range(40)]
        t = parse_classic_csv(
            ",state,note,a,b\n" + "\n".join(rows) + "\n", concept="state", exclude=["note"]
        )
        assert t.rows == tuple(f"r{i}" for i in range(40))
        assert t.cols == ("a", "b")
        assert t.concept_labels == tuple(f"S{i % 3}" for i in range(40))
        assert t.values.tolist() == [[i, -i] for i in range(40)]

    @pytest.mark.parametrize("block", [1 << 20, 4])
    def test_crlf_read_in_row_blocks(self, block, monkeypatch):
        # CRLF line ends are read as LF, in row blocks, not by csv.reader.
        bracket = ",a,b\n" + "".join(f'r{i},"[{i},{i + 1}]","[-{i},0]"\n' for i in range(40))
        classic = ",state,a\n" + "".join(f"r{i},S{i % 3},{i}\n" for i in range(40))
        lf_bracket = parse_interval_csv(bracket)
        lf_classic = parse_classic_csv(classic, concept="state")
        monkeypatch.setattr(tableio, "_BLOCK", block)
        monkeypatch.setattr(tableio, "_read_records", mock.Mock(side_effect=AssertionError))
        assert parse_interval_csv(bracket.replace("\n", "\r\n")) == lf_bracket
        t = parse_classic_csv(classic.replace("\n", "\r\n"), concept="state")
        assert (t.rows, t.cols, t.concept_labels) == (
            lf_classic.rows, lf_classic.cols, lf_classic.concept_labels
        )
        assert t.values.tobytes() == lf_classic.values.tobytes()

    def test_late_fallbacks_match_one_block(self, monkeypatch):
        bracket = [f'r{i},"[{i},{i + 1}]"' for i in range(40)]
        bracket[30] = 'r30,"[30\x1c, 31]"'  # \x1c: read on the csv.reader path
        bracket[35] = '"r35","[35,36]"'
        text = ",a\n" + "\n".join(bracket) + "\n"
        small = parse_interval_csv(text)
        monkeypatch.setattr(tableio, "_BLOCK", 1 << 20)
        assert parse_interval_csv(text) == small
        assert small.rows[35] == "r35" and small.hi[30, 0] == 31.0

    @pytest.mark.parametrize(
        "parse,cell",
        [(parse_classic_csv, "{}"), (parse_interval_csv, '"[0,{}]"')],
        ids=["classic", "bracketed"],
    )
    def test_field_over_limit_in_late_block(self, parse, cell):
        # zeros, so that float() would read the field
        limit = csv.field_size_limit()
        rows = [f"r{i}," + cell.format(i) for i in range(20)]
        rows.append("q," + cell.format("0" * (limit + 1)))
        with pytest.raises(DataError) as info:
            parse(",a\n" + "\n".join(rows) + "\n")
        assert str(info.value) == (
            f"unreadable CSV at line 22: field larger than field limit ({limit})"
        )

    def test_line_over_limit_in_late_block_parses(self):
        n = csv.field_size_limit() // 2 + 1
        rows = ["r" + ",1" * n] * 3 + ["s" + ",2" * n]
        rows = [f"{row[0]}{i}{row[1:]}" for i, row in enumerate(rows)]
        text = "," + ",".join(f"c{j}" for j in range(n)) + "\n" + "\n".join(rows) + "\n"
        t = parse_classic_csv(text)
        assert t.shape == (4, n) and t.values[3].min() == 2.0


def _classic_fields(t: ClassicTable) -> tuple:
    return t.rows, t.cols, t.concept, t.concept_labels, t.values.tobytes()


def _interval_fields(t: IntervalMatrix) -> tuple:
    return t.rows, t.cols, t.lo.tobytes(), t.hi.tobytes()


def _message(call) -> str:
    with pytest.raises(DataError) as info:
        call()
    return str(info.value)


# Texts of 300 records, each spanning many blocks of 64 characters.
_CLASSIC = _classic_text(300, 4)
_BRACKET = _interval_text(300, 3)
_TABLE = parse_interval_csv(_BRACKET)
_PAIRED = "," + ",".join(f"{c}.lo,{c}.hi" for c in _TABLE.cols) + "\n" + "".join(
    f"{name}," + ",".join(f"{a!r},{b!r}" for a, b in zip(lows, highs)) + "\n"
    for name, lows, highs in zip(_TABLE.rows, _TABLE.lo.tolist(), _TABLE.hi.tolist())
)

_CALLS = {
    "classic": lambda: _classic_fields(
        parse_classic_csv(_CLASSIC, concept="state", exclude=["note"])
    ),
    "classic-crlf": lambda: _classic_fields(
        parse_classic_csv(_CLASSIC.replace("\n", "\r\n"), concept="state", exclude=["note"])
    ),
    "bracket": lambda: _interval_fields(parse_interval_csv(_BRACKET)),
    "bracket-crlf": lambda: _interval_fields(parse_interval_csv(_BRACKET.replace("\n", "\r\n"))),
    "paired": lambda: _interval_fields(parse_interval_csv(_PAIRED)),
    "write": lambda: write_interval_csv(_TABLE),
    # a bad number in record 250 of 300, in the helper's half of the blocks
    "classic-error": lambda: _message(lambda: parse_classic_csv(
        _CLASSIC.replace("rec250,S250,n250,", "rec250,S250,n250,x"),
        concept="state", exclude=["note"],
    )),
    "bracket-error": lambda: _message(
        lambda: parse_interval_csv(_BRACKET.replace('r250,"[', 'r250,"[x'))
    ),
}


def _exit_non_zero(fd: int, result: object) -> None:
    raise RuntimeError("the helper fails")


def _killed(fd: int, result: object) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _short(fd: int, result: object) -> None:
    with open(fd, "wb") as pipe:
        pipe.write(pickle.dumps(result)[:-1])


def _nothing(fd: int, result: object) -> None:
    os.close(fd)


def _unreadable(fd: int, result: object) -> None:
    with open(fd, "wb") as pipe:
        pipe.write(b"not a pickle")


class TestTwoCores:
    # A forked helper converts the second half of the row blocks; the
    # result is that of one process, to the byte, also when the helper
    # fails and its half is done again here.
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tableio, "_BLOCK", 64)

    @pytest.mark.parametrize("call", _CALLS.values(), ids=_CALLS)
    def test_same_as_one_process(self, call, forks, monkeypatch):
        one = _one_process(monkeypatch, call)
        assert forks == []
        assert call() == one
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "send", [_exit_non_zero, _killed, _short, _nothing, _unreadable],
        ids=["exits-non-zero", "killed", "short", "empty", "unreadable"],
    )
    def test_failed_helper_half_done_here(self, send, forks, monkeypatch):
        expected = {name: _one_process(monkeypatch, call) for name, call in _CALLS.items()}
        monkeypatch.setattr(tableio, "_send", send)
        assert {name: call() for name, call in _CALLS.items()} == expected
        assert len(forks) == len(_CALLS)

    def test_early_error_stops_helper(self, forks, monkeypatch):
        # The first half is rejected: the helper is killed, not waited for.
        monkeypatch.setattr(tableio, "_send", lambda fd, result: time.sleep(60))
        t0 = time.perf_counter()
        with pytest.raises(DataError, match="'r3'"):
            parse_interval_csv(_BRACKET.replace('r3,"[', 'r3,"[x'))
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1

    def test_error_in_this_process_reaps_helper(self, forks):
        parent = os.getpid()

        def work(first: int, last: int) -> list[int]:
            if os.getpid() == parent:
                raise ZeroDivisionError
            return list(range(first, last))

        with pytest.raises(ZeroDivisionError):
            tableio._in_two(work, 4)
        assert len(forks) == 1

    def test_child_signal_ignored(self, forks):
        # The kernel reaps the helpers of a process that ignores SIGCHLD.
        parent = os.getpid()

        def work(first: int, last: int) -> list[int] | None:
            if os.getpid() == parent:
                time.sleep(0.5)  # the helper has exited, and is reaped, by now
                return None
            return []

        expected = _CALLS["bracket"]()
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _CALLS["bracket"]() == expected
            assert tableio._in_two(work, 2) is None
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 3

    def test_no_fork(self, forks, monkeypatch):
        expected = _CALLS["classic"]()
        monkeypatch.setattr(tableio, "_fork", None)
        assert _CALLS["classic"]() == expected

    def test_other_thread(self, forks):
        expected = _CALLS["write"]()
        forks.clear()
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert _CALLS["write"]() == expected
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert forks == []
