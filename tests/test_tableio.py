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
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple
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


class Case(NamedTuple):
    text: str
    want: str | tuple  # the DataError message, or the table as _table or _classic gives it
    parse: Callable[[str], IntervalMatrix | ClassicTable] = parse_interval_csv


def _table(rows, cols, lo, hi) -> tuple:
    return tuple(rows), tuple(cols), np.array(lo, float).tobytes(), np.array(hi, float).tobytes()


def _classic(rows, cols, values, concept_labels=()) -> tuple:
    return tuple(rows), tuple(cols), tuple(concept_labels), np.array(values, float).tobytes()


def _ra(lo: float, hi: float) -> tuple:
    return _table(["r"], ["a"], [[lo]], [[hi]])  # one cell [lo, hi], row r, column a


def _outcome(parse, text: str) -> str | tuple:
    """``parse(text)`` as _table or _classic gives it, or the message of the
    DataError it raises."""
    try:
        t = parse(text)
    except DataError as exc:
        return str(exc)
    if isinstance(t, ClassicTable):
        return _classic(t.rows, t.cols, t.values, t.concept_labels)
    return _table(t.rows, t.cols, t.lo, t.hi)


_state = partial(parse_classic_csv, concept="state")
LIMIT = csv.field_size_limit()

# The three ways a text is read, as the tableio names each patches. A block
# of one character ends at the first line end after it, so it holds one
# record (and any blank lines before it); a text of over 1024 characters
# (a field over the csv limit) is cut so too once the cap of 1024 blocks is
# lifted, and no case has more records than a pipe's page holds tickets.
# Forked (``forks`` gives two usable CPUs), a helper converts every block
# but this process's first (``held``).
MODES = {
    "one block": {"_usable_cpus": lambda: 1},
    "row blocks": {"_usable_cpus": lambda: 1, "_BLOCK": 1, "_TICKETS": 1 << 30},
    "forked": {"_BLOCK": 1, "_TICKETS": 1 << 30},
}
PARSE_CASES: list[Case] = []  # the table: every case a parse_test runs


def _parse_in(mode: str, case: Case, monkeypatch) -> str | tuple:
    with monkeypatch.context() as patch:
        for name, value in MODES[mode].items():
            patch.setattr(tableio, name, value)
        return _outcome(case.parse, case.text)


def parse_test(cases: Case | dict[str, Case]):
    """A test that parses the case, or each case of the dict by id, in every
    one of MODES; each outcome must be the case's, to the byte. The cases join
    PARSE_CASES, and ``-k parse_cases`` selects the test (a keyword of it)."""
    def run(case: Case, monkeypatch) -> None:
        got = {mode: _parse_in(mode, case, monkeypatch) for mode in MODES}
        assert got == dict.fromkeys(MODES, case.want)

    if isinstance(cases, Case):
        PARSE_CASES.append(cases)

        def test(self, held, monkeypatch):
            run(cases, monkeypatch)
    else:
        PARSE_CASES.extend(cases.values())

        @pytest.mark.parametrize("case", cases.values(), ids=list(cases))
        def test(self, case, held, monkeypatch):
            run(case, monkeypatch)
    test.parse_cases = True
    return test


class TestParseIntervalCsv:
    test_bracket_cells = parse_test(Case(
        ',GRA,FRE\nLinseed,"[0.93,0.935]","[-27,-18]"\n',
        _table(["Linseed"], ["GRA", "FRE"], [[0.93, -27.0]], [[0.935, -18.0]])))
    test_degenerate_cell = parse_test(Case(',a\nr,"[5,5]"\n', _ra(5.0, 5.0)))
    test_inverted_cell_with_position = parse_test(Case(
        ',a\nr,"[2,1]"\n', "lower bound exceeds upper bound at (row 'r', column 'a')"))
    test_malformed_cell_with_position = parse_test(Case(
        ',a,b\nr,"[1,2]",oops\n', "malformed interval cell 'oops' at (row 'r', column 'b')"))
    test_scientific_notation_and_whitespace = parse_test(Case(
        ',a\nr," [ 1e-3 , 2.5E+2 ] "\n', _ra(1e-3, 250.0)))
    test_crlf_accepted = parse_test(Case(',a\r\nr,"[1,2]"\r\n', _ra(1.0, 2.0)))
    test_ragged_row = parse_test(Case(
        ',a,b\nr,"[1,2]"\n', "ragged row 'r': expected 3 fields, got 2"))
    test_duplicate_row_label = parse_test(Case(
        ',a\nr,"[1,2]"\nr,"[3,4]"\n', "duplicate row label: 'r'"))
    test_header_only_gives_empty_table = parse_test(Case(",a,b\n", _table([], ["a", "b"], [], [])))
    test_no_header = parse_test(Case("", "empty input: no header row"))
    test_nonfinite_rejected = parse_test(Case(
        ',a\nr,"[-inf,2]"\n', "non-finite number '-inf' at (row 'r', column 'a')"))


class TestPairedColumnLayout:
    test_equivalent_to_bracket_form = parse_test(Case(
        ",x.lo,x.hi,y.lo,y.hi\nr1,0,1,5,6\nr2,-2,-1,0,0\n",
        _table(["r1", "r2"], ["x", "y"], [[0.0, 5.0], [-2.0, 0.0]], [[1.0, 6.0], [-1.0, 0.0]])))
    test_incomplete_pair = parse_test(Case(
        ",x.lo,x.hi,y.lo\nr,0,1,2\n", "incomplete bound pair for column 'y'"))
    test_inverted_pair_cell = parse_test(Case(
        ",x.lo,x.hi\nr,3,1\n", "lower bound exceeds upper bound at (row 'r', column 'x')"))
    # Bracket cells under such names, as write_interval_csv writes them, are
    # read as written; with no record to tell, the header is the paired layout's.
    test_bracket_cells_under_pair_names = parse_test({
        "x.lo,x.hi": Case(',x.lo,x.hi\na,"[0.0,1.0]","[0.0,1.0]"\n',
                          _table(["a"], ["x.lo", "x.hi"], [[0.0, 0.0]], [[1.0, 1.0]])),
        "x.lo": Case(',x.lo\na,"[0.0,1.0]"\n', _table(["a"], ["x.lo"], [[0.0]], [[1.0]])),
        "no-rows": Case(",x.lo,x.hi\n", _table([], ["x"], [], [])),
        "no-rows-unpaired": Case(",x.lo\n", "incomplete bound pair for column 'x'"),
    })


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
                IntervalMatrix(("r", "s\rt"), ("a\rb", "c"), [[0.0, 1.0], [2.0, 3.0]],
                               [[1.0, 1.0], [2.0, 4.0]]),
                '"","a\rb","c"\nr,"[0.0,1.0]","[1.0,1.0]"\n"s\rt","[2.0,2.0]","[3.0,4.0]"\n',
            ),
        ],
        ids=["labels", "cr-header"],
    )
    def test_pinned_bytes(self, table, expected):
        assert write_interval_csv(table) == expected


class TestParseClassicCsv:
    test_numeric_table = parse_test(Case(
        ",a,b\n1,1.5,2\n2,3,4\n", _classic(["1", "2"], ["a", "b"], [[1.5, 2.0], [3.0, 4.0]]),
        parse_classic_csv))
    test_concept_column_kept_as_text = parse_test(Case(
        ",state,x\n1,CA,0.5\n2,NV,0.7\n", _classic(["1", "2"], ["x"], [[0.5], [0.7]], ["CA", "NV"]),
        _state))
    test_non_numeric_cell_rejected = parse_test(Case(
        ",a\nr,hello\n", "malformed number 'hello' at (row 'r', column 'a')", parse_classic_csv))
    test_missing_concept = parse_test(Case(",a\nr,1\n", "concept column 'state' not found", _state))
    # A string names no columns: its characters would be taken for them.
    test_exclude_string_refused = parse_test(Case(
        ",a,note\nr,1,x\n", "exclude must be a collection of column names, not the string 'note'",
        partial(parse_classic_csv, exclude="note")))
    # The file has the column: the message names why it cannot go.
    test_exclude_concept_refused = parse_test(Case(
        ",state,a\nr,CA,1\n", "cannot exclude the concept column 'state'",
        partial(parse_classic_csv, concept="state", exclude=["state"])))


class TestClassicTable:
    @pytest.mark.parametrize("values, concept, message", [
        ([[1.0, 2.0]], None, "value grid shape (1, 2) does not match labels (1, 1)"),
        ([[np.inf]], None, "classic table contains non-finite entries"),
        ([[1.0]], "s", "concept labels must cover every row"),
        pytest.param([[1.0]], {"rows": "r"}, "rows must be a collection of labels, not the "
                     "string 'r'", id="rows-string"),
        pytest.param([[1.0]], {"cols": "x"}, "cols must be a collection of labels, not the "
                     "string 'x'", id="cols-string"),
        pytest.param([[1.0]], {"concept": "s", "concept_labels": "a"}, "concept_labels must be "
                     "a collection of labels, not the string 'a'", id="concept_labels-string"),
        pytest.param([[1.0]], {"concept_labels": ("a",)},
                     "concept labels given without a concept column", id="labels-no-concept"),
    ])
    def test_direct_construction_checked(self, values, concept, message):
        # concept is the concept column's name, or the arguments replacing these.
        given = {"rows": ("r",), "cols": ("x",), "values": values, "concept": None}
        given.update(concept if isinstance(concept, dict) else {"concept": concept})
        with pytest.raises(DataError) as info:
            ClassicTable(**given)
        assert str(info.value) == message

    def test_labels_are_strings(self):
        # A concept label 1 and a '1' are one concept, as row labels are.
        t = ClassicTable((1, "2"), (3,), [[1.0], [2.0]], concept="s", concept_labels=(1, "1"))
        assert (t.rows, t.cols, t.concept_labels) == (("1", "2"), ("3",), ("1", "1"))
        out = aggregate_classic(t, "s")
        assert out.rows == ("1",) and (out.lo[0, 0], out.hi[0, 0]) == (1.0, 2.0)


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
    (',a,b\nr,"[1,2]",oops\n', "malformed interval cell 'oops' at (row 'r', column 'b')"),
    (',a\nr,"[1,x]"\n', "malformed number 'x' at (row 'r', column 'a')"),
    (',a\nr,"[nan,2]"\n', "non-finite number 'nan' at (row 'r', column 'a')"),
    (',a\nr,"[1,inf]"\n', "non-finite number 'inf' at (row 'r', column 'a')"),
    (',a\nr,"[0,1e999]"\n', "non-finite number '1e999' at (row 'r', column 'a')"),
    (',a\nr,"[2,1]"\n', "lower bound exceeds upper bound at (row 'r', column 'a')"),
    (',a\nr,"[x,nan]"\n', "malformed number 'x' at (row 'r', column 'a')"),
    (',a\nr,"[nan,x]"\n', "non-finite number 'nan' at (row 'r', column 'a')"),
    (',a,b\nr,"[2,1]",bad\n', "lower bound exceeds upper bound at (row 'r', column 'a')"),
    (',a\nr,"[1,2]"\nr2,"[-inf,0]"\n', "non-finite number '-inf' at (row 'r2', column 'a')"),
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
    (",state,a\nr,CA,hello\n", "state", "malformed number 'hello' at (row 'r', column 'a')"),
    (",a,b\nr1,1,bad\nr2,1\n", None, "malformed number 'bad' at (row 'r1', column 'b')"),
    (",a,b\nr1,1\nr2,1,bad\n", None, "ragged row 'r1': expected 3 fields, got 2"),
    (",a,b\nr1,1,2\nr2,1,2,3\n", None, "ragged row 'r2': expected 3 fields, got 4"),
    (",state\nr1,a\n", "state", "no data column left: every column is the concept or excluded"),
    (",a\nr,\x1c1\n", None, "malformed number '\\x1c1' at (row 'r', column 'a')"),
    (',a\n"r",\x1c1\n', None, "malformed number '\\x1c1' at (row 'r', column 'a')"),
]


class TestErrorParity:
    # Each id is the row's text and message, and a classic row's concept.
    test_interval_message = parse_test({f"{t}-{m}": Case(t, m) for t, m in INTERVAL_ERRORS})
    test_classic_message = parse_test({f"{t}-{c}-{m}": Case(t, m, partial(
        parse_classic_csv, concept=c)) for t, c, m in CLASSIC_ERRORS})


class TestValidEdgeInputs:
    test_interval_cells = parse_test({text: Case(text, _ra(1000.0, 2000.0)) for text in [
        ',a\nr,"[1_000,2_000]"\n', ',a\nr," [ 1000 ,\t2e3 ] "\n', ',a\r\nr,"[1000,2000]"\r\n',
        ",a.lo,a.hi\r\nr, 1_000 ,2000.0\r\n", ',a\n\nr,"[1000,2000]"\n\n',
        # whitespace that float() does not strip around a bound (\x1c),
        # and digits outside ASCII, which it reads
        ',a\nr,"[\u0661\u0660\u0660\u0660,2000\r\x1c ]"\n',
        ',a\nr," [\u0661\u0660\u0660\u0660\u3000\x1c,\xa02e3]"\n',
    ]})
    test_interval_labels = parse_test(Case(
        ',"a,b","say ""x""",油\n"r,1","[1,2]","[3,4]","[5,6]"\nÖl,"[0,0]","[0,0]","[0,0]"\n',
        _table(["r,1", "Öl"], ["a,b", 'say "x"', "油"], [[1, 3, 5], [0, 0, 0]], [[2, 4, 6], [0, 0, 0]])))
    test_classic_cells_and_labels = parse_test(Case(
        ',"a,b",state,c\r\n"r ""1""",1_000, Öl ,\t-2.5 \r\n油,0,"N,V",1e3\r\n',
        _classic(['r "1"', "油"], ["a,b", "c"], [[1000, -2.5], [0, 1000]], ["Öl", "N,V"]), _state))

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
    # With no record, a header whose every name ends in .lo/.hi is the paired layout.
    cols = draw(
        st.lists(_labels, min_size=n, max_size=n, unique=True).filter(
            lambda names: m or not all(_PAIR_RE.match(name) for name in names)
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
    cell = '"[{!r},{!r}]"'.format
    label = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    for name, lows, highs in zip(table.rows, table.lo.tolist(), table.hi.tolist()):
        label.writerow((name, ""))
        lines[-1] = lines[-1][:-2] + ",".join(map(cell, lows, highs)) + "\n"
    return "".join(lines)


_quoting_labels = st.text(st.sampled_from(',"\r\n \x1cÖ'), max_size=4) | st.builds(
    "{}.{}".format, st.sampled_from(["x", "y", ",", ""]), st.sampled_from(["lo", "hi"])
)


@st.composite
def _quoting_tables(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(_quoting_labels, min_size=m, max_size=m, unique=True))
    cols = draw(st.lists(_quoting_labels, min_size=n, max_size=n, unique=True))
    grid = np.array(draw(st.lists(_bounds, min_size=m * n, max_size=m * n)), dtype=float)
    grid = grid.reshape(m, n, 2)
    return IntervalMatrix(tuple(rows), tuple(cols), grid[..., 0], grid[..., 1])


@settings(deadline=None)
@given(_quoting_tables())
@example(IntervalMatrix(("a",), ("x.lo", "x.hi"), [[0.0, 0.0]], [[1.0, 1.0]]))
def test_write_matches_csv_writer(table):
    text = write_interval_csv(table)
    assert text == _csv_writer_reference(table)
    if table.rows or not all(map(_PAIR_RE.match, table.cols)):  # else the paired layout
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
    want = error or _table([f"r{i}" for i in range(len(records))], cols, *zip(*expected))
    assert _outcome(parse_interval_csv, out.getvalue()) == want


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


def _over_limit(line: int) -> str:
    return f"unreadable CSV at line {line}: field larger than field limit ({LIMIT})"


def _wide(*values: int) -> Case:
    """A classic table of a record per value, holding it in each of more
    columns than fit in a line of the field size limit."""
    cols = [f"c{j}" for j in range(LIMIT // 2 + 1)]
    rows = [f"r{i}" for i in range(len(values))]
    text = "," + ",".join(cols) + "\n" + "".join(
        row + f",{v}" * len(cols) + "\n" for row, v in zip(rows, values))
    return Case(text, _classic(rows, cols, [[v] * len(cols) for v in values]), parse_classic_csv)


class TestUnreadableCsv:
    # csv.reader raises on a field longer than its limit; the parse reports a
    # DataError naming the line, whichever tokeniser the text would take.
    test_classic_field_over_limit = parse_test({
        name: Case(head + "1" * (LIMIT + 1) + tail, _over_limit(3), parse_classic_csv)
        for name, head, tail in [("quote-free", ",a\nr,1\nq,", "\n"),
                                 ("quoted", ',a\n"r",1\nq,', "\n"), ("crlf", ",a\r\nr,1\r\nq,", "")]
    })
    test_interval_field_over_limit = parse_test({
        name: Case(text.format("2" * (LIMIT + 1)), _over_limit(3)) for name, text in
        [("bracketed", ',a\n"r","[1,2]"\nq,"[1,{}]"\n'), ("paired", ",a.lo,a.hi\nr,1,2\nq,1,{}\n")]
    })
    test_line_over_limit_with_short_fields_parses = parse_test(_wide(1))


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
        if name == concept:
            return f"cannot exclude the concept column {name!r}"
        if name not in names:
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
        if not isinstance(expected, str):
            rows, cols, labels, values = expected
            expected = _classic(rows, cols, values, labels)
        parse = partial(parse_classic_csv, concept=concept, exclude=exclude)
        assert _outcome(parse, text) == expected


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
    if all(_PAIR_RE.match(name) for name in names) and not any(
        map(_GRAMMAR.match, body[0][1:2] if body else [])
    ):
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
    if not isinstance(expected, str):
        expected = _table(expected.rows, expected.cols, expected.lo, expected.hi)
    assert _outcome(parse_interval_csv, text) == expected


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


_PROC_STAT = os.path.exists("/proc/self/stat")


def _os_threads() -> int:
    """This process's OS thread count, field 20 of /proc/self/stat."""
    with open("/proc/self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[17])


class _Pids(list):
    """Helper pids, and in ``threads`` this process's OS thread count read
    right after each fork, where /proc/self/stat exists."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: list[int] = []


@pytest.fixture
def forks(monkeypatch) -> Iterator[_Pids]:
    """The pids of the helpers that ``tableio`` forks during a test, on two
    usable CPUs; afterwards no child of this process is left."""
    pids = _Pids()

    def fork() -> int:
        pid = os.fork()
        if pid:
            pids.append(pid)
            if _PROC_STAT:
                pids.threads.append(_os_threads())
        return pid

    monkeypatch.setattr(tableio, "_fork", fork)
    monkeypatch.setattr(tableio, "_usable_cpus", lambda: 2)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def held(forks, monkeypatch) -> None:
    """Which process converts which row block, fixed: once a helper is
    forked, it starts no block before this process has started its first,
    and this process holds that block until the helper has taken every
    other ticket (or has left), so the helper converts all blocks but that
    one. Tickets are taken in order: the helper has taken the rest once it
    takes the last."""
    in_two = tableio._in_two

    def held_in_two(work, count):
        forked, parent = len(forks), os.getpid()
        (started, start), (taken, took_last) = os.pipe(), os.pipe()
        open_ends = [started, start, taken, took_last]
        waiting = [True]  # the helper's copy, until this process has started

        def held_work(block: int) -> object:
            if os.getpid() != parent:
                if waiting:
                    os.read(started, 1)
                    waiting.clear()
                if block == count - 1:
                    os.write(took_last, b"!")
            elif len(forks) > forked and took_last in open_ends:
                os.write(start, b"!")
                open_ends.remove(took_last)
                os.close(took_last)  # the read below then ends when the helper leaves
                if block < count - 1:  # else every other ticket is taken already
                    os.read(taken, 1)
            return work(block)

        try:
            return in_two(held_work, count)
        finally:
            for fd in open_ends:
                os.close(fd)

    monkeypatch.setattr(tableio, "_in_two", held_in_two)


def _one_process(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(tableio, "_usable_cpus", lambda: 1)
        return call()


class TestParseMemory:
    # Row blocks bound what a parse holds besides its result: the tokens of
    # one block, not a string per field of the whole text. On one CPU the
    # whole parse is traced; on two, a helper process parses the blocks it
    # takes out of tracemalloc's sight, and this process holds what it sends.
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
    # Each error and fallback lies past the first record, in a block the
    # forked mode's helper converts; the messages are those of one process.
    test_malformed_number_before_ragged_row = parse_test(Case(
        ",a,b\nr0,0,1\nr1,1,x\nr2,2\n", "malformed number 'x' at (row 'r1', column 'b')",
        parse_classic_csv))
    test_ragged_row_before_malformed_number = parse_test(Case(
        ",a,b\nr0,0,1\nr1,1\nr2,2,x\n", "ragged row 'r1': expected 3 fields, got 2",
        parse_classic_csv))
    test_bracket_errors_in_order = parse_test(Case(
        ',a\nr0,"[0,1]"\nr1,"[2,1]"\nr2,"[1,2]","[3,4]"\n',
        "lower bound exceeds upper bound at (row 'r1', column 'a')"))
    test_concept_and_excluded_text_column = parse_test(Case(
        ",state,note,a,b\nr0,S0,note 0,0,0\nr1,S1,note 1,1,-1\nr2,S0,note 2,2,-2\n",
        _classic(["r0", "r1", "r2"], ["a", "b"], [[0, 0], [1, -1], [2, -2]], ["S0", "S1", "S0"]),
        partial(parse_classic_csv, concept="state", exclude=["note"])))
    # \x1c pads a bound only on the csv.reader path; a quoted label goes there.
    test_late_fallbacks_match_one_block = parse_test(Case(
        ',a\nr0,"[0,1]"\nr1,"[1\x1c, 2]"\n"r2","[2,3]"\n',
        _table(["r0", "r1", "r2"], ["a"], [[0], [1], [2]], [[1], [2], [3]])))
    test_field_over_limit_in_late_block = parse_test({  # zeros, which float() would read
        "classic": Case(",a\nr0,0\nr1,1\nq," + "0" * (LIMIT + 1) + "\n", _over_limit(4),
                        parse_classic_csv),
        "bracketed": Case(',a\nr0,"[0,0]"\nr1,"[0,1]"\nq,"[0,' + "0" * (LIMIT + 1) + ']"\n',
                          _over_limit(4)),
    })
    test_line_over_limit_in_late_block_parses = parse_test(_wide(1, 2))

    @pytest.mark.parametrize("block", [1 << 20, 4])
    def test_crlf_read_in_row_blocks(self, block, held, monkeypatch):
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

    def test_forked_mode_forks_a_helper(self, held, forks, monkeypatch):
        # Else the forked mode could run in one process unseen: every case read
        # in two or more row blocks forks a helper.
        blocks, in_two = [], tableio._in_two

        def counted(work, count):
            blocks.append(count)
            return in_two(work, count)

        monkeypatch.setattr(tableio, "_in_two", counted)
        forked = 0
        for case in PARSE_CASES:
            blocks.clear()
            forks.clear()
            _parse_in("forked", case, monkeypatch)
            assert len(forks) == sum(count > 1 for count in blocks), case
            forked += len(forks)
        assert forked


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
    # a bad number in record 250 of 300, in a late block
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
    # This process and a forked helper take the row blocks from one queue;
    # the result is that of one process, to the byte, also when the helper
    # fails and the blocks it did not deliver are converted here.
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
    def test_failed_helper_half_done_here(self, send, forks, held, monkeypatch):
        expected = {name: _one_process(monkeypatch, call) for name, call in _CALLS.items()}
        monkeypatch.setattr(tableio, "_send", send)
        assert {name: call() for name, call in _CALLS.items()} == expected
        assert len(forks) == len(_CALLS)

    def test_each_block_once_in_order(self, forks, held):
        parent = os.getpid()

        def work(block: int) -> tuple[int, int]:
            return os.getpid(), block

        result = tableio._in_two(work, 40)
        assert [i for _, i in result] == list(range(40))
        assert {pid for pid, _ in result} == {parent, *forks}

    def test_helper_leaving_midway(self, forks, held, monkeypatch):
        # The helper leaves as it starts its third block; those three
        # blocks, taken from the queue but never sent, are converted here.
        parent = os.getpid()
        converted = []

        def work(block: int) -> tuple[int, int]:
            if os.getpid() != parent:
                converted.append(block)
                if len(converted) == 3:
                    os._exit(0)
            return os.getpid(), block

        one = _one_process(monkeypatch, lambda: tableio._in_two(work, 40))
        assert tableio._in_two(work, 40) == one == [(parent, i) for i in range(40)]
        assert len(forks) == 1

    def test_at_most_1024_row_blocks(self, monkeypatch):
        # One ticket per block: 1024 tickets of 4 bytes fill the one page a
        # pipe is sure to hold, so queuing never blocks. Past 1024 blocks of
        # _BLOCK characters, blocks grow; they still cover the text in order.
        monkeypatch.setattr(tableio, "_BLOCK", 1)
        text = "".join(f"r{i},{i}\n" for i in range(5000))
        for start in (0, 7, len(text) - 9, len(text)):
            spans = tableio._row_blocks(text, start)
            assert len(spans) <= 1024 and text[start:] == "".join(text[a:b] for a, b in spans)
            assert [a for a, _ in spans] == [start] + [b for _, b in spans[:-1]]
        counts = []
        monkeypatch.setattr(tableio, "_in_two", lambda work, count: counts.append(count)
                            or [work(block) for block in range(count)])
        table = IntervalMatrix([f"r{i}" for i in range(5000)], ["x"], np.zeros((5000, 1)),
                               np.ones((5000, 1)))
        assert parse_interval_csv(write_interval_csv(table)) == table
        assert counts[0] == 1024 >= counts[1] > 512  # the write's blocks, then the parse's

    def test_early_error_stops_helper(self, forks, monkeypatch):
        # The first half is rejected: the helper is killed, not waited for.
        monkeypatch.setattr(tableio, "_send", lambda fd, result: time.sleep(60))
        t0 = time.perf_counter()
        with pytest.raises(DataError, match="'r3'"):
            parse_interval_csv(_BRACKET.replace('r3,"[', 'r3,"[x'))
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1

    def test_error_in_this_process_reaps_helper(self, forks, held):
        parent = os.getpid()

        def work(block: int) -> int:
            if os.getpid() == parent:
                raise ZeroDivisionError
            return block

        with pytest.raises(ZeroDivisionError):
            tableio._in_two(work, 4)
        assert len(forks) == 1

    def test_child_signal_ignored(self, forks, held):
        # The kernel reaps the helpers of a process that ignores SIGCHLD.
        parent = os.getpid()

        def work(block: int) -> int | None:
            if os.getpid() == parent:
                time.sleep(0.5)  # the helper has exited, and is reaped, by now
                return None
            return block

        expected = _CALLS["bracket"]()
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _CALLS["bracket"]() == expected
            assert tableio._in_two(work, 2) is None
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 3

    @pytest.mark.skipif(not _PROC_STAT, reason="needs /proc/self/stat")
    def test_one_thread_at_fork(self, forks):
        # A product this size starts OpenBLAS's worker thread on two cores;
        # its pthread_atfork handler stops it before the fork, so CPython
        # 3.12+, which counts this process's OS threads right after os.fork,
        # sees one and does not warn.
        square = np.ones((256, 256))
        assert (square @ square)[0, 0] == 256.0
        _CALLS["bracket"]()
        assert forks.threads == [1]

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
