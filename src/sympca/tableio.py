"""CSV ingestion/serialization for interval tables, and concept aggregation.

Interval cells use the bracket grammar ``[lo,hi]`` (whitespace tolerated,
scientific notation accepted). A second read-only layout with paired columns
``name.lo`` / ``name.hi`` is recognized for spreadsheet interoperability.
Files are UTF-8; LF and CRLF inputs are both accepted, output uses LF.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Iterable, NoReturn, Sequence

import numpy as np

from .errors import DataError
from .intervals import IntervalMatrix

__all__ = [
    "ClassicTable",
    "parse_interval_csv",
    "write_interval_csv",
    "parse_classic_csv",
    "aggregate_classic",
]

# The bracket grammar. ``_bracket_texts`` accepts the same cells in bulk;
# this pattern only words the error once a table is rejected.
_CELL_RE = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")
_PAIR_RE = re.compile(r"^(.+)\.(lo|hi)$")


def _parse_number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"malformed number {text!r} at {where}") from None
    if not np.isfinite(value):
        raise DataError(f"non-finite number {text!r} at {where}")
    return value


def _check_bounds(texts: tuple[str, str], where: str) -> None:
    if _parse_number(texts[0], where) > _parse_number(texts[1], where):
        raise DataError(f"lower bound exceeds upper bound at {where}")


def _check_bracket_cell(cell: str, where: str) -> None:
    match = _CELL_RE.match(cell)
    if match is None:
        raise DataError(f"malformed interval cell {cell!r} at {where}")
    _check_bounds(match.groups(), where)


def _read_records(text: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"unreadable CSV at line {reader.line_num}: {exc}") from None
    if not records:
        raise DataError("empty input: no header row")
    return records


def _plain_lines(text: str) -> list[str] | None:
    """The non-empty lines of a text that ``csv.reader`` would split at
    every "," and "\\n" and nowhere else; None when the text needs the reader:
    it holds a quote, a carriage return or a NUL, or a line longer than the
    field size limit, on which the reader raises.

    ``str.splitlines()`` would also break at characters the reader keeps in
    a field ("\\x1c", "\\x85", "\\u2028").
    """
    if '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = list(filter(None, text.split("\n")))  # the reader drops empty records
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _read_table(text: str) -> tuple[list[str], list[str] | None]:
    """Tokenise CSV text into its header record and the fields of its body,
    row-major in one flat list; the list is None when some body record's
    length differs from the header's.

    Quote-free text is split with ``str.split``, anything else is read with
    ``csv.reader``; both give the same fields.
    """
    lines = _plain_lines(text)
    if lines is None:
        header, *body = _read_records(text)
        width = len(header)
        if any(len(record) != width for record in body):
            return header, None
        return header, list(chain.from_iterable(body))
    if not lines:
        raise DataError("empty input: no header row")
    header = lines[0].split(",")
    body = lines[1:]
    commas = len(header) - 1
    if any(line.count(",") != commas for line in body):
        return header, None
    # "".split(",") is [""], not []: a header-only text has no fields
    return header, ",".join(body).split(",") if body else []


def _header_names(header: list[str]) -> list[str]:
    if len(header) < 2:
        raise DataError("header must name at least one data column")
    return header[1:]


def _finite_floats(texts: list[str]) -> np.ndarray | None:
    """Convert every text with Python ``float()`` syntax; None when any text
    is malformed or converts to a non-finite value."""
    try:
        values = np.fromiter(map(float, texts), float, count=len(texts))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _ordered_bounds(
    texts: list[str], rows: int, lo_idx: Sequence[int], hi_idx: Sequence[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Gather a row-major grid of bound texts into lo/hi arrays by column
    index; None when a text is not a finite number or some lo exceeds hi."""
    values = _finite_floats(texts)
    if values is None:
        return None
    grid = values.reshape(rows, len(lo_idx) + len(hi_idx))
    # take() keeps lo/hi row-major: column reductions downstream then add in
    # the same order, and give the same bits, as on a cell-by-cell fill.
    lo, hi = grid.take(lo_idx, axis=1), grid.take(hi_idx, axis=1)
    return (lo, hi) if (lo <= hi).all() else None


def _take_labels(fields: list[str], width: int) -> list[str]:
    """Remove the record labels, every ``width``-th field from the first,
    from a flat row-major field list, and return them."""
    labels = fields[::width]
    del fields[::width]
    return labels


def _raise_first_error(
    text: str,
    cells: Callable[[list[str]], Iterable[tuple[str, Any]]],
    check: Callable[[Any, str], object],
) -> NoReturn:
    """Walk the body records of ``text`` in order and raise the first error:
    a ragged row, else the first of its ``(column, cell)`` pairs that
    ``check`` rejects.

    Runs only after the bulk pass has rejected the table, so that the
    message names the same cell, in the same words, as a cell-by-cell parse.
    """
    header, *body = _read_records(text)
    width = len(header)
    for record in body:
        if len(record) != width:
            raise DataError(
                f"ragged row {record[0]!r}: expected {width} fields, "
                f"got {len(record)}"
            )
        for column, cell in cells(record):
            check(cell, f"(row {record[0]!r}, column {column!r})")
    raise AssertionError("bulk parse rejected a table every cell check accepts")


def parse_interval_csv(text: str) -> IntervalMatrix:
    """Parse an interval table from CSV text.

    The header row names the columns; the first column of every record is
    the row label. Cells are ``[lo,hi]`` brackets, or plain numbers under a
    paired ``name.lo`` / ``name.hi`` header layout. Numbers use Python
    ``float()`` syntax.

    Raises DataError for malformed cells (with row/column position),
    inverted bounds, ragged rows, or duplicate labels; the message names the
    first bad cell in record order.
    """
    header, fields = _read_table(text)
    names = _header_names(header)
    if all(_PAIR_RE.match(n) for n in names) and names:
        return _parse_paired(text, names, fields)
    return _parse_bracketed(text, names, fields)


def _bracket_texts(cells: Iterable[str]) -> list[str] | None:
    """Split ``[lo,hi]`` cells into their bound texts, two per cell; None
    when a cell is not bracketed or holds no comma.

    It accepts every cell ``_CELL_RE`` does, and more: a bound text holding
    a comma, a bracket or inner whitespace, which ``float()`` then rejects.
    ``str.strip()`` removes the grammar's ``\\s`` whitespace; ``float()``
    alone would leave some of it (``"\\x1c"``).
    """
    texts: list[str] = []
    add = texts.append
    for cell in cells:
        head, _, tail = cell.strip().partition(",")
        if head[:1] != "[" or tail[-1:] != "]":  # no comma: the tail is ""
            return None
        add(head[1:].strip())
        add(tail[:-1].strip())
    return texts


def _parse_bracketed(
    text: str, cols: list[str], fields: list[str] | None
) -> IntervalMatrix:
    bounds = None
    if fields is not None:
        rows = _take_labels(fields, len(cols) + 1)
        texts = _bracket_texts(fields)
        if texts is not None:
            per_row = 2 * len(cols)
            bounds = _ordered_bounds(
                texts, len(rows), range(0, per_row, 2), range(1, per_row, 2)
            )
    if bounds is None:
        _raise_first_error(text, lambda record: zip(cols, record[1:]), _check_bracket_cell)
    return IntervalMatrix(tuple(rows), tuple(cols), *bounds)


def _parse_paired(
    text: str, names: list[str], fields: list[str] | None
) -> IntervalMatrix:
    bases: list[str] = []
    slots: dict[str, dict[str, int]] = {}
    for j, name in enumerate(names):
        base, side = _PAIR_RE.match(name).groups()
        if base not in slots:
            bases.append(base)
            slots[base] = {}
        if side in slots[base]:
            raise DataError(f"duplicate column label: {name!r}")
        slots[base][side] = j
    for base in bases:
        if set(slots[base]) != {"lo", "hi"}:
            raise DataError(f"incomplete bound pair for column {base!r}")
    lo_idx = [slots[base]["lo"] for base in bases]
    hi_idx = [slots[base]["hi"] for base in bases]
    bounds = None
    if fields is not None:
        rows = _take_labels(fields, len(names) + 1)
        bounds = _ordered_bounds(fields, len(rows), lo_idx, hi_idx)
    if bounds is None:
        _raise_first_error(
            text,
            lambda record: (
                (base, (record[1 + a], record[1 + b]))
                for base, a, b in zip(bases, lo_idx, hi_idx)
            ),
            _check_bounds,
        )
    return IntervalMatrix(tuple(rows), tuple(bases), *bounds)


def write_interval_csv(table: IntervalMatrix) -> str:
    """Serialize to the bracket-cell CSV grammar; reparsing is exact."""
    lines: list[str] = []
    sink = SimpleNamespace(write=lines.append)  # csv writes one string a record
    # With an LF terminator csv quotes a field holding "\n" but not a bare
    # "\r", which a reader takes for a line end; a header with one is
    # written fully quoted.
    header = ["", *table.cols]
    quoted = any("\r" in name for name in header)
    csv.writer(
        sink, lineterminator="\n", quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL
    ).writerow(header)
    # csv quotes each label as the first field of a record, with an empty
    # second field unless there are no cells (a lone empty field is written
    # '""'). Its CRLF terminator makes it quote a bare "\r" too, which gives
    # the bytes of a fully quoted record. A bracket cell always holds a comma,
    # so csv would quote it as is: the cells skip csv and are formatted row
    # by row, repr being the shortest float text that parses back exactly.
    label = csv.writer(sink, lineterminator="\r\n")
    pad = ("",) if table.cols else ()
    cell = '"[{!r},{!r}]"'.format
    for name, lows, highs in zip(table.rows, table.lo.tolist(), table.hi.tolist()):
        label.writerow((name, *pad))
        lines[-1] = lines[-1][:-2] + ",".join(map(cell, lows, highs)) + "\n"
    return "".join(lines)


@dataclass(frozen=True, eq=False)
class ClassicTable:
    """Single-valued (classic) numeric table, optionally carrying one
    designated concept column as text for later aggregation.

    ``cols``/``values`` hold the numeric data columns only; the concept
    column, when designated, lives in ``concept``/``concept_labels``.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray
    concept: str | None = None
    concept_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        expected = (len(self.rows), len(self.cols))
        if values.shape != expected:
            raise DataError(
                f"value grid shape {values.shape} does not match labels {expected}"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise DataError("classic table contains non-finite cells")
        if self.concept is not None and len(self.concept_labels) != len(self.rows):
            raise DataError("concept labels must cover every row")
        object.__setattr__(self, "rows", tuple(str(r) for r in self.rows))
        object.__setattr__(self, "cols", tuple(str(c) for c in self.cols))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "concept_labels", tuple(self.concept_labels))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def parse_classic_csv(text: str, concept: str | None = None) -> ClassicTable:
    """Parse a classic numeric CSV; ``concept`` names a column kept as text."""
    header, fields = _read_table(text)
    names = _header_names(header)
    if len(set(names)) != len(names):
        raise DataError("duplicate column label in classic table header")
    concept_idx: int | None = None
    if concept is not None:
        if concept not in names:
            raise DataError(f"concept column {concept!r} not found")
        concept_idx = names.index(concept)
    data_idx = [j for j in range(len(names)) if j != concept_idx]
    values = None
    if fields is not None:
        width = len(header)
        concept_labels: tuple[str, ...] = ()
        if concept_idx is not None:
            concept_labels = tuple(map(str.strip, fields[1 + concept_idx :: width]))
            del fields[1 + concept_idx :: width]
            width -= 1
        rows = _take_labels(fields, width)
        values = _finite_floats(fields)
    if values is None:
        _raise_first_error(
            text,
            lambda record: ((names[j], record[1 + j]) for j in data_idx),
            _parse_number,
        )
    return ClassicTable(
        tuple(rows),
        tuple(names[j] for j in data_idx),
        values.reshape(len(rows), len(data_idx)),
        concept=concept,
        concept_labels=concept_labels,
    )


def aggregate_classic(table: ClassicTable, concept_col: str) -> IntervalMatrix:
    """Collapse a classic table into an interval table by its concept column.

    ``concept_col`` must name the designated concept column; rows are grouped
    by its text. One output row per distinct label, in order of first
    appearance; each cell is the [min, max] of the group's values.
    """
    if len(table.rows) == 0:
        raise DataError("cannot aggregate an empty table")
    if table.concept != concept_col:
        if concept_col in table.cols:
            raise DataError(
                f"column {concept_col!r} is numeric data, not the concept column: "
                f"parse the file with concept={concept_col!r} to group by its text"
            )
        raise DataError(f"concept column {concept_col!r} not found")
    index: dict[str, int] = {}
    group = np.fromiter(
        (index.setdefault(key, len(index)) for key in table.concept_labels),
        np.intp,
        count=len(table.rows),
    )
    # A stable sort keeps each group's rows contiguous and in input order.
    by_group = table.values[np.argsort(group, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(np.bincount(group))[:-1]))
    lo = np.minimum.reduceat(by_group, starts, axis=0)
    hi = np.maximum.reduceat(by_group, starts, axis=0)
    return IntervalMatrix(tuple(index), table.cols, lo, hi)
