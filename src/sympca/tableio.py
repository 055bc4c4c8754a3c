"""CSV ingestion/serialization for interval tables, and concept aggregation.

Interval cells use the bracket grammar ``[lo,hi]`` (whitespace tolerated,
scientific notation accepted). A second read-only layout with paired columns
``name.lo`` / ``name.hi`` is recognized for spreadsheet interoperability.
Files are UTF-8; LF and CRLF inputs are both accepted, output uses LF.
Both CSV forms are read by one ``str.split`` tokeniser in row blocks, as
long as it reads them as ``csv.reader`` would; other text goes to the reader.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

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

# The bracket grammar. On the csv.reader path ``_bracket_texts`` splits the
# cells in bulk; this pattern only words the error once a table is rejected.
_CELL_RE = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")
_PAIR_RE = re.compile(r"^(.+)\.(lo|hi)$")

# Characters of body text per row block. A block ends at the first line end
# after this many characters, so its lines are whole records.
_BLOCK = 1 << 20


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


class _Layout(NamedTuple):
    """What a header says about the body of a table.

    ``convert`` turns the labels and the row-major field texts of some
    records into a tuple of lists and arrays (one row per record), or None
    to reject them; ``cells`` and ``check`` word the first error once a
    table is rejected (see ``_raise_first_error``).
    """

    cols: tuple[str, ...]  # the output's column names
    bracketed: bool  # a field is a [lo,hi] cell, converted as two texts
    convert: Callable[[Sequence[str], list[str]], tuple | None]
    cells: Callable[[list[str]], Iterable[tuple[str, Any]]]
    check: Callable[[Any, str], object]


def _read_records(text: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"unreadable CSV at line {reader.line_num}: {exc}") from None
    if not records:
        raise DataError("empty input: no header row")
    return records


def _header(text: str) -> tuple[list[str] | None, int]:
    """The first record of a text without a carriage return, read by
    ``csv.reader`` line by line, and the offset of the line after it."""
    end = 0

    def lines() -> Iterator[str]:
        nonlocal end
        while end < len(text):
            start, end = end, text.find("\n", end) + 1 or len(text)
            yield text[start:end]

    return next(filter(None, csv.reader(lines())), None), end


def _row_blocks(text: str, start: int) -> Iterator[list[str]]:
    """The non-empty lines of ``text[start:]`` (the reader drops empty
    records), in blocks of about ``_BLOCK`` characters; at least one block,
    empty when the text ends at ``start``.

    Only "\\n" ends a line: ``str.splitlines()`` would also break at
    characters the reader keeps in a field ("\\x1c", "\\x85", "\\u2028").
    """
    while True:
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield list(filter(None, text[start:end].split("\n")))
        if end == len(text):
            return
        start = end


def _plain_fields(lines: list[str], width: int) -> tuple[list[str], list[str]] | None:
    """The labels and the other fields of quote-free records of ``width``
    fields after the label; None when a line holds a quote or another
    number of fields."""
    if any(line.count(",") != width for line in lines):
        return None
    joined = ",".join(lines)
    if '"' in joined:
        return None
    fields = joined.split(",") if lines else []  # "".split(",") is [""]
    labels = fields[:: width + 1]
    del fields[:: width + 1]
    return labels, fields


def _bracket_fields(lines: list[str], width: int) -> tuple[Sequence[str], list[str]] | None:
    """The labels and bound texts, two per cell, of records written as
    ``label,"[lo,hi]",...,"[lo,hi]"`` with ``width`` cells; None when a line
    has another form, or a quote in its label or bounds.

    The label is split off first: a label such as ``ab]"`` followed by
    ``,"[1,2]"`` would otherwise lose its bracket and quote to the
    separators taken off the cells.
    """
    if not lines:
        return [], []
    labels, _, rests = zip(*[line.partition(",") for line in lines])
    if '"' in "".join(labels) or any(rest.count(']","[') != width - 1 for rest in rests):
        return None
    body = "\n".join(rests)
    del rests
    if not (body.startswith('"[') and body.endswith(']"')):
        return None
    # Each cell separator, within a line or across one, becomes an empty
    # field, and every third field is deleted. A quote anywhere else stays
    # in a bound, and so does an empty field off every third place (a cell
    # whose bounds are not two comma-separated texts): float() refuses both.
    fields = body[2:-2].replace(']","[', ",,").replace(']"\n"[', ",,").split(",")
    if len(fields) != 3 * width * len(lines) - 1:
        return None
    del fields[2::3]
    return labels, fields


def _fast_table(
    text: str, layout_of: Callable[[list[str]], _Layout]
) -> tuple[_Layout, list[tuple]] | None:
    """Tokenise and convert the body row block by row block with
    ``str.split``; None as soon as the text needs ``csv.reader``: it holds
    a NUL, a CR that does not end a line, a quote outside the header and
    canonical bracket cells, or a line longer than the field size limit (the
    reader raises on a longer field), or the layout rejects its header or a
    block.

    CRLF line ends are read as LF, and so is a quoted CRLF. In the body
    only a bracket bound can hold one, and ``float()`` strips it there; a
    header name holding LF sends the text to the reader.
    """
    if "\x00" in text:
        return None
    crlf = "\r" in text
    if crlf:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    try:
        header, start = _header(text)
        if header is None or crlf and any("\n" in name for name in header):
            return None
        layout = layout_of(header)
    except (csv.Error, DataError):
        return None  # the csv.reader path raises the same error, in order
    split = _bracket_fields if layout.bracketed else _plain_fields
    width = len(header) - 1
    limit = csv.field_size_limit()
    parts = []
    for lines in _row_blocks(text, start):
        tokens = max(map(len, lines), default=0) <= limit and split(lines, width)
        part = tokens and layout.convert(*tokens)
        if not part:
            return None
        parts.append(part)
    return layout, parts


def _read_table(
    text: str, layout_of: Callable[[list[str]], _Layout]
) -> tuple[_Layout, tuple]:
    """Read a CSV table whose header ``layout_of`` interprets: the layout,
    and the converted body, lists joined end to end and arrays stacked.

    Quote-free text and canonically quoted bracket files are read in row
    blocks (``_fast_table``); any other text goes whole to ``csv.reader``.
    Both give the same values and labels, and the same first error.
    """
    fast = _fast_table(text, layout_of)
    if fast is None:
        header, *body = _read_records(text)
        layout = layout_of(header)
        part = None
        if all(len(record) == len(header) for record in body):
            texts = list(chain.from_iterable(record[1:] for record in body))
            if layout.bracketed:
                texts = _bracket_texts(texts)
            if texts is not None:
                part = layout.convert([record[0] for record in body], texts)
        if part is None:
            _raise_first_error(len(header), body, layout)
        return layout, part
    layout, parts = fast
    return layout, tuple(
        np.concatenate(slot) if isinstance(slot[0], np.ndarray)
        else list(chain.from_iterable(slot))
        for slot in zip(*parts)
    )


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


def _interval_rows(
    labels: Sequence[str], texts: list[str], lo_idx: Sequence[int], hi_idx: Sequence[int]
) -> tuple[Sequence[str], np.ndarray, np.ndarray] | None:
    """Gather a row-major grid of bound texts into lo/hi arrays by column
    index; None when a text is not a finite number or some lo exceeds hi."""
    values = _finite_floats(texts)
    if values is None:
        return None
    grid = values.reshape(len(labels), len(lo_idx) + len(hi_idx))
    # take() keeps lo/hi row-major: column reductions downstream then add in
    # the same order, and give the same bits, as on a cell-by-cell fill.
    lo, hi = grid.take(lo_idx, axis=1), grid.take(hi_idx, axis=1)
    return (labels, lo, hi) if (lo <= hi).all() else None


def _raise_first_error(width: int, body: list[list[str]], layout: _Layout) -> NoReturn:
    """Walk the body records in order and raise the first error: a ragged
    row, else the first of its ``(column, cell)`` pairs that the layout's
    check rejects.

    Runs only after the bulk pass has rejected the table, so that the
    message names the same cell, in the same words, as a cell-by-cell parse.
    """
    for record in body:
        if len(record) != width:
            raise DataError(
                f"ragged row {record[0]!r}: expected {width} fields, "
                f"got {len(record)}"
            )
        for column, cell in layout.cells(record):
            layout.check(cell, f"(row {record[0]!r}, column {column!r})")
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
    layout, (rows, lo, hi) = _read_table(text, _interval_layout)
    return IntervalMatrix(tuple(rows), layout.cols, lo, hi)


def _interval_layout(header: list[str]) -> _Layout:
    names = _header_names(header)
    if not all(_PAIR_RE.match(n) for n in names):
        per_row = 2 * len(names)
        return _Layout(
            tuple(names),
            True,
            partial(_interval_rows, lo_idx=range(0, per_row, 2), hi_idx=range(1, per_row, 2)),
            lambda record: zip(names, record[1:]),
            _check_bracket_cell,
        )
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
    return _Layout(
        tuple(bases),
        False,
        partial(_interval_rows, lo_idx=lo_idx, hi_idx=hi_idx),
        lambda record: (
            (base, (record[1 + a], record[1 + b]))
            for base, a, b in zip(bases, lo_idx, hi_idx)
        ),
        _check_bounds,
    )


def _bracket_texts(cells: Iterable[str]) -> list[str] | None:
    """Split ``[lo,hi]`` cells into their bound texts, two per cell; None
    when a cell is not bracketed or holds no comma.

    Runs on the ``csv.reader`` path only. It accepts every cell ``_CELL_RE``
    does, and more: a bound text holding a comma, a bracket or inner
    whitespace, which ``float()`` then rejects. ``str.strip()`` removes the
    grammar's ``\\s`` whitespace; ``float()`` alone would leave some of it
    (``"\\x1c"``), so a bound padded with it is read on this path only.
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
        if not np.all(np.isfinite(values)):
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


def parse_classic_csv(
    text: str, concept: str | None = None, *, exclude: Iterable[str] = ()
) -> ClassicTable:
    """Parse a classic numeric CSV; ``concept`` names a column kept as text.

    Columns named in ``exclude`` are dropped before any cell is read, so they
    may hold text; naming an unknown column, or the concept column, is a
    DataError.
    """
    layout, (rows, labels, values) = _read_table(
        text, partial(_classic_layout, concept=concept, exclude=set(exclude))
    )
    return ClassicTable(
        tuple(rows), layout.cols, values, concept=concept, concept_labels=tuple(labels)
    )


def _classic_layout(header: list[str], concept: str | None, exclude: set[str]) -> _Layout:
    names = _header_names(header)
    if len(set(names)) != len(names):
        raise DataError("duplicate column label in classic table header")
    if concept is not None and concept not in names:
        raise DataError(f"concept column {concept!r} not found")
    unknown = (exclude - set(names)) | (exclude & {concept})
    if unknown:
        raise DataError(f"no column named {sorted(unknown)[0]!r}")
    gone = [j for j, name in enumerate(names) if name == concept or name in exclude]
    data_idx = [j for j in range(len(names)) if j not in gone]
    if not data_idx:
        raise DataError("no data column left: every column is the concept or excluded")
    return _Layout(
        tuple(names[j] for j in data_idx),
        False,
        partial(
            _classic_rows,
            width=len(names),
            concept_idx=None if concept is None else names.index(concept),
            gone=gone[::-1],
        ),
        lambda record: ((names[j], record[1 + j]) for j in data_idx),
        _parse_number,
    )


def _classic_rows(
    labels: list[str],
    fields: list[str],
    width: int,
    concept_idx: int | None,
    gone: list[int],
) -> tuple[list[str], list[str], np.ndarray] | None:
    """The labels, concept labels and value grid of a row-major field list
    of ``width`` columns; None when a data field is not a finite number."""
    concept_labels = []
    if concept_idx is not None:
        concept_labels = list(map(str.strip, fields[concept_idx::width]))
    # Right to left, so a deletion moves none of the columns still to go.
    for j in gone:
        del fields[j::width]
        width -= 1
    values = _finite_floats(fields)
    if values is None:
        return None
    return labels, concept_labels, values.reshape(len(labels), width)


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
