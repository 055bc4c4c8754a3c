"""CSV ingestion/serialization for interval tables, and concept aggregation.

Interval cells use the bracket grammar ``[lo,hi]`` (whitespace tolerated,
scientific notation accepted). A second read-only layout with paired columns
``name.lo`` / ``name.hi`` is recognized for spreadsheet interoperability.
Files are UTF-8; LF and CRLF inputs are both accepted, output uses LF.
Both CSV forms are read by one ``str.split`` tokeniser in row blocks, as
long as it reads them as ``csv.reader`` would; other text goes to the reader,
whose bracket cells are read by ``_CELL_RE``, as in the error walk.
A job of two or more row blocks, read or written, is shared with one forked
helper process where that is safe (see ``_in_two``).
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import re
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import DataError, _finite_array
from .intervals import IntervalMatrix, _check_labels

__all__ = [
    "ClassicTable",
    "parse_interval_csv",
    "write_interval_csv",
    "parse_classic_csv",
    "aggregate_classic",
]

# The bracket grammar: the one reader of a cell on the csv.reader path and in
# the error walk. Its ``\s`` is ``str.isspace()``; ``float()`` alone does not
# strip all of it (``"\x1c"``), so only this reads a bound padded with it.
_CELL_RE = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")
_PAIR_RE = re.compile(r"^(.+)\.(lo|hi)$")
_QUOTE_RE = re.compile(r'[,"\r\n]')  # a written field holding one is quoted

# Characters of body text per row block. A block ends at the first line end
# after this many characters, so its lines are whole records.
_BLOCK = 1 << 20

_fork = getattr(os, "fork", None)  # None on Windows


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _send(fd: int, result: object) -> None:
    with open(fd, "wb") as pipe:
        pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)


def _in_two(work: Callable[[int, int], list | None], count: int) -> list | None:
    """``work(0, count)`` for a job of ``count`` row blocks, done as
    ``work(0, half) + work(half, count)``; None when either half is None.

    With two or more blocks, ``os.fork``, two usable CPUs and no other
    thread (a forked child could block on a lock another thread held), a
    forked helper does the second half while this process does the first,
    sends its result through a pipe and leaves by ``os._exit``. A helper
    that fails, or dies, before its whole result is sent (a short pickle
    does not load) leaves its half to be done here, so the outcome, values
    and first error alike, is that of one process. No helper outlives the
    call.
    """
    half = count // 2
    if count < 2 or _fork is None or _usable_cpus() < 2 or threading.active_count() > 1:
        return work(0, count)
    read, write = os.pipe()
    pid = _fork()
    if pid == 0:  # the helper
        code = 1
        try:
            os.close(read)
            _send(write, work(half, count))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    data = None
    try:
        with open(read, "rb") as pipe:
            first = work(0, half)
            if first is not None:
                data = pipe.read()
    finally:
        try:
            if data is None:  # the helper's half is not needed, or this process failed
                from signal import SIGKILL  # here: `import sympca` does not load signal

                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # SIGCHLD ignored: the kernel reaps
            pass
    if first is None:
        return None
    try:
        second = pickle.loads(data)
    except (pickle.UnpicklingError, EOFError):
        second = work(half, count)
    return None if second is None else first + second


def _parse_number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"malformed number {text!r} at {where}") from None
    if not np.isfinite(value):
        raise DataError(f"non-finite number {text!r} at {where}")
    return value


class _Layout(NamedTuple):
    """What a header says about the body of a table.

    ``convert`` turns the labels and the row-major field texts of some
    records into a tuple of lists and arrays (one row per record), or None
    to reject them. ``fields`` maps each checked column to the indexes of
    its fields in a record, one for a cell, lo and hi for a paired column;
    the error walk reads them (see ``_raise_first_error``).
    """

    cols: tuple[str, ...]  # the output's column names
    bracketed: bool  # a field is a [lo,hi] cell, converted as two texts
    convert: Callable[[Sequence[str], list[str]], tuple | None]
    fields: list[tuple[str, tuple[int, ...]]]


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


def _row_blocks(text: str, start: int) -> list[tuple[int, int]]:
    """The spans of ``text[start:]`` in blocks of about ``_BLOCK``
    characters, each ending after a line end or at the end of the text; at
    least one block, empty when the text ends at ``start``."""
    spans = []
    while True:
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        spans.append((start, end))
        if end == len(text):
            return spans
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
    spans = _row_blocks(text, start)

    def convert(first: int, last: int) -> list[tuple] | None:
        parts = []
        for begin, end in spans[first:last]:
            # The non-empty lines (the reader drops empty records). Only
            # "\n" ends a line: str.splitlines() would also break at
            # characters the reader keeps in a field ("\x1c", "\x85", "\u2028").
            lines = list(filter(None, text[begin:end].split("\n")))
            tokens = max(map(len, lines), default=0) <= limit and split(lines, width)
            part = tokens and layout.convert(*tokens)
            if not part:
                return None
            parts.append(part)
        return parts

    parts = _in_two(convert, len(spans))
    return None if parts is None else (layout, parts)


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
                cells = list(map(_CELL_RE.match, texts))
                texts = None if None in cells else [t for c in cells for t in c.groups()]
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
    row, else the first of its columns (``layout.fields``) whose cell is not
    a bracket cell, whose number is malformed or not finite, or whose lower
    bound exceeds its upper one.

    Runs only after the bulk pass has rejected the table, so that the
    message names the same cell, in the same words, as a cell-by-cell parse.
    """
    for record in body:
        if len(record) != width:
            raise DataError(
                f"ragged row {record[0]!r}: expected {width} fields, "
                f"got {len(record)}"
            )
        for column, indexes in layout.fields:
            where = f"(row {record[0]!r}, column {column!r})"
            texts = [record[i] for i in indexes]
            if layout.bracketed:
                match = _CELL_RE.match(texts[0])
                if match is None:
                    raise DataError(f"malformed interval cell {texts[0]!r} at {where}")
                texts = match.groups()
            values = [_parse_number(text, where) for text in texts]
            if values[0] > values[-1]:
                raise DataError(f"lower bound exceeds upper bound at {where}")
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
            [(name, (1 + j,)) for j, name in enumerate(names)],
        )
    _check_labels(names, "column")
    slots: dict[str, dict[str, int]] = {}
    for j, name in enumerate(names):
        base, side = _PAIR_RE.match(name).groups()
        slots.setdefault(base, {})[side] = j
    bases = list(slots)
    for base in bases:
        if set(slots[base]) != {"lo", "hi"}:
            raise DataError(f"incomplete bound pair for column {base!r}")
    lo_idx = [slots[base]["lo"] for base in bases]
    hi_idx = [slots[base]["hi"] for base in bases]
    return _Layout(
        tuple(bases),
        False,
        partial(_interval_rows, lo_idx=lo_idx, hi_idx=hi_idx),
        [(base, (1 + a, 1 + b)) for base, a, b in zip(bases, lo_idx, hi_idx)],
    )


def _field(text: str, quote: bool = False) -> str:
    """``text`` as a CSV field: quoted, its quotes doubled, if ``quote`` or if
    ``_QUOTE_RE`` finds a character of it (as ``csv.QUOTE_MINIMAL`` would)."""
    return '"' + text.replace('"', '""') + '"' if quote or _QUOTE_RE.search(text) else text


def write_interval_csv(table: IntervalMatrix) -> str:
    """Serialize to the bracket-cell CSV grammar; reparsing is exact.

    A header with a CR in a name has every field quoted; a record of one
    empty field is written '""'. A cell holds a comma, so it is quoted;
    ``repr`` is the shortest float text that parses back exactly."""
    header = ("", *table.cols)
    whole = any("\r" in name for name in header)
    head = ",".join([_field(name, whole) for name in header]) or '""'
    # Equal row blocks of _BLOCK to 2 * _BLOCK characters, taking a cell for 48.
    m = len(table.rows)
    blocks = max(1, min(m, m * (48 * len(table.cols) + 16) // _BLOCK))
    step = -(-m // blocks)

    def records(first: int, last: int) -> list[str]:
        rows = slice(first * step, last * step)
        out: list[str] = []
        for name, lows, highs in zip(
            table.rows[rows], table.lo[rows].tolist(), table.hi[rows].tolist()
        ):
            cells = "".join([f',"[{a!r},{b!r}]"' for a, b in zip(lows, highs)])
            out.append((_field(name) + cells or '""') + "\n")
        return ["".join(out)]

    return "".join([head, "\n", *_in_two(records, blocks)])


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
        values = _finite_array(self.values, "classic table", ndim=None)
        expected = (len(self.rows), len(self.cols))
        if values.shape != expected:
            raise DataError(
                f"value grid shape {values.shape} does not match labels {expected}"
            )
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
    _check_labels(names, "column")
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
        [(names[j], (1 + j,)) for j in data_idx],
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
    appearance; each cell is the [min, max] of the group's values, with the
    zeros ordered -0.0 < 0.0 as by IEEE 754-2019 minimum and maximum.
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
    # A stable sort keeps each group's rows contiguous and in input order;
    # gathered column-major, each reduction runs along contiguous memory.
    by_group = np.ascontiguousarray(table.values.T[:, np.argsort(group, kind="stable")])
    starts = np.concatenate(([0], np.cumsum(np.bincount(group))[:-1]))
    lo = np.minimum.reduceat(by_group, starts, axis=1)
    hi = np.maximum.reduceat(by_group, starts, axis=1)
    # A zero extreme takes its sign from the reduction's loop order; IEEE
    # 754-2019 minimum and maximum order -0.0 below 0.0. Only a zero end
    # needs the group's zeros looked at.
    if not (lo.all() and hi.all()):
        zeros = by_group == 0.0
        negative = np.signbit(by_group)
        has_neg = np.logical_or.reduceat(zeros & negative, starts, axis=1)
        has_pos = np.logical_or.reduceat(zeros & ~negative, starts, axis=1)
        lo = np.where(lo == 0.0, np.where(has_neg, -0.0, 0.0), lo)
        hi = np.where(hi == 0.0, np.where(has_pos, 0.0, -0.0), hi)
    return IntervalMatrix(tuple(index), table.cols, np.ascontiguousarray(lo.T),
                          np.ascontiguousarray(hi.T))
