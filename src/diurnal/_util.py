"""Shared CSV helpers: deterministic cell formatting, one row reader for the
small tables, and one columnar block reader for records and panels."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError

# Lines per block of the columnar reader. It bounds the reader's working
# memory (a few MB per block) whatever the file size.
BLOCK_LINES = 1 << 14

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
    (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
    (5, "V"), (4, "IV"), (1, "I"),
)

# Code that stands for a NUL inside a field: no code point, so no parser
# takes it for a character it accepts.
_NUL_CODE = 0x110000


def fmt(value) -> str:
    """Render a cell value; floats use shortest round-trip form, NaN is empty."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    f = float(value)
    if math.isnan(f):
        return ""
    return repr(f)


def parse_float(text: str) -> float:
    return math.nan if text == "" else float(text)


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true"):
        return True
    if t in ("0", "false"):
        return False
    raise ValueError(f"not a boolean flag: {text!r}")


def roman(n: int) -> str:
    """Roman numeral for a positive integer (cluster ids in report tables)."""
    if n <= 0:
        raise ValueError("roman() needs a positive integer")
    out = []
    for arabic, glyph in _ROMAN:
        while n >= arabic:
            out.append(glyph)
            n -= arabic
    return "".join(out)


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows with ``csv.writer`` as UTF-8."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def csv_prefix(*fields: str) -> str:
    """The fields as ``csv.writer`` renders them at the start of a row, each
    followed by a comma (quoted only where the text needs it)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue().removesuffix("\r\n")


class Column:
    """One field of a block's rows: the stripped text as a (rows, width)
    matrix of code units, zero-padded (uint8 bytes from the bulk split of
    plain lines, uint32 code points from csv rows), and each row's length.

    numpy str arrays drop trailing NULs, so a column whose text holds a NUL
    also keeps its exact strings, and each NUL inside a row reads as a code
    that is no character.
    """

    __slots__ = ("codes", "length", "strings")

    def __init__(self, codes: np.ndarray, length: np.ndarray,
                 strings: np.ndarray | None = None):
        self.codes = codes
        self.length = length
        self.strings = strings

    @classmethod
    def of(cls, strings: list[str]) -> Column:
        text = np.array(strings, dtype=str)
        codes = text.view(np.uint32).reshape(len(text), text.dtype.itemsize // 4)
        if "\0" not in "".join(strings):
            return cls(codes, np.strings.str_len(text))
        length = np.fromiter(map(len, strings), np.int64, len(strings))
        codes = np.pad(codes, ((0, 0), (0, int(length.max()) - codes.shape[1])))
        codes[(codes == 0) & (np.arange(codes.shape[1]) < length[:, None])] = _NUL_CODE
        return cls(codes, length, np.array(strings, dtype=object))

    def __getitem__(self, rows) -> Column:
        return Column(self.codes[rows], self.length[rows],
                      None if self.strings is None else self.strings[rows])

    def __len__(self) -> int:
        return len(self.length)

    def text(self) -> np.ndarray:
        """The rows as a str array (an object array of str if one holds a NUL)."""
        if self.strings is not None:
            return self.strings
        codes = np.ascontiguousarray(self.codes, dtype=np.uint32)
        return codes.view(f"<U{codes.shape[1]}").ravel()


def parse_floats(column: Column) -> np.ndarray:
    """``float()`` of every row of a column of non-empty strings; raises
    ``ValueError`` where ``float()`` does."""
    return np.fromiter(map(float, column.text().tolist()), np.float64, len(column))


def factorize(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``(distinct values in sorted order, index of each row's value)``.

    Runs of equal values are collapsed first, so a column of long runs
    (station ids, years) sorts only one value per run.
    """
    heads = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    uniq, inv = np.unique(column[heads], return_inverse=True)
    return uniq.tolist(), np.repeat(inv, np.diff(np.append(heads, len(column))))


def _is_data(row: list[str]) -> bool:
    """Whether a csv row is a data row: neither blank nor a header."""
    return bool(row) and (len(row) > 1 or bool(row[0].strip())) and (
        row[0].strip() != "station_id")


def data_rows(rows: Iterable[list[str]], n_fields: int,
              start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, row)`` for the data rows among csv rows numbered from
    ``start``: blank rows and ``station_id`` header rows are skipped, and a
    data row with the wrong number of fields raises ``ParseError``."""
    for line_no, row in enumerate(rows, start=start):
        if not _is_data(row):
            continue
        if len(row) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(row)}", line_no)
        yield line_no, row


def iter_rows(path: str | Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, row)`` for every data row of a CSV file (see
    ``data_rows``); a ``csv.Error`` becomes a ``ParseError`` on its row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows, error = _csv_rows(fh.readlines(), iter(()))
    yield from data_rows(rows, n_fields)
    if error is not None:
        raise ParseError(str(error), len(rows) + 1)


@dataclass
class Block:
    """The csv rows of ``BLOCK_LINES`` consecutive lines (and of the lines
    a quoted field carries past them), split into columns.

    ``columns`` holds, per field, the stripped text of the data rows whose
    field count is right, and ``line_no`` their 1-based row numbers; blank
    and header rows are dropped. ``ragged`` is set when some data row has
    another field count. A consumer that finds anything wrong in a block
    words the error from ``rows()``, which walks its lines row by row.
    """

    start: int
    lines: list[str]
    n_fields: int
    line_no: np.ndarray
    columns: list[Column]
    ragged: bool = False

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        return data_rows(csv.reader(self.lines), self.n_fields, self.start)


def read_blocks(lines: Iterable[str], n_fields: int) -> Iterator[Block]:
    """Split CSV lines into ``Block``s, with the row semantics of
    ``csv.reader`` over all the lines plus ``data_rows``; line numbers count
    csv rows. A ``csv.Error`` (a field over ``csv.field_size_limit()``) is
    raised as a ``ParseError`` with its row's line, once the rows before it
    have been yielded."""
    it = iter(lines)
    start = 1
    while block := list(islice(it, BLOCK_LINES)):
        out = _split_plain(block, start, n_fields)
        error = None
        if out is None:
            rows, error = _csv_rows(block, it)
            out = _split_rows(block, rows, start, n_fields)
            start += len(rows)
        else:
            start += len(block)
        yield out
        if error is not None:
            raise ParseError(str(error), start)


def _csv_rows(lines: list[str],
              more: Iterator[str]) -> tuple[list[list[str]], csv.Error | None]:
    """``csv.reader``'s rows of a block's lines as part of the whole file: a
    quoted field still open at the last line takes further lines from
    ``more``, which are appended to ``lines``, until it closes. Returns the
    rows and the ``csv.Error`` that stopped the reader, if one did."""
    n = len(lines)

    def source() -> Iterator[str]:
        yield from lines[:n]
        for line in more:
            lines.append(line)
            yield line

    reader = csv.reader(source())
    rows: list[list[str]] = []
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= n:
                break
    except csv.Error as exc:
        return rows, exc
    return rows, None


def _split_plain(lines: list[str], start: int, n_fields: int) -> Block | None:
    """Split a block in bulk when every line is a plain row: ASCII, within
    ``csv``'s field size limit, with ``n_fields - 1`` commas and no quote,
    space or control character before its terminator, so that no field
    needs stripping. Anything else returns None, for ``csv.reader`` to
    split."""
    text = "".join(lines)
    if not text.isascii() or '"' in text:
        return None
    size = np.fromiter(map(len, lines), np.int64, len(lines))
    if not size.all() or size.max() > csv.field_size_limit():
        return None
    # Bytes of the text, then room for a field-wide window past its end.
    c = np.frombuffer((text + "\0" * int(size.max())).encode("ascii"), np.uint8)
    end = np.cumsum(size)
    begin = end - size
    # Each line's content stops before its terminator: "\r\n", "\n" or "\r".
    last = c[end - 1]
    crlf = (size > 1) & (last == 10) & (c[np.maximum(end - 2, 0)] == 13)
    stop = end - ((last == 10) | (last == 13)) - crlf
    if np.count_nonzero(c[:len(text)] < 33) != (end - stop).sum():
        return None
    comma = np.flatnonzero(c == 44)
    if len(comma) != len(lines) * (n_fields - 1):
        return None
    # With the total right, each line holds its share iff every line's
    # share of the sorted commas falls inside that line.
    comma = comma.reshape(len(lines), n_fields - 1)
    if (comma[:, 0] < begin).any() or (comma[:, -1] >= stop).any():
        return None
    lo = np.column_stack([begin, comma + 1])
    hi = np.column_stack([comma, stop])
    length = hi - lo
    columns = []
    for j in range(n_fields):
        width = max(int(length[:, j].max()), 1)
        codes = np.lib.stride_tricks.sliding_window_view(c, width)[lo[:, j]]
        codes *= np.arange(width) < length[:, j, None]
        columns.append(Column(codes, length[:, j]))
    header = columns[0].text() == "station_id"
    if header.any():
        columns = [col[~header] for col in columns]
    return Block(start, lines, n_fields, start + np.flatnonzero(~header), columns)


def _split_rows(lines: list[str], rows: list[list[str]], start: int,
                n_fields: int) -> Block:
    """A block's columns from the rows ``csv.reader`` made of its lines."""
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    data = np.fromiter(map(_is_data, rows), bool, len(rows))
    keep = np.flatnonzero(data & (width == n_fields))
    columns = [Column.of([rows[i][j].strip() for i in keep]) for j in range(n_fields)]
    return Block(start, lines, n_fields, start + keep, columns,
                 bool((data & (width != n_fields)).any()))
