"""Shared CSV helpers: deterministic cell formatting, one row reader for the
small tables, and one columnar block reader for records and panels."""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import ParseError

# Lines per block of the columnar reader. It bounds the reader's working
# memory (a few MB per block) whatever the file size.
BLOCK_LINES = 1 << 14
# Bytes per read of a binary file; a block takes as many reads as its
# lines need. Reads of 256 KiB left a lower peak RSS than reads of 1 MiB
# in every CLI stage that reads records or a panel.
READ_BYTES = 1 << 18

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
    (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
    (5, "V"), (4, "IV"), (1, "I"),
)

# Code that stands for a NUL inside a field: no code point, so no parser
# takes it for a character it accepts.
_NUL_CODE = 0x110000

# A lone surrogate U+DC80-U+DCFF is how the ``surrogateescape`` error
# handler holds a byte that is not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")

# _PREFIX[k] keeps the first k bytes of a little-endian 8-byte word.
_PREFIX = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


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
    plain lines, in whole 8-byte words; uint32 code points from csv rows),
    and each row's length.

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
    """``parse_float`` of every row of a column: NaN where it is empty, else
    ``float()`` of its text; raises ``ValueError`` where ``float()`` does.

    The bulk-split rows of at most 8 bytes are factorized by their word
    keys, so ``float()`` runs once per distinct text and the result is
    gathered per row; any other row goes through ``float()`` on its own.
    """
    narrow = (column.codes.dtype == np.uint8) & (column.length <= 8)
    texts, index = factorize(Column(column.codes[:, :8] * narrow[:, None],
                                    column.length * narrow))
    out = np.array([parse_float(t) for t in texts])[index]
    if not narrow.all():
        wide = ~narrow
        out[wide] = [parse_float(t) for t in column[wide].text().tolist()]
    return out


def factorize(column: Column) -> tuple[list[str], np.ndarray]:
    """``(distinct texts in sorted order, index of each row's text)``.

    A bulk-split column whose rows all fit one 8-byte word is keyed by each
    row's first word read big-endian: its zero padding sorts first, so the
    keys sort as the texts do. Any other column is keyed by its text. The
    keys go through ``unique_runs``.
    """
    keyed = column.codes.dtype == np.uint8 and column.length.max(initial=0) <= 8
    uniq, inv = unique_runs(column.codes[:, :8].view(">u8").ravel() if keyed else column.text())
    if keyed:
        # A bytes string drops the zero padding.
        uniq = uniq.astype(">u8").view("S8").astype(str)
    return uniq.tolist(), inv


def unique_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, sorting one value per run
    where the runs are long (station ids, years)."""
    heads = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    if 2 * len(heads) > len(values):
        return np.unique(values, return_inverse=True)
    uniq, inv = np.unique(values[heads], return_inverse=True)
    return uniq, np.repeat(inv, np.diff(np.append(heads, len(values))))


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
    ``data_rows``), after a UTF-8 byte order mark at its start; a
    ``csv.Error``, or a byte that is not UTF-8, becomes a ``ParseError`` on
    its row once the rows before it have been yielded."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        rows, error = _text_rows(fh.readlines(), iter(()), 1)
    yield from data_rows(rows, n_fields)
    if error is not None:
        raise error


@dataclass
class Block:
    """The csv rows of ``BLOCK_LINES`` consecutive lines (and of the lines
    a quoted field carries past them), split into columns.

    ``columns`` holds, per field, the stripped text of the data rows whose
    field count is right, and ``line_no`` their 1-based row numbers; blank
    and header rows are dropped. ``ragged`` is set when some data row has
    another field count. ``csv_rows`` holds the rows ``csv.reader`` made of
    the lines, where the block was not split in bulk. A consumer that finds
    anything wrong in a block words the error from ``rows()``.
    """

    start: int
    n_fields: int
    line_no: np.ndarray
    columns: list[Column]
    ragged: bool = False
    csv_rows: list[list[str]] | None = None

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """``(line_no, row)`` for the block's data rows, as ``data_rows``
        yields them."""
        if self.csv_rows is not None:
            return data_rows(self.csv_rows, self.n_fields, self.start)
        # A bulk-split row is its fields' text: no field needed stripping.
        fields = [column.text().tolist() for column in self.columns]
        return zip(self.line_no.tolist(), map(list, zip(*fields)))


def read_blocks(fh: BinaryIO, n_fields: int) -> Iterator[Block]:
    """Split a CSV file opened in binary mode into ``Block``s, with the row
    semantics of ``csv.reader`` over the file read as UTF-8 text with
    ``newline=""``, plus ``data_rows``; line numbers count csv rows, and a
    UTF-8 byte order mark at the start of the file is skipped. A
    ``csv.Error`` (a field over ``csv.field_size_limit()``), or a byte that
    is not UTF-8, is raised as a ``ParseError`` with its row's line, once
    the rows before it have been yielded."""
    lines = _ByteLines(fh)
    cuts = ((data, ends, None) for data, ends in iter(lambda: lines.take(BLOCK_LINES), None))
    more = (data.decode("utf-8", "surrogateescape")
            for data, _ in iter(lambda: lines.take(1), None))
    return _blocks(cuts, more, n_fields)


def line_blocks(lines: Iterable[str], n_fields: int) -> Iterator[Block]:
    """``read_blocks`` over lines of text, each a line to ``csv.reader``
    whether or not it ends in a line terminator; a byte order mark at the
    start of the first line is skipped."""
    it = iter(lines)
    if (first := next(it, None)) is not None:
        it = chain([first.removeprefix("\ufeff")], it)

    def cuts() -> Iterator[tuple[bytes, np.ndarray, list[str]]]:
        while block := list(islice(it, BLOCK_LINES)):
            # The ends count characters, so they hold only for ASCII text,
            # the only text the bulk split accepts.
            ends = np.cumsum(np.fromiter(map(len, block), np.int64, len(block)))
            yield "".join(block).encode("utf-8", "surrogatepass"), ends, block

    return _blocks(cuts(), it, n_fields)


def _blocks(cuts: Iterator[tuple[bytes, np.ndarray, list[str] | None]],
            more: Iterator[str], n_fields: int) -> Iterator[Block]:
    """Blocks from cuts ``(data, ends, lines)``: the bytes of some lines, the
    end of each line in them, and the lines as text (None to decode them
    from the bytes). A cut the bulk split refuses goes to ``csv.reader``,
    which takes lines from ``more`` while a quoted field is open."""
    start = 1
    for data, ends, lines in cuts:
        block = _split_plain(data, ends, start, n_fields)
        error = None
        if block is None:
            if lines is None:
                text = data.decode("utf-8", "surrogateescape")
                lines = io.StringIO(text, newline="").readlines()
            rows, error = _text_rows(lines, more, start)
            block = _split_rows(rows, start, n_fields)
            start += len(rows)
        else:
            start += len(ends)
        yield block
        if error is not None:
            raise error


class _ByteLines:
    """The lines of a binary file, read ``READ_BYTES`` at a time. A line
    ends where text mode with ``newline=""`` ends one: after ``\\n``, after
    ``\\r\\n``, and after a ``\\r`` that does not begin a ``\\r\\n``; the last
    line may have no terminator. A UTF-8 byte order mark at the start of
    the file is skipped."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.buf = fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
        self.pos = 0  # where the lines not yet taken begin in buf
        self.scanned = 0  # where the search for line ends goes on in buf
        self.ends = np.empty(0, np.int64)  # the line ends found after pos
        self.done = False

    def take(self, n: int) -> tuple[bytes, np.ndarray] | None:
        """The next ``n`` lines (fewer at the end of the file) as bytes, and
        the end of each in them; None once every line has been taken."""
        while len(self.ends) < n and self._read():
            pass
        if not len(self.ends):
            return None
        ends, self.ends = self.ends[:n] - self.pos, self.ends[n:]
        data = self.buf[self.pos:self.pos + int(ends[-1])]
        self.pos += int(ends[-1])
        return data, ends

    def _read(self) -> bool:
        """Read on and find the line ends in what was read; False once the
        file is used up."""
        if self.done:
            return False
        chunk = self.fh.read(READ_BYTES)
        self.done = not chunk
        self.buf = self.buf[self.pos:] + chunk
        lo = self.scanned - self.pos
        # A "\r" last in what was read may begin a "\r\n": it waits for the
        # next read.
        hi = len(self.buf) - (not self.done and self.buf.endswith(b"\r"))
        c = np.frombuffer(self.buf, np.uint8, hi - lo, lo)
        found = np.flatnonzero(c == 10)
        if self.buf.find(b"\r", lo, hi) >= 0:
            # A "\r" last before hi is followed by another "\r" or by the
            # end of the file, so it reads itself as the byte after it.
            cr = np.flatnonzero(c == 13)
            lone = cr[c[np.minimum(cr + 1, len(c) - 1)] != 10]
            if len(lone):
                found = np.union1d(found, lone)
        ends = np.concatenate((self.ends - self.pos, found + lo + 1))
        if self.done and len(self.buf) > (ends[-1] if len(ends) else 0):
            ends = np.append(ends, len(self.buf))
        self.ends, self.pos, self.scanned = ends, 0, hi
        return True


def _text_rows(lines: list[str], more: Iterator[str],
               start: int) -> tuple[list[list[str]], ParseError | None]:
    """``_csv_rows`` of lines whose first row is row ``start``, up to the
    first row that holds a byte that is not UTF-8 (decoded with
    ``surrogateescape``). Returns those rows and the ``ParseError`` that
    ends them, if any."""
    rows, error = _csv_rows(lines, more)
    if _UNDECODED.search("".join(lines)):
        for i, row in enumerate(rows):
            if bad := _UNDECODED.search("".join(row)):
                byte = ord(bad.group()) - 0xDC00
                return rows[:i], ParseError(f"invalid UTF-8 byte 0x{byte:02x}", start + i)
    if error is not None:
        return rows, ParseError(str(error), start + len(rows))
    return rows, None


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


def _split_plain(data: bytes, end: np.ndarray, start: int, n_fields: int) -> Block | None:
    """Split a block in bulk when every line is a plain row: ASCII, within
    ``csv``'s field size limit, with ``n_fields - 1`` commas and no quote,
    space or control character before its terminator, so that no field
    needs stripping. ``end`` is where each line ends in ``data``. Anything
    else returns None, for ``csv.reader`` to split."""
    if not data.isascii() or b'"' in data:
        return None
    size = np.diff(end, prepend=0)
    if not size.all() or size.max() > csv.field_size_limit():
        return None
    # The bytes, then room for a window of a field's whole words past
    # their end.
    c = np.frombuffer(data + bytes(int(size.max()) + 8), np.uint8)
    begin = end - size
    # Each line's content stops before its terminator: "\r\n", "\n" or "\r".
    last = c[end - 1]
    crlf = (size > 1) & (last == 10) & (c[np.maximum(end - 2, 0)] == 13)
    stop = end - ((last == 10) | (last == 13)) - crlf
    if np.count_nonzero(c[:len(data)] < 33) != (end - stop).sum():
        return None
    comma = np.flatnonzero(c == 44)
    if len(comma) != len(end) * (n_fields - 1):
        return None
    # With the total right, each line holds its share iff every line's
    # share of the sorted commas falls inside that line.
    comma = comma.reshape(len(end), n_fields - 1)
    if (comma[:, 0] < begin).any() or (comma[:, -1] >= stop).any():
        return None
    # The little-endian 8-byte word that starts at each byte.
    at = np.ndarray((len(c) - 7,), "<u8", c, 0, (1,))
    columns = []
    for j in range(n_fields):
        lo = begin if j == 0 else comma[:, j - 1] + 1
        chars = (comma[:, j] if j < n_fields - 1 else stop) - lo
        words = max(-(-int(chars.max()) // 8), 1)
        word = np.stack([at[lo + 8 * k] for k in range(words)], axis=1)
        # Zero each row past its field's end, one 8-byte word at a time,
        # from the first word that some row's field does not fill.
        for k in range(int(chars.min()) // 8, words):
            word[:, k] &= _PREFIX[np.clip(chars - 8 * k, 0, 8)]
        columns.append(Column(word.view(np.uint8), chars))
    sid = columns[0].codes  # holds no NUL, so an S view drops only the padding
    header = sid.view(f"S{sid.shape[1]}")[:, 0] == b"station_id"
    if header.any():
        columns = [col[~header] for col in columns]
    return Block(start, n_fields, start + np.flatnonzero(~header), columns)


def _split_rows(rows: list[list[str]], start: int, n_fields: int) -> Block:
    """A block's columns from the rows ``csv.reader`` made of its lines."""
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    data = np.fromiter(map(_is_data, rows), bool, len(rows))
    keep = np.flatnonzero(data & (width == n_fields))
    columns = [Column.of([rows[i][j].strip() for i in keep]) for j in range(n_fields)]
    return Block(start, n_fields, start + keep, columns,
                 bool((data & (width != n_fields)).any()), rows)
