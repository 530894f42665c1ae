"""Shared CSV helpers: deterministic cell formatting, tables held as columns
and written in blocks by ``write_blocks``, and the one CSV reader,
``read_blocks``, that every table goes through: records, panels and trend
tables by columns through one front end, ``station_blocks`` (records and
panels keep what each block holds and drop its columns; trend tables are
joined into whole columns), the metadata and cluster tables row by row
(``iter_rows``).

A columnar reader checks each rule of its rows once, as one bool mask per
rule over a block (the parsers return a mask of the texts they reject),
and ``check_rows`` raises the ``ParseError`` of the block's first
marked row, worded from that row's fields by the first rule that marks it.
As blocks come in file order, the error names the first bad row of the
file."""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Callable, ClassVar, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ContractError, EmptyInputError, ParseError

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


def gather(keys: np.ndarray, texts: Callable[[np.ndarray], list[str]]) -> list[str]:
    """``texts(distinct keys)`` looked up for every key, as a list; a run of
    equal keys costs one compare per row (``unique_runs``)."""
    uniq, inv = unique_runs(keys)
    return np.array(texts(uniq), dtype=object)[inv].tolist()


def fmt_column(values: np.ndarray) -> list[str]:
    """Every element of an array as ``csv.writer`` writes it as a field,
    rendered once per distinct value: ``fmt`` of a bool, integer or float64
    value, and text (an object array of ``str``) quoted only where it needs
    it. Floats are told apart by their bit patterns, so ``-0.0`` stays
    apart from ``0.0``."""
    if values.dtype == np.float64:
        return gather(values.view(np.int64), lambda bits: [
            "" if v != v else repr(v) for v in bits.view(np.float64).tolist()])
    if values.dtype == object:
        return gather(values, lambda uniq: [csv_prefix(t)[:-1] for t in uniq.tolist()])
    return gather(values, lambda uniq: list(map(fmt, uniq.tolist())))


# A piece of a block's rows: one rendered text per row, or one for them all.
Piece = list[str] | str


def csv_pieces(columns: Iterable[list[str]]) -> list[Piece]:
    """Rendered columns as the pieces of rows, with a comma between each two."""
    return [piece for column in columns for piece in (",", column)][1:]


def write_blocks(path: str | Path, header: Iterable[str],
                 blocks: Iterable[Sequence[Piece]]) -> None:
    """Write a header with ``csv.writer``, then each block's rows as UTF-8:
    a block is a sequence of pieces, at least one a list, and a row is its
    pieces in order, then ``\\r\\n``. The pieces come rendered and quoted
    (``fmt_column``), so the bytes are those of ``csv.writer``. A block is
    one list of parts, filled by a slice assignment per list piece and
    written with one join."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for pieces in blocks:
            n = len(next(piece for piece in pieces if isinstance(piece, list)))
            parts = [piece if isinstance(piece, str) else "" for piece in (*pieces, "\r\n")] * n
            for i, piece in enumerate(pieces):
                if isinstance(piece, list):
                    parts[i::len(pieces) + 1] = piece
            fh.write("".join(parts))


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """A table held as columns: a frozen dataclass whose fields are numpy
    arrays of one length, each cast on construction to its dtype in the
    subclass's ``DTYPES`` (``object`` for text, so that any ``str`` keeps
    its exact value)."""

    DTYPES: ClassVar[tuple] = ()

    def __post_init__(self):
        for f, dtype in zip(fields(self), self.DTYPES):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype))
        if len({len(column) for column in self.columns()}) > 1:
            raise ContractError(f"{type(self).__name__} columns differ in length")

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def take(self, index) -> ColumnTable:
        """The table of the rows that ``index`` selects, in its order."""
        return type(self)(*(column[index] for column in self.columns()))


class Column:
    """One field of a block's rows: the stripped text as a (rows, width)
    matrix of code units, zero-padded (uint8 bytes from the bulk split of
    plain lines, in whole 8-byte words; uint32 code points from csv rows),
    and each row's length (int32).

    numpy str arrays drop trailing NULs, so a column whose text holds a NUL
    also keeps its exact strings, and each NUL inside a row reads as a code
    that is no character.
    """

    __slots__ = ("codes", "length", "strings", "__weakref__")

    def __init__(self, codes: np.ndarray, length: np.ndarray,
                 strings: np.ndarray | None = None):
        self.codes = codes
        self.length = length
        self.strings = strings

    @classmethod
    def of(cls, strings: list[str]) -> Column:
        text = np.array(strings, dtype=str)
        codes = text.view(np.uint32).reshape(len(text), text.dtype.itemsize // 4)
        length = np.fromiter(map(len, strings), np.int32, len(strings))
        if "\0" not in "".join(strings):
            return cls(codes, length)
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


def parse_floats(column: Column) -> tuple[np.ndarray, np.ndarray]:
    """``parse_float`` of every row of a column: NaN where it is empty, else
    ``float()`` of its text; and a mask of the rows whose text ``float()``
    rejects (those rows hold 0).

    The bulk-split rows of at most 8 bytes are factorized by their word
    keys, so ``float()`` runs once per distinct text and the result is
    gathered per row; any other row goes through ``float()`` on its own,
    a wider bulk-split row as the bytes of an ``S`` view of its codes. A
    column of one kind of row is parsed whole, without a copy; in a mixed
    column only the narrow rows' keys and the wide rows are copied.
    """
    narrow = (column.codes.dtype == np.uint8) & (column.length <= 8)
    if not narrow.any():
        if column.codes.dtype != np.uint8:
            return parse_each(parse_float, column.text().tolist(), np.float64)
        # A bulk-split row wider than 8 bytes is never empty, and holds no
        # NUL, so the S view drops only its padding.
        codes = np.ascontiguousarray(column.codes)
        return parse_each(float, codes.view(f"S{codes.shape[1]}").ravel().tolist(), np.float64)
    every = narrow.all()
    keys = _first_words(column)
    texts, index = _word_texts(keys if every else keys[narrow])
    values, bad = parse_each(parse_float, texts, np.float64)
    if every:
        return values[index], bad[index]
    out, out_bad = np.empty(len(column)), np.empty(len(column), bool)
    out[narrow], out_bad[narrow] = values[index], bad[index]
    wide = np.flatnonzero(~narrow)
    out[wide], out_bad[wide] = parse_floats(column[wide])
    return out, out_bad


def parse_ints(column: Column, bound: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of every row's text, run once per distinct text, as int64,
    and a mask of the rows whose text ``int()`` rejects or whose value is
    outside int64. With ``bound``, each value is first clipped to
    ``[-bound, bound]``, so that none is outside int64."""
    parse = int if bound is None else (lambda text: min(max(int(text), -bound), bound))
    texts, index = factorize(column)
    values, bad = parse_each(parse, texts, np.int64)
    return values[index], bad[index]


def parse_each(parse: Callable[[str], object], texts: list[str],
               dtype) -> tuple[np.ndarray, np.ndarray]:
    """``parse`` of each text as an array of ``dtype``, and a mask of the
    texts that ``parse`` or ``dtype`` rejects (``ValueError`` or
    ``OverflowError``), whose value is 0. The texts are parsed one at a
    time only after parsing them all at once fails."""
    try:
        return np.array([parse(t) for t in texts], dtype), np.zeros(len(texts), bool)
    except (ValueError, OverflowError):
        pass
    values, bad = np.zeros(len(texts), dtype), np.zeros(len(texts), bool)
    for k, text in enumerate(texts):
        try:
            values[k] = parse(text)
        except (ValueError, OverflowError):
            bad[k] = True
    return values, bad


def factorize(column: Column) -> tuple[list[str], np.ndarray]:
    """``(distinct texts in sorted order, index of each row's text)``.

    A bulk-split column whose rows all fit one 8-byte word is keyed by each
    row's first word (``_word_texts``). Any other column is keyed by its
    text, through ``unique_runs``.
    """
    if column.codes.dtype == np.uint8 and column.length.max(initial=0) <= 8:
        return _word_texts(_first_words(column))
    uniq, inv = unique_runs(column.text())
    return uniq.tolist(), inv


def _first_words(column: Column) -> np.ndarray:
    """Each row's first 8 bytes of a bulk-split column, read big-endian: a
    view, not a copy."""
    return column.codes[:, :8].view(">u8")[:, 0]


def _word_texts(keys: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``factorize`` of rows of at most 8 bytes by their ``_first_words``
    keys: the zero padding sorts first, so the keys sort as the texts do."""
    uniq, inv = unique_runs(keys)
    # A bytes string drops the zero padding.
    return uniq.astype(">u8").view("S8").astype(str).tolist(), inv


def run_heads(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def unique_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, sorting one value per run
    where the runs are long (station ids, years)."""
    heads = run_heads(values)
    if 2 * len(heads) > len(values):
        return np.unique(values, return_inverse=True)
    uniq, inv = np.unique(values[heads], return_inverse=True)
    return uniq, np.repeat(inv, np.diff(np.append(heads, len(values))))


def repeats(keys: np.ndarray) -> np.ndarray:
    """Whether each row's key is held by an earlier row."""
    repeat = np.ones(len(keys), bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def repeated_cells(seen: np.ndarray, cell: np.ndarray, keyed: np.ndarray) -> np.ndarray:
    """Whether each row of a block repeats a cell: a ``keyed`` row whose
    cell (``cell`` holds the keyed rows' positions in the flat flags
    ``seen``) an earlier block marked or an earlier row of the block holds
    (``repeats``). Marks the cells. A block without a repeat marks as many
    new cells as it has keyed rows: only a block with a repeat is sorted."""
    repeat = np.zeros(len(keyed), bool)
    span = seen[cell.min(initial=len(seen)):cell.max(initial=-1) + 1]
    before = np.count_nonzero(span)
    was = seen[cell]
    seen[cell] = True
    if was.any() or np.count_nonzero(span) - before != len(cell):
        repeat[keyed] = was | repeats(cell)
    return repeat


def _is_data(row: list[str]) -> bool:
    """Whether a csv row is a data row: neither blank nor a header."""
    return bool(row) and (len(row) > 1 or bool(row[0].strip())) and (
        row[0].strip() != "station_id")


def iter_rows(path: str | Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, row)`` for every data row of a CSV file, as
    ``read_blocks`` reads it: a ``csv.Error``, a byte that is not UTF-8 or
    a data row with another field count becomes a ``ParseError`` on its
    row once the rows before it have been yielded."""
    with open(path, "rb") as fh:
        for block in read_blocks(fh, n_fields):
            yield from block.rows()


def station_blocks(path: str | Path, n_fields: int, what: str,
                   numbers: dict[str, int]) -> Iterator[tuple[Block, np.ndarray]]:
    """Each block with a data row of a CSV file keyed by a station id in the
    first field, with each row's station number: ``numbers`` maps each id
    to its number, in order of first appearance, and is filled as the
    blocks come. A file without a data row raises ``EmptyInputError``."""
    with open(path, "rb") as fh:
        for block in read_blocks(fh, n_fields):
            if len(block.line_no):
                yield block, _station_numbers(block.columns[0], numbers)
            # Only the consumer may hold the block while the next is split.
            del block
    if not numbers:
        raise EmptyInputError(f"no {what} found in {path}")


def _station_numbers(ids: Column, numbers: dict[str, int]) -> np.ndarray:
    """Each row's station number, ``numbers`` filled with the new ids."""
    texts, index = factorize(ids)
    return np.array([numbers.setdefault(s, len(numbers)) for s in texts], np.int64)[index]


def sorted_ranks(names: list[str]) -> np.ndarray:
    """The position of each name in the sorted order of ``names``."""
    rank = np.empty(len(names), np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


@dataclass
class Block:
    """The csv data rows of ``BLOCK_LINES`` consecutive lines (and of the
    lines a quoted field carries past them), split into columns.

    ``columns`` holds, per field, the stripped text of the data rows, and
    ``line_no`` their 1-based row numbers; blank and header rows are
    dropped. ``csv_rows`` holds the fields of the data rows as
    ``csv.reader`` made them, where the block was not split in bulk. A
    consumer checks the columns, and words an error from ``rows()``.
    """

    line_no: np.ndarray
    columns: list[Column]
    csv_rows: list[list[str]] | None = None

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """``(line_no, row)`` for the block's data rows, fields unstripped."""
        if self.csv_rows is not None:
            return zip(self.line_no.tolist(), self.csv_rows)
        # A bulk-split row is its fields' text: no field needed stripping.
        fields = [column.text().tolist() for column in self.columns]
        return zip(self.line_no.tolist(), map(list, zip(*fields)))


# A rule of a columnar reader: a mask of a block's rows that break it, and
# the message of a row that does, worded from the row's unstripped fields.
Rule = tuple[np.ndarray, Callable[[list[str]], str]]


def empty_station_id(block: Block) -> Rule:
    """The first rule of a station table's rows: the station id, the first
    field, is not empty."""
    return block.columns[0].length == 0, lambda row: "empty station_id"


def check_rows(block: Block, rules: Sequence[Rule]) -> None:
    """Raise the ``ParseError`` of the block's first row that a rule marks,
    if one does, with the message of the first rule that marks it."""
    if any(mask.any() for mask, _ in rules):
        _raise_first_bad(block, rules)


def _raise_first_bad(block: Block, rules: Sequence[Rule]) -> NoReturn:
    i = int(np.argmax(np.logical_or.reduce([mask for mask, _ in rules])))
    line_no, row = next(itertools.islice(block.rows(), i, None))
    raise ParseError(next(word for mask, word in rules if mask[i])(row), line_no)


def read_blocks(fh: BinaryIO, n_fields: int) -> Iterator[Block]:
    """Split a CSV file opened in binary mode into ``Block``s, with the row
    semantics of ``csv.reader`` over the file read as UTF-8 text with
    ``newline=""``; line numbers count csv rows, and a UTF-8 byte order
    mark at the start of the file is skipped. Blank rows and rows whose
    first field is ``station_id`` are not data. A ``csv.Error`` (a field
    over ``csv.field_size_limit()``), a byte that is not UTF-8, or a data
    row without ``n_fields`` fields is raised as a ``ParseError`` with its
    row's line, once the rows before it have been yielded.

    Each cut of ``BLOCK_LINES`` lines is split in bulk where it can be;
    any other cut goes to ``csv.reader``, which takes further lines while a
    quoted field is open. A cut's bytes are dropped once it is split, and
    the reader holds no block while it splits the next, so a consumer that
    drops each block holds one block's working memory at a time."""
    lines = _ByteLines(fh)
    more = (str(data, "utf-8", "surrogateescape")
            for data, _ in iter(lambda: lines.take(1), None))
    start = 1
    while (cut := lines.take(BLOCK_LINES)) is not None:
        block, taken, error = _split(*cut, more, start, n_fields)
        del cut
        lines.drop()
        start += taken
        yield block
        del block
        if error is not None:
            raise error


def _split(data: memoryview, ends: np.ndarray, more: Iterator[str], start: int,
           n_fields: int) -> tuple[Block, int, ParseError | None]:
    """The block of a cut whose first row is row ``start``, the number of
    rows it took (a quoted field may take lines from ``more``) and the
    ``ParseError`` that ends the file there, if one does."""
    block = _split_plain(data, ends, start, n_fields)
    if block is not None:
        return block, len(ends), None
    text = str(data, "utf-8", "surrogateescape")
    rows, error = _text_rows(io.StringIO(text, newline="").readlines(), more, start)
    del text
    block, ragged = _split_rows(rows, start, n_fields)
    return block, len(rows), ragged or error


class _ByteLines:
    """The lines of a binary file, read ``READ_BYTES`` at a time into one
    buffer. A line ends where text mode with ``newline=""`` ends one: after
    ``\\n``, after ``\\r\\n``, and after a ``\\r`` that does not begin a
    ``\\r\\n``; the last line may have no terminator. A UTF-8 byte order
    mark at the start of the file is skipped."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.buf = bytearray(fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8))
        self.view = memoryview(b"")  # the lines taken last, at the start of buf
        self.scanned = 0  # where the search for line ends goes on in buf
        self.ends = np.empty(0, np.int64)  # the line ends found in buf
        self.done = False

    def take(self, n: int) -> tuple[memoryview, np.ndarray] | None:
        """The next ``n`` lines (fewer at the end of the file) as a view of
        their bytes, and the end of each in them; None once every line has
        been taken. The view is valid until the next ``take`` or ``drop``."""
        self.drop()
        while len(self.ends) < n and self._read():
            pass
        if not len(self.ends):
            return None
        ends = self.ends[:n]
        self.view = memoryview(self.buf)[:int(ends[-1])]
        return self.view, ends

    def drop(self) -> None:
        """Release the view of the lines taken last and free their bytes: the
        buffer keeps only the bytes after them."""
        taken = len(self.view)
        self.view.release()
        if taken:
            del self.buf[:taken]
            self.ends = self.ends[np.searchsorted(self.ends, taken, "right"):] - taken
            self.scanned -= taken
        self.view = memoryview(b"")

    def _read(self) -> bool:
        """Read on and find the line ends in what was read; False once the
        file is used up."""
        if self.done:
            return False
        chunk = self.fh.read(READ_BYTES)
        self.done = not chunk
        self.buf += chunk
        lo = self.scanned
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
        ends = np.concatenate((self.ends, found + lo + 1))
        if self.done and len(self.buf) > (ends[-1] if len(ends) else 0):
            ends = np.append(ends, len(self.buf))
        self.ends, self.scanned = ends, hi
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
            if bad := undecoded_error("".join(row), start + i):
                return rows[:i], bad
    if error is not None:
        return rows, ParseError(str(error), start + len(rows))
    return rows, None


def undecoded_error(text: str, line_no: int) -> ParseError | None:
    """The ``ParseError`` naming the first byte of line ``line_no`` that is
    not UTF-8, in its ``text`` decoded with ``surrogateescape``; None if
    every byte is UTF-8."""
    if bad := _UNDECODED.search(text):
        return ParseError(f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}", line_no)
    return None


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


def _split_plain(data: memoryview, end: np.ndarray, start: int,
                 n_fields: int) -> Block | None:
    """Split a block in bulk when every line is a plain row: ASCII, within
    ``csv``'s field size limit, with ``n_fields - 1`` commas and no quote,
    space or control character before its terminator, so that no field
    needs stripping. ``end`` is where each line ends in ``data``. Anything
    else, and a block of 1 GiB or more, returns None, for ``csv.reader`` to
    split. Positions are int32: no index formed here reaches twice the
    block's size."""
    c = np.frombuffer(data, np.uint8)
    if len(c) >= 1 << 30 or c.max() > 127 or np.count_nonzero(c == 34):
        return None
    end = end.astype(np.int32)
    size = np.diff(end, prepend=np.int32(0))
    if not size.all() or size.max() > csv.field_size_limit():
        return None
    begin = end - size
    # Each line's content stops before its terminator: "\r\n", "\n" or "\r".
    last = c[end - 1]
    crlf = (size > 1) & (last == 10) & (c[np.maximum(end - 2, 0)] == 13)
    stop = end - ((last == 10) | (last == 13)) - crlf
    if np.count_nonzero(c < 33) != (end - stop).sum():
        return None
    comma = np.flatnonzero(c == 44)
    if len(comma) != len(end) * (n_fields - 1):
        return None
    # With the total right, each line holds its share iff every line's
    # share of the sorted commas falls inside that line.
    comma = comma.astype(np.int32).reshape(len(end), n_fields - 1)
    if (comma[:, 0] < begin).any() or (comma[:, -1] >= stop).any():
        return None
    # A field is gathered as whole 8-byte words, which may run a line's
    # length past its line. The lines from ``tail`` on, within that and a
    # word of the end, read their words from a zero-padded copy of
    # themselves; the lines before them read the data in place.
    pad = int(size.max()) + 8
    tail = int(np.searchsorted(end, len(c) - pad, "right"))
    base = int(begin[tail]) if tail < len(end) else len(c)
    rest = np.zeros(len(c) - base + pad, np.uint8)
    rest[:len(c) - base] = c[base:]
    at, rest_at = _words_at(c), _words_at(rest)
    columns = []
    for j in range(n_fields):
        lo = begin if j == 0 else comma[:, j - 1] + 1
        chars = (comma[:, j] if j < n_fields - 1 else stop) - lo
        words = max(-(-int(chars.max()) // 8), 1)
        word = np.empty((len(end), words), "<u8")
        for k in range(words):
            word[:tail, k] = at[lo[:tail] + 8 * k]
            word[tail:, k] = rest_at[lo[tail:] - (base - 8 * k)]
        # Zero each row past its field's end, one 8-byte word at a time,
        # from the first word that some row's field does not fill.
        for k in range(int(chars.min()) // 8, words):
            word[:, k] &= _PREFIX[np.clip(chars - 8 * k, 0, 8)]
        columns.append(Column(word.view(np.uint8), chars))
    sid = columns[0].codes  # holds no NUL, so an S view drops only the padding
    header = sid.view(f"S{sid.shape[1]}")[:, 0] == b"station_id"
    if header[1:].any():
        columns = [col[~header] for col in columns]
    elif header[0]:
        # A file's own header: a slice is a view, where a mask copies.
        columns = [col[1:] for col in columns]
    return Block(start + np.flatnonzero(~header), columns)


def _words_at(c: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word that starts at each byte of ``c`` with
    8 bytes from it on: a view, not a copy."""
    return np.ndarray((max(len(c) - 7, 0),), "<u8", c, 0, (1,))


def _split_rows(rows: list[list[str]], start: int,
                n_fields: int) -> tuple[Block, ParseError | None]:
    """A block's columns from the rows ``csv.reader`` made of its lines, up
    to its first data row with another field count; returns the block and
    the ``ParseError`` of that row, if there is one."""
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    data = np.fromiter(map(_is_data, rows), bool, len(rows))
    ragged = np.flatnonzero(data & (width != n_fields))
    error = None
    if len(ragged):
        r = int(ragged[0])
        error = ParseError(f"expected {n_fields} fields, got {width[r]}", start + r)
        data[r:] = False
    keep = np.flatnonzero(data)
    kept = [rows[i] for i in keep]
    columns = [Column.of([row[j].strip() for row in kept]) for j in range(n_fields)]
    return Block(start + keep, columns, kept), error
