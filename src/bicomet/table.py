"""The CSV format of every table bicomet reads or writes.

Files are utf-8 and comma-separated with "\\n" line ends; no reader or
writer takes another format, but a reader skips the utf-8 byte-order mark
that spreadsheet exports put first.  ``read_rows`` skips blank rows and a
header, strips every cell and numbers the lines, so each caller only applies
its own field checks and reports a bad row as ``path:line``.  The header is the
first non-blank row when its first cells are the names the caller gives, in
any case, whatever its width; edge and node lists give none.
``read_column_chunks`` applies the same rules to a table of fixed width,
checks the width of every row and hands its cells on column by column, a
chunk of rows at a time; ``read_columns`` joins the chunks, and every table
but the manifest, whose width varies, is read by one of the two.
``write_rows`` is the one writer, and the one place a cell is formatted: a
bool as "true" or "false" (``BOOL_CELLS`` reads it back), any other cell as
``csv.writer`` writes it, so a float as its repr; a record that is a named
tuple of its columns is therefore written as it is, and a table held as
columns is written as their ``zip``.

A file is read as bytes once, and checked whole before any row is handed
on: that it is utf-8, and that no cell exceeds the field limit.  Without a
quote, a cell ends at a comma or a line end, so the check splits the text
there; text that holds a quote, or a carriage return and a NUL byte, is
parsed through ``csv.reader`` once for it instead, when it is longer than the
limit.  Text that holds no quote and no carriage return is then decoded and
split on "\\n" and "," (what the ``csv`` module would make of it) in chunks
of whole lines of about ``_CHUNK_BYTES`` each; any other text, and so every
quoted cell, goes through ``csv.reader`` in chunks of whole records of about
as many characters.  Either way no more than one chunk's cells are held as
strings at a time.  A table of str cells is written with one join and one
write; a table of records streams through ``csv.writer``, and a table of str
cells that need quoting goes through it.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import InputError

# bytes of whole lines in one chunk of plain text, and about as many
# characters of whole records through csv.reader; a longer one is a chunk
_CHUNK_BYTES = 1 << 16


# the bytes that bytes.translate deletes to keep only "\n" and ","
_NOT_LINE_OR_COMMA = bytes(sorted(set(range(256)) - set(b"\n,")))


def _read(path) -> bytes:
    """The bytes of the file at ``path`` after any utf-8 byte-order mark;
    InputError at ``path:line`` when they are not utf-8, and naming ``path``
    when it cannot be read or holds a NUL byte."""
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a NUL byte, which no file name can hold
        raise InputError(f"cannot read {str(path)!r}: {exc}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise InputError(
                f"{path}:{line}: not utf-8: {exc.reason} at byte {exc.start}"
            ) from None
    return data


def _chunk_bounds(data: bytes) -> list[int]:
    """0 and the end of every chunk of ``data``: as many whole lines as fit
    in ``_CHUNK_BYTES``, or one longer line, and last what is left."""
    bounds = [0]
    while bounds[-1] < len(data):
        start, end = bounds[-1], bounds[-1] + _CHUNK_BYTES
        if end >= len(data):
            end = len(data)
        else:
            end = data.rfind(b"\n", start, end) + 1 or data.find(b"\n", end) + 1 or len(data)
        bounds.append(end)
    return bounds


def _check_field_limit(path, data: bytes, bounds: list[int]) -> None:
    """InputError at ``path:line`` of the first cell of quote-free text
    ``data``, cut at ``bounds``, that is longer than the field limit in
    characters.  Lines are numbered as ``csv`` numbers them: each "\\r\\n",
    "\\n" or other "\\r" ends one.  No cell is longer than its chunk, so only a
    chunk longer than the limit is split."""
    limit = csv.field_size_limit()
    for start, end in zip(bounds, bounds[1:]):
        if end - start <= limit:
            continue
        text = data[start:end].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        for i, line in enumerate(text.split("\n")):
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                # a chunk ends at a "\n", so no "\r\n" straddles its start
                lineno = (
                    data.count(b"\n", 0, start) + data.count(b"\r", 0, start)
                    - data.count(b"\r\n", 0, start) + i + 1
                )
                raise InputError(f"{path}:{lineno}: field larger than field limit ({limit})")


def _plain_chunks(data: bytes, bounds: list[int]):
    """Yield (lines, counts, cells) of the records of plain text ``data``,
    chunk by chunk: the int64 number of each record's line, its int64 number
    of fields, and the stripped cells of all records in one list.

    Text that needs no ``csv`` parsing is split at every "\\n" and ","
    (str.splitlines would also break at characters that csv keeps inside a
    cell); with every byte but those two deleted, what is left of a line is
    its commas, so the field counts come from the line ends that remain.
    """
    line = 0
    for start, end in zip(bounds, bounds[1:]):
        part = data[start:end]
        kept = part.translate(None, _NOT_LINE_OR_COMMA)
        if not part.endswith(b"\n"):
            kept += b"\n"
        counts = np.diff(np.flatnonzero(np.frombuffer(kept, np.uint8) == 10), prepend=-1)
        cells = part.decode("utf-8").replace("\n", ",").split(",")
        if part.endswith(b"\n"):
            cells.pop()
        cells = list(map(str.strip, cells))
        yield np.arange(line + 1, line + 1 + counts.size, dtype=np.int64), counts, cells
        line += counts.size


def _csv_records(path, data: bytes, parse_first: bool):
    """Yield (lines, counts, cells) of any utf-8 ``data``, as
    ``_plain_chunks`` yields them, through ``csv.reader``: chunk by chunk,
    each of whole records whose cells and commas come to about
    ``_CHUNK_BYTES`` characters, or one longer record.

    Records are numbered by their first physical line, so a quoted cell that
    holds a line break shifts no later number.  With ``parse_first``, text
    longer than the field limit is parsed once before the first chunk, so
    that a fault of the ``csv`` module is raised before any record is handed
    on.
    """

    def records():
        return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))

    def chunk(lines, rows):
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        cells = [cell.strip() for cell in chain.from_iterable(rows)]
        return np.array(lines, dtype=np.int64), counts, cells

    reader = records()
    try:
        if parse_first and len(data) > csv.field_size_limit():
            for _ in reader:
                pass
            reader = records()
        lines, rows, size, line = [], [], 0, 1
        for row in reader:
            lines.append(line)
            rows.append(row)
            line = reader.line_num + 1
            size += len(row) + sum(map(len, row))
            if size >= _CHUNK_BYTES:
                yield chunk(lines, rows)
                lines, rows, size = [], [], 0
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if rows:
        yield chunk(lines, rows)


def _drop_header(lines, counts, cells, names):
    """A chunk's (lines, counts, cells) less the header, the first non-blank
    record when its first cells are ``names`` in any case, and the names
    still to look for: none once a non-blank record has been met."""
    start = 0
    for i, count in enumerate(counts.tolist() if names else ()):
        row = cells[start : start + count]
        if any(row):
            if [cell.lower() for cell in row[: len(names)]] == [name.lower() for name in names]:
                del cells[start : start + count]
                return np.delete(lines, i), np.delete(counts, i), cells, ()
            return lines, counts, cells, ()
        start += count
    return lines, counts, cells, names


def _record_chunks(path, header: tuple[str, ...]):
    """Yield (lines, counts, cells) of the CSV records of the file at
    ``path``, less the header ``header`` names, chunk by chunk, as
    ``_plain_chunks`` yields them.  The whole file is checked before the
    first chunk."""
    data = _read(path)
    # only the csv module reads a quote or a carriage return right; in text
    # with neither a quote nor a NUL byte (which the csv module of Python
    # 3.10 rejects), an over-long cell is the one fault it can raise, and
    # that is found before any record is handed on without it
    carriage_return = b"\r" in data
    if b'"' in data or (carriage_return and b"\0" in data):
        chunks = _csv_records(path, data, parse_first=True)
    else:
        bounds = _chunk_bounds(data)
        _check_field_limit(path, data, bounds)
        if carriage_return:
            chunks = _csv_records(path, data, parse_first=False)
        else:
            chunks = _plain_chunks(data, bounds)
    for lines, counts, cells in chunks:
        lines, counts, cells, header = _drop_header(lines, counts, cells, header)
        yield lines, counts, cells


def read_rows(path, header: tuple[str, ...] = ()):
    """Yield (line_number, cells) for non-blank CSV rows, skipping a header.

    Cells are stripped; a row is blank when every cell is empty after
    stripping.  The header is the first non-blank row when its first cells
    are the names ``header``, in any case, whatever its width.
    """
    for lines, counts, cells in _record_chunks(path, header):
        start = 0
        for lineno, end in zip(lines.tolist(), np.cumsum(counts).tolist()):
            row = cells[start:end]
            start = end
            if any(row):
                yield lineno, row


def read_column_chunks(path, width: int, header: tuple[str, ...] = ()):
    """Yield the non-blank rows of a table of ``width`` fields, as columns,
    chunk by chunk.

    Each chunk is (lines, columns): the int64 line number of every kept row
    and ``width`` lists of its stripped cells.  Blank rows and the header are
    skipped as by ``read_rows``.  The first other non-blank row with another
    number of fields raises InputError at ``path:line``.
    """
    for lines, counts, cells in _record_chunks(path, header):
        fits = counts == width
        if not fits.all():
            starts = (np.cumsum(counts) - counts).tolist()
            for i in np.flatnonzero(~fits).tolist():
                if any(cells[starts[i] : starts[i] + counts[i]]):
                    raise InputError(
                        f"{path}:{lines[i]}: expected {width} fields, got {counts[i]}"
                    )
            cells = list(chain.from_iterable(cells[s : s + width] for s in compress(starts, fits)))
            lines = lines[fits]
        columns = [cells[k::width] for k in range(width)]
        # a blank row has an empty cell in every column
        if all("" in column for column in columns):
            filled = np.zeros(len(lines), dtype=bool)
            for column in columns:
                filled |= np.fromiter(map(bool, column), bool, len(column))
            columns = [list(compress(column, filled)) for column in columns]
            lines = lines[filled]
        yield lines, columns


def read_columns(path, width: int, header: tuple[str, ...] = ()):
    """``read_column_chunks`` joined: (lines, columns) of the whole table."""
    lines, columns = [np.zeros(0, dtype=np.int64)], [[] for _ in range(width)]
    for chunk_lines, chunk_columns in read_column_chunks(path, width, header):
        lines.append(chunk_lines)
        for column, cells in zip(columns, chunk_columns):
            column += cells
    return np.concatenate(lines), columns


def gather(cells, index) -> list:
    """``[cells[i] for i in index]`` for an int array ``index``."""
    return np.array(cells, dtype=object)[index].tolist()


def int_cells(values) -> list[str]:
    """The decimal strings of the non-negative int array ``values``, looked
    up in one string per value up to the largest when that is no more
    strings than values."""
    top = int(values.max(initial=-1)) + 1
    if top > values.size:
        return list(map(str, values.tolist()))
    return gather(list(map(str, range(top))), values)


BOOL_CELLS = {"true": True, "false": False}


def write_rows(path, header, rows) -> None:
    """Write ``rows`` to ``path``, preceded by ``header`` unless it is None.

    A table whose first row holds a cell that is not a str is a table of
    records: its rows stream through ``csv.writer``, a bool cell as "true"
    or "false", and none is held.  Rows of str cells are joined into one
    text and written at once, unless a later row holds another cell or the
    text shows a cell needing quotes (one holding a quote, a line end or a
    comma, or a row of one empty cell); then they go to ``csv.writer`` too.
    """
    rows = iter(rows)
    head = [] if header is None else [header]
    first = next(rows, None)
    if first is not None and not all(isinstance(cell, str) for cell in first):
        _write_csv(path, chain(head, [first], rows))
        return
    body = head + ([] if first is None else [first]) + list(rows)
    try:
        text = "\n".join(map(",".join, body)) + ("\n" if body else "")
    except TypeError:  # a cell that is not a str
        text = None
    if (
        text is None
        or '"' in text
        or "\r" in text
        or text.count("\n") != len(body)
        or text.count(",") != sum(map(len, body)) - len(body)
        or "\n\n" in "\n" + text
    ):
        _write_csv(path, body)
        return
    Path(path).write_text(text, encoding="utf-8", newline="")


def _write_csv(path, rows) -> None:
    """Write ``rows`` to ``path`` through ``csv.writer``, a bool cell as
    "true" or "false"."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [("true" if c else "false") if c.__class__ is bool else c for c in row]
            for row in rows
        )
