"""The CSV format of every table bicomet reads or writes.

Files are utf-8 and comma-separated with "\\n" line ends; no reader or
writer takes another format, but a reader skips the utf-8 byte-order mark
that spreadsheet exports put first.  ``read_rows`` skips blank rows and a
header, strips every cell and numbers the lines, so each caller only applies
its own field checks and reports a bad row as ``path:line``.  The header is the
first non-blank row when its first cells are the names the caller gives, in
any case, whatever its width; edge and node lists give none.
``read_columns`` applies the same rules to a table of fixed width, checks
the width of every row and hands its cells on column by column; every table
but the manifest, whose width varies, is read by it.  ``write_rows`` is the
one writer, and the one place a cell is formatted: a bool as "true" or
"false" (``BOOL_CELLS`` reads it back), any other cell as ``csv.writer``
writes it, so a float as its repr; a record that is a named tuple of its
columns is therefore written as it is, and a table held as columns is
written as their ``zip``.

Every table moves as one string: a file is read and decoded once, and a
table of str cells is written with one join and one write.  Text that
holds no quote and no carriage return is split on "\\n" and "," directly,
which is what the ``csv`` module would make of it; any other text, and so
every quoted cell, goes through ``csv.reader``, and a table whose cells
need quoting or formatting through ``csv.writer``.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import InputError


def _read(path) -> tuple[bytes, str]:
    """The bytes of the file at ``path`` after any utf-8 byte-order mark, and
    their utf-8 text; InputError at ``path:line`` when they are not utf-8,
    and naming ``path`` when it cannot be read or holds a NUL byte."""
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a NUL byte, which no file name can hold
        raise InputError(f"cannot read {str(path)!r}: {exc}") from None
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise InputError(
            f"{path}:{line}: not utf-8: {exc.reason} at byte {exc.start}"
        ) from None


def _records(path, data: bytes, text: str):
    """(lines, counts, cells) of the CSV records of ``text``, the utf-8
    ``data`` read from ``path``: the int64 number of the line each record
    starts on, its int64 number of fields, and the raw cells of all records
    in one list.

    Records are numbered by their first physical line, so a quoted cell that
    holds a line break shifts no later number.  Text that needs no ``csv``
    parsing is split at every "\\n" and "," (str.splitlines would also break
    at characters that csv keeps inside a cell); with every byte but those
    two deleted, what is left of a line is its commas, so the field counts
    come from the line ends that remain.  No cell is longer than its line, so
    cells are measured against the field limit only when a line is longer.
    """
    # only the csv module reads a quote or a carriage return right
    if '"' in text or "\r" in text:
        return _csv_records(path, text)
    kept = data.translate(None, bytes(set(range(256)) - set(b"\n,")))
    if text and not text.endswith("\n"):
        kept += b"\n"
    counts = np.diff(np.flatnonzero(np.frombuffer(kept, np.uint8) == 10), prepend=-1)
    cells = text.replace("\n", ",").split(",") if text else []
    if text.endswith("\n"):
        cells.pop()
    limit = csv.field_size_limit()
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
    if np.diff(ends, prepend=-1, append=len(data)).max(initial=0) > limit + 1:
        first = next((i for i, cell in enumerate(cells) if len(cell) > limit), None)
        if first is not None:
            line = np.searchsorted(np.cumsum(counts), first, side="right") + 1
            raise InputError(f"{path}:{line}: field larger than field limit ({limit})")
    return np.arange(1, counts.size + 1, dtype=np.int64), counts, cells


def _csv_records(path, text: str):
    """``_records`` of any text, through ``csv.reader``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    lines, rows = [], []
    line = 1
    try:
        for row in reader:
            lines.append(line)
            rows.append(row)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    return np.array(lines, dtype=np.int64), counts, list(chain.from_iterable(rows))


def _drop_header(lines, counts, cells, names):
    """``_records``' (lines, counts, cells) less the header: the first
    non-blank record, when its first stripped cells are ``names`` in any case."""
    start = 0
    for i, count in enumerate(counts if names else ()):
        row = [cell.strip().lower() for cell in cells[start : start + count]]
        if any(row):
            if row[: len(names)] == [name.lower() for name in names]:
                del cells[start : start + count]
                return np.delete(lines, i), np.delete(counts, i), cells
            break
        start += count
    return lines, counts, cells


def read_rows(path, header: tuple[str, ...] = ()):
    """Yield (line_number, cells) for non-blank CSV rows, skipping a header.

    Cells are stripped; a row is blank when every cell is empty after
    stripping.  The header is the first non-blank row when its first cells
    are the names ``header``, in any case, whatever its width.
    """
    lines, counts, cells = _drop_header(*_records(path, *_read(path)), header)
    start = 0
    for lineno, end in zip(lines.tolist(), np.cumsum(counts).tolist()):
        row = [c.strip() for c in cells[start:end]]
        start = end
        if any(row):
            yield lineno, row


def read_columns(path, width: int, header: tuple[str, ...] = ()):
    """The non-blank rows of a table of ``width`` fields, as columns.

    Returns (lines, columns): the int64 line number of every kept row and
    ``width`` lists of its stripped cells.  Blank rows and the header are
    skipped as by ``read_rows``.  The first other non-blank row with another
    number of fields raises InputError at ``path:line``.
    """
    lines, counts, cells = _drop_header(*_records(path, *_read(path)), header)
    fits = counts == width
    if not fits.all():
        starts = (np.cumsum(counts) - counts).tolist()
        for i in np.flatnonzero(~fits).tolist():
            if any(map(str.strip, cells[starts[i] : starts[i] + counts[i]])):
                raise InputError(
                    f"{path}:{lines[i]}: expected {width} fields, got {counts[i]}"
                )
        cells = list(chain.from_iterable(cells[s : s + width] for s in compress(starts, fits)))
        lines = lines[fits]
    columns = [list(map(str.strip, cells[k::width])) for k in range(width)]
    # a blank row has an empty cell in every column
    if all("" in column for column in columns):
        filled = np.zeros(len(lines), dtype=bool)
        for column in columns:
            filled |= np.fromiter(map(bool, column), bool, len(column))
        columns = [list(compress(column, filled)) for column in columns]
        lines = lines[filled]
    return lines, columns


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

    Rows of str cells are joined into one text and written at once.  A row
    with any other cell, or a text that shows a cell needing quotes (one
    holding a quote, a line end or a comma, or a row of one empty cell),
    sends the table to ``csv.writer``, a bool cell as "true" or "false".
    """
    body = list(rows)
    if header is not None:
        body.insert(0, header)
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
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(
                [("true" if c else "false") if c.__class__ is bool else c for c in row]
                for row in body
            )
        return
    Path(path).write_text(text, encoding="utf-8", newline="")
