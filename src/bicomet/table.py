"""The CSV format of every table bicomet reads or writes.

Files are utf-8 and comma-separated with "\\n" line ends.  ``read_rows``
skips blank rows, strips every cell and numbers the lines, so each caller
only applies its own header rule and field checks and reports a bad row as
``path:line``.  ``read_columns`` applies the same rules to a table of fixed
width and hands its cells on column by column.
"""

from __future__ import annotations

import csv
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InputError


def _open(path):
    path = Path(path)
    try:
        return path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _records(handle, delimiter):
    """Yield (line, row) for every CSV record, numbered by its first
    physical line, so a quoted cell that holds a line break shifts no
    later number."""
    reader = csv.reader(handle, delimiter=delimiter)
    line = 1
    for row in reader:
        yield line, row
        line = reader.line_num + 1


def read_rows(path, delimiter: str = ",", header: bool = False):
    """Yield (line_number, cells) for non-blank CSV rows, skipping a header.

    Cells are stripped; a row is blank when every cell is empty after
    stripping.  With ``header`` the first line is skipped.
    """
    with _open(path) as handle:
        for lineno, row in _records(handle, delimiter):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if header and lineno == 1:
                continue
            yield lineno, cells


def read_columns(path, width: int, delimiter: str = ",", header: bool = False):
    """The non-blank rows of a table of ``width`` fields, as columns.

    Returns (lines, columns): the int64 line number of every kept row and
    ``width`` lists of its stripped cells.  Blank rows and the header are
    skipped as by ``read_rows``; the first non-blank row with another number
    of fields raises InputError at ``path:line``.
    """
    with _open(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = []
        # as in _records, a record starts on line 1 or on the line after the
        # one the reader has reached once it hands on the record before
        starts = chain((1,), (reader.line_num + 1 for _ in map(rows.append, reader)))
        lines = np.fromiter(starts, np.int64)[:-1]
    if header:
        rows, lines = rows[1:], lines[1:]
    fits = np.fromiter(map(len, rows), np.int64, len(rows)) == width
    if not fits.all():
        for i in np.flatnonzero(~fits).tolist():
            if any(map(str.strip, rows[i])):
                raise InputError(
                    f"{path}:{lines[i]}: expected {width} fields, got {len(rows[i])}"
                )
        rows, lines = list(compress(rows, fits)), lines[fits]
    columns = [list(map(str.strip, map(itemgetter(k), rows))) for k in range(width)]
    # a blank row has an empty cell in every column
    if all("" in column for column in columns):
        filled = np.zeros(len(rows), dtype=bool)
        for column in columns:
            filled |= np.fromiter(map(bool, column), bool, len(column))
        columns = [list(compress(column, filled)) for column in columns]
        lines = lines[filled]
    return lines, columns


def write_rows(path, header, rows) -> None:
    """Write ``rows`` to ``path``, preceded by ``header`` unless it is None."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
