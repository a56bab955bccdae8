"""The CSV format of every table bicomet reads or writes.

Files are utf-8 and comma-separated with "\\n" line ends.  ``read_rows``
skips blank rows, strips every cell and numbers the lines, so each caller
only applies its own header rule and field checks and reports a bad row as
``path:line``.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import InputError


def read_rows(path, delimiter: str = ",", header: bool = False):
    """Yield (line_number, cells) for non-blank CSV rows, skipping a header.

    Cells are stripped; a row is blank when every cell is empty after
    stripping.  With ``header`` the first line is skipped.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if header and lineno == 1:
                continue
            yield lineno, cells


def write_rows(path, header, rows) -> None:
    """Write ``rows`` to ``path``, preceded by ``header`` unless it is None."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
