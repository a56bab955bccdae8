class InputError(ValueError):
    """Malformed user-supplied file, parameter, or configuration value."""


class _RowError(InputError):
    """An InputError about one row of a table, at ``row``: its index among
    the table's rows, or its line; the loader that read the table turns it
    into ``path:line``."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row
