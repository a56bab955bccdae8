class InputError(ValueError):
    """Malformed user-supplied file, parameter, or configuration value."""


class _RowError(InputError):
    """An InputError about one row of a table, at index ``row`` of its rows;
    the loader that read the table turns the index into ``path:line``."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row
