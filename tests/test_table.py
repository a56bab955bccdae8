import pytest

from bicomet.errors import InputError
from bicomet.table import read_rows, write_rows


class TestWriteRows:
    def test_header_then_rows_with_newline_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["a", "b"], [("x", 1), ("y,z", 0.5)])
        assert path.read_bytes() == b'a,b\nx,1\n"y,z",0.5\n'

    def test_no_header_row_when_header_is_none(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, None, iter([("x", "red")]))
        assert path.read_bytes() == b"x,red\n"


class TestReadRows:
    def test_skips_blank_rows_and_strips_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a , b\n\n , \nc,d \n")
        assert list(read_rows(path)) == [(1, ["a", "b"]), (4, ["c", "d"])]

    def test_header_skips_first_line_only(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\nc\td\n")
        assert list(read_rows(path, delimiter="\t", header=True)) == [(2, ["c", "d"])]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["n1", "red", "0"], ["n,2", "blue", "1"]]
        write_rows(path, None, rows)
        assert [cells for _, cells in read_rows(path)] == rows

    def test_unreadable_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            list(read_rows(tmp_path / "missing.csv"))
