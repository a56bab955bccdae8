import numpy as np
import pytest

from bicomet.errors import InputError
from bicomet.graph import load_edge_list
from bicomet.table import read_columns, read_rows, write_rows


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


class TestPhysicalLineNumbers:
    # the quoted cell of the first record spans lines 1 and 2
    TEXT = 'a,"multi\nline"\nc,d,e\n'

    def test_read_rows_numbers_records_by_first_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(self.TEXT)
        assert [line for line, _ in read_rows(path)] == [1, 3]

    def test_read_columns_error_names_physical_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(self.TEXT)
        with pytest.raises(InputError, match=r"edges\.csv:3: expected 2 fields, got 3"):
            read_columns(path, 2)
        with pytest.raises(InputError, match=r"edges\.csv:3: expected 2 fields, got 3"):
            load_edge_list(path)

    def test_read_columns_lines_after_a_multiline_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('h1,h2\n\na,"x\ny"\n\nc,d\n')
        lines, columns = read_columns(path, 2, header=True)
        assert lines.tolist() == [3, 6]
        assert columns == [["a", "c"], ["x\ny", "d"]]

    def test_read_columns_numbers_lines_as_read_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        cells = ["a", " b ", "", '"x\ny"', '"p\n\nq"', '"r,s"']
        path = tmp_path / "t.csv"
        for _ in range(200):
            rows = [
                ",".join(rng.choice(cells, size=2)) if rng.random() < 0.8 else ""
                for _ in range(rng.integers(0, 8))
            ]
            path.write_text("\n".join(rows) + ("\n" if rng.random() < 0.5 else ""))
            header = bool(rng.random() < 0.5)
            expected = list(read_rows(path, header=header))
            lines, columns = read_columns(path, 2, header=header)
            assert lines.tolist() == [line for line, _ in expected]
            assert columns == [[row[k] for _, row in expected] for k in range(2)]
