import csv
import io

import numpy as np
import pytest

from bicomet.errors import InputError
from bicomet.graph import load_edge_list
from bicomet.table import int_cells, read_column_chunks, read_columns, read_rows, write_rows


class TestWriteRows:
    def test_header_then_rows_with_newline_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["a", "b"], [("x", 1), ("y,z", 0.5)])
        assert path.read_bytes() == b'a,b\nx,1\n"y,z",0.5\n'

    def test_no_header_row_when_header_is_none(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, None, iter([("x", "red")]))
        assert path.read_bytes() == b"x,red\n"

    def test_record_rows_stream_once_the_file_is_open(self, tmp_path):
        path = tmp_path / "records.csv"

        def rows():
            yield ("a", 1, True)
            # a record table is not listed first: the file is open by now
            assert path.exists()
            yield ("b", 2.5, False)

        write_rows(path, ["name", "n", "ok"], rows())
        assert path.read_text() == "name,n,ok\na,1,true\nb,2.5,false\n"


class TestReadRows:
    def test_skips_blank_rows_and_strips_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a , b\n\n , \nc,d \n")
        assert list(read_rows(path)) == [(1, ["a", "b"]), (4, ["c", "d"])]

    def test_header_skips_first_line_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nc,d\na,b\n")
        assert list(read_rows(path, header=("a",))) == [(2, ["c", "d"]), (3, ["a", "b"])]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["n1", "red", "0"], ["n,2", "blue", "1"]]
        write_rows(path, None, rows)
        assert [cells for _, cells in read_rows(path)] == rows

    def test_unreadable_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            list(read_rows(tmp_path / "missing.csv"))

    def test_path_with_a_nul_byte_is_input_error(self, tmp_path):
        path = tmp_path / "a\0b.csv"
        with pytest.raises(InputError, match=r"cannot read '.*a\\x00b\.csv': embedded null"):
            list(read_rows(path))
        with pytest.raises(InputError, match=r"a\\x00b\.csv"):
            read_columns(path, 2)


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
        lines, columns = read_columns(path, 2, header=("h1",))
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
            header = [(), ("a",), ("A", "B")][rng.integers(3)]
            expected = list(read_rows(path, header=header))
            lines, columns = read_columns(path, 2, header=header)
            assert lines.tolist() == [line for line, _ in expected]
            assert columns == [[row[k] for _, row in expected] for k in range(2)]


def csv_records(path, header=()):
    """(line, raw cells) of every record as csv.reader reads the file, less
    the first non-blank record when its first stripped cells are the names
    ``header`` in any case."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        records, line = [], 1
        for row in reader:
            records.append((line, row))
            line = reader.line_num + 1
    first = next((i for i, (_, row) in enumerate(records) if any(c.strip() for c in row)), None)
    if header and first is not None:
        leading = [c.strip().lower() for c in records[first][1][: len(header)]]
        if leading == [name.lower() for name in header]:
            del records[first]
    return records


def csv_columns(path, width, header):
    """``read_columns`` by the csv module alone: (lines, columns), or the line
    of the first non-blank row of another width."""
    kept = []
    for line, row in csv_records(path, header):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(cells) != width:
            return line
        kept.append((line, cells))
    return [line for line, _ in kept], [[cells[k] for _, cells in kept] for k in range(width)]


def csv_text(header, rows):
    """The text csv.writer writes for ``rows`` after ``header``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def random_header(rng):
    """No header names, or one or two of them."""
    return [(), ("id",), ("node_id", "side"), ("a",)][rng.integers(4)]


def with_header_line(rng, lines, header, pad=lambda: ""):
    """``lines`` and, most times when ``header`` names cells, one more line:
    those names in mixed case, padded, at times with further cells, or at
    times only some of them or out of order.  It goes first, after up to two
    blank lines, or among the rows."""
    if not header or rng.random() < 0.3:
        return lines
    names = [pad() + (name.upper() if rng.random() < 0.5 else name) + pad() for name in header]
    line = ",".join(names + ["x"] * int(rng.integers(0, 3)))
    if rng.random() < 0.3:
        # names only in part, or in another order
        line = ",".join(names[::-1] + ["id"]) if rng.random() < 0.5 else names[0][:-1] + ",b"
    at = [0, 0, int(rng.integers(0, len(lines) + 1))][rng.integers(3)]
    blanks = ["", " ", ","][: int(rng.integers(0, 3))] if at == 0 else []
    return blanks + lines[:at] + [line] + lines[at:]


class TestPlainTextOracle:
    # ids holding characters str.splitlines breaks at and csv keeps in a cell
    CELLS = ["a", "b1", " c ", "", " ", "\t", "d\x0ce", "f g", "h\x1ci",
             "j\x85k", "l\x0bm", "\x0c", "日本", "n o", "p\x1dq\x1e"]

    def random_text(self, rng, width, header):
        uniform = rng.random() < 0.5  # every line of ``width`` fields
        lines = []
        for _ in range(rng.integers(0, 9)):
            if not uniform and rng.random() < 0.2:
                lines.append(str(rng.choice(["", " ", "\t"])))
                continue
            fields = width if uniform or rng.random() < 0.8 else int(rng.integers(1, 4))
            lines.append(",".join(rng.choice(self.CELLS, size=fields)))
        return "\n".join(with_header_line(rng, lines, header)) + (
            "\n" if lines and rng.random() < 0.7 else ""
        )

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_read_columns_and_read_rows_equal_the_csv_module(self, tmp_path, width):
        rng = np.random.default_rng(width)
        path = tmp_path / "t.csv"
        for _ in range(400):
            header = random_header(rng)
            path.write_text(self.random_text(rng, width, header), encoding="utf-8", newline="")
            expected = csv_columns(path, width, header)
            if isinstance(expected, int):
                with pytest.raises(InputError, match=rf"t\.csv:{expected}: expected {width}"):
                    read_columns(path, width, header=header)
            else:
                lines, columns = read_columns(path, width, header=header)
                assert (lines.tolist(), columns) == expected
            rows = [
                (line, [c.strip() for c in row])
                for line, row in csv_records(path, header)
                if any(c.strip() for c in row)
            ]
            assert list(read_rows(path, header=header)) == rows

    def test_line_breaking_characters_stay_inside_a_cell(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("r\x0c1,b 1\nr\x1c2,b\x852\n", encoding="utf-8", newline="")
        lines, columns = read_columns(path, 2)
        assert lines.tolist() == [1, 2]
        assert columns == [["r\x0c1", "r\x1c2"], ["b 1", "b\x852"]]

    def test_tab_delimited_plain_text(self, tmp_path):
        # the one delimiter is the comma: a tab is part of its cell
        path = tmp_path / "t.tsv"
        path.write_text("h1\th2\na\t b\nc\td\n")
        lines, columns = read_columns(path, 1, header=("H1\tH2",))
        assert lines.tolist() == [2, 3]
        assert columns == [["a\t b", "c\td"]]
        with pytest.raises(InputError, match=r"t\.tsv:1: expected 2 fields, got 1"):
            read_columns(path, 2)


class TestPaddedCellsOracle:
    # cells padded with characters str.strip removes, ASCII and not
    PADS = ["", " ", "\t", "\xa0", "\u2003", " \t", "\x1f"]

    def random_text(self, rng, width, pads, header):
        lines = []
        for _ in range(rng.integers(0, 8)):
            cells = [
                rng.choice(pads) + rng.choice(["a", "b2", "", "c d"]) + rng.choice(pads)
                for _ in range(width)
            ]
            lines.append(",".join(cells))
        lines = with_header_line(rng, lines, header, pad=lambda: rng.choice(pads))
        return "\n".join(lines) + ("\n" if lines and rng.random() < 0.7 else "")

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_read_columns_and_read_rows_equal_the_csv_module(self, tmp_path, width):
        rng = np.random.default_rng(40 + width)
        path = tmp_path / "t.csv"
        for case in range(300):
            # a third of the texts is ASCII with no padding at all, where
            # the cells need no strip
            pads = [""] if case % 3 == 0 else self.PADS[: 2 + case % 6]
            header = random_header(rng)
            path.write_text(
                self.random_text(rng, width, pads, header), encoding="utf-8", newline=""
            )
            expected = csv_columns(path, width, header)
            if isinstance(expected, int):
                with pytest.raises(InputError, match=rf"t\.csv:{expected}: expected {width}"):
                    read_columns(path, width, header=header)
            else:
                lines, columns = read_columns(path, width, header=header)
                assert (lines.tolist(), columns) == expected
            rows = [
                (line, [c.strip() for c in row])
                for line, row in csv_records(path, header)
                if any(c.strip() for c in row)
            ]
            assert list(read_rows(path, header=header)) == rows


class TestQuotedTextOracle:
    # quoted cells holding commas, quotes and line ends, under every line end
    CELLS = ["a", " b ", "", "日本", '"c,d"', '"e""f"', '" g\nh "', '"i\r\nj"', '"k\rl"']

    def random_text(self, rng, width, header):
        end = ["\r\n", "\n", "\r"][rng.integers(3)] if rng.random() < 0.8 else None
        lines = []
        for _ in range(rng.integers(0, 9)):
            if rng.random() < 0.2:
                lines.append(str(rng.choice(["", " ", ","])))
                continue
            fields = width if rng.random() < 0.8 else int(rng.integers(1, 4))
            lines.append(",".join(rng.choice(self.CELLS, size=fields)))
        lines = with_header_line(rng, lines, header)
        ends = [end or ["\r\n", "\n", "\r"][rng.integers(3)] for _ in lines]
        text = "".join(line + e for line, e in zip(lines, ends))
        return text[: -len(ends[-1])] if lines and rng.random() < 0.3 else text

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_read_columns_and_read_rows_equal_the_csv_module(self, tmp_path, width):
        rng = np.random.default_rng(60 + width)
        path = tmp_path / "t.csv"
        for _ in range(300):
            header = random_header(rng)
            path.write_text(self.random_text(rng, width, header), encoding="utf-8", newline="")
            expected = csv_columns(path, width, header)
            if isinstance(expected, int):
                with pytest.raises(InputError, match=rf"t\.csv:{expected}: expected {width}"):
                    read_columns(path, width, header=header)
            else:
                lines, columns = read_columns(path, width, header=header)
                assert (lines.tolist(), columns) == expected
            rows = [
                (line, [c.strip() for c in row])
                for line, row in csv_records(path, header)
                if any(c.strip() for c in row)
            ]
            assert list(read_rows(path, header=header)) == rows


class TestWriteColumns:
    """Tables held as columns, written by ``write_rows`` as their zip."""

    CELLS = [",", '"', "\r", "\n", " pad ", "", "é", "日本", "a,b", 'say "hi"',
             "x\r\ny", "plain", "0", "  ", "z "]

    def test_bytes_equal_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.csv"
        for _ in range(600):
            width = int(rng.integers(1, 4))
            # half the tables draw only cells that need no quoting
            pool = self.CELLS if rng.random() < 0.5 else ["", " pad ", "é", "plain", "0"]
            rows = [tuple(rng.choice(pool, size=width).tolist())
                    for _ in range(rng.integers(0, 6))]
            header = None if rng.random() < 0.5 else tuple(rng.choice(pool, size=width).tolist())
            columns = [[row[k] for row in rows] for k in range(width)]
            write_rows(path, header, zip(*columns))
            assert path.read_bytes() == csv_text(header, rows).encode("utf-8")

    def test_one_empty_cell_row_is_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["id"], zip(["a", "", "b"]))
        assert path.read_bytes() == b'id\na\n""\nb\n'

    def test_plain_table_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["x", "y"], zip(["a", "b"], ["1", "2"]))
        assert path.read_bytes() == b"x,y\na,1\nb,2\n"
        lines, columns = read_columns(path, 2, header=("x", "y"))
        assert lines.tolist() == [2, 3]
        assert columns == [["a", "b"], ["1", "2"]]

    def test_mixed_cells_as_csv_writer_with_bools_spelled(self, tmp_path):
        path = tmp_path / "t.csv"
        # a row of str cells first, so the first other cell comes late
        rows = [("x", "y", "z", "w"), ("a", True, 1, 0.5), ("b", False, -2, 1e-300),
                ("c,d", True, 0, 2.0)]
        write_rows(path, ["s", "b", "i", "f"], rows)
        spelled = [[("true" if c else "false") if isinstance(c, bool) else c for c in row]
                   for row in rows]
        assert path.read_bytes() == csv_text(["s", "b", "i", "f"], spelled).encode("utf-8")
        assert path.read_bytes() == (
            b's,b,i,f\nx,y,z,w\na,true,1,0.5\nb,false,-2,1e-300\n"c,d",true,0,2.0\n'
        )


class TestReadFaults:
    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"a,b\nc,\xff\n")
        with pytest.raises(InputError, match=r"edges\.csv:2: not utf-8"):
            read_columns(path, 2)
        with pytest.raises(InputError, match=r"edges\.csv:2: not utf-8"):
            list(read_rows(path))

    def test_byte_order_mark_is_not_a_cell(self, tmp_path):
        path = tmp_path / "part.csv"
        for body in (b"node_id,side\nr0,red\n", b'node_id,side\n"r0",red\n'):
            path.write_bytes(b"\xef\xbb\xbf" + body)
            lines, columns = read_columns(path, 2, header=("node_id",))
            assert lines.tolist() == [2]
            assert columns == [["r0"], ["red"]]
            assert list(read_rows(path, header=("node_id",))) == [(2, ["r0", "red"])]
        # a bad byte after the mark is still named at its line
        path.write_bytes(b"\xef\xbb\xbfa,b\nc,\xff\n")
        with pytest.raises(InputError, match=r"part\.csv:2: not utf-8"):
            read_columns(path, 2)

    def test_oversized_quoted_cell_names_its_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text('a,b\nc,"' + "x" * 140_000 + '"\n')
        with pytest.raises(InputError, match=r"edges\.csv:2: field larger"):
            read_columns(path, 2)
        with pytest.raises(InputError, match=r"edges\.csv:2: field larger"):
            list(read_rows(path))

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_field_limit_is_the_same_quoted_or_not(self, tmp_path, quote):
        limit = csv.field_size_limit()
        path = tmp_path / "edges.csv"
        cell = quote + "x" * limit + quote
        path.write_text(f"a,b\nc,{cell}\n{cell},d\n")
        lines, columns = read_columns(path, 2)
        assert columns[1][1] == "x" * limit
        long_cell = quote + "x" * (limit + 1) + quote
        path.write_text(f"a,b\n{'y' * limit},{'y' * limit}\n{long_cell},d\n")
        with pytest.raises(InputError, match=r"edges\.csv:3: field larger than field limit"):
            read_columns(path, 2)
        with pytest.raises(InputError, match=r"edges\.csv:3: field larger than field limit"):
            list(read_rows(path))

    def test_field_limit_fault_wins_over_an_earlier_width_fault(self, tmp_path):
        # the csv module's fault is found before any record is handed on
        path = tmp_path / "edges.csv"
        path.write_text('a,b\r\nc,d,e\r\n' + "f,g\r\n" * 20_000 + '"' + "x" * 140_000 + '",h\r\n')
        for read in (lambda: read_columns(path, 2), lambda: load_edge_list(path)):
            with pytest.raises(InputError, match=r"edges\.csv:20003: field larger than field limit"):
                read()

    def test_line_longer_than_the_limit_of_short_cells_loads(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "edges.csv"
        half = "x" * (limit // 2 + 1)
        path.write_text(f"a,b\n{half},{half}\nc,d\n")
        lines, columns = read_columns(path, 2)
        assert (lines.tolist(), columns) == csv_columns(path, 2, ())
        assert columns == [["a", half, "c"], ["b", half, "d"]]
        path.write_text(",".join(["ab"] * (limit // 2)) + "\n")
        assert list(read_rows(path)) == [(1, ["ab"] * (limit // 2))]

    def test_oversized_plain_cell_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "edges.csv"
        path.write_text(f"a,b\n\nc,d\n{'x' * (limit + 1)},e\nf,g\n")
        with pytest.raises(InputError, match=r"edges\.csv:4: field larger than field limit"):
            read_columns(path, 2)
        with pytest.raises(InputError, match=r"edges\.csv:4: field larger than field limit"):
            list(read_rows(path))
        with pytest.raises(InputError, match=r"edges\.csv:4: field larger than field limit"):
            load_edge_list(path)
        # a line of one cell, with and without its line end
        for end in ("\n", ""):
            path.write_text(f"a\n{'x' * limit}\n{'x' * (limit + 1)}{end}")
            with pytest.raises(InputError, match=r"edges\.csv:3: field larger than field limit"):
                list(read_rows(path))
            path.write_text(f"a\n{'x' * limit}{end}")
            assert list(read_rows(path)) == [(1, ["a"]), (2, ["x" * limit])]

    @staticmethod
    def csv_fault(path):
        """``path:line: message`` of the first fault csv.reader raises in the
        file at ``path``, at the line it counts, or None."""
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                for _ in reader:
                    pass
            except csv.Error as exc:
                return f"{path}:{reader.line_num}: {exc}"
        return None

    def test_oversized_cell_in_carriage_return_text_names_the_csv_line(self, tmp_path):
        # quote-free text under mixed line ends, with cells of exactly the
        # limit in characters that are longer in bytes, blank lines, and one
        # or two cells over the limit anywhere
        limit = csv.field_size_limit()
        rng = np.random.default_rng(70)
        path = tmp_path / "edges.csv"
        for _ in range(12):
            lines = [str(rng.choice(["a,b", "日本,c", "", " , ", "d,e"])) for _ in range(8)]
            for _ in range(int(rng.integers(0, 3))):
                lines[rng.integers(8)] = "é" * limit + ",f"
            for _ in range(int(rng.integers(1, 3))):
                cell = str(rng.choice(["x", "é"])) * (limit + 1)
                lines[rng.integers(8)] = f"g,{cell}" if rng.random() < 0.5 else f"{cell},g"
            ends = [str(rng.choice(["\r\n", "\n", "\r"])) for _ in lines]
            ends[rng.integers(8)] = "\r"
            text = "".join(line + end for line, end in zip(lines, ends))
            path.write_text(text[: -len(ends[-1])] if rng.random() < 0.3 else text,
                            encoding="utf-8", newline="")
            expected = self.csv_fault(path)
            assert "field larger than field limit" in expected
            for read in (lambda: read_columns(path, 2), lambda: list(read_rows(path)),
                         lambda: load_edge_list(path)):
                with pytest.raises(InputError) as raised:
                    read()
                assert str(raised.value) == expected

    @pytest.mark.parametrize("nul_first", [True, False])
    def test_nul_byte_in_carriage_return_text_fails_as_csv_reader(self, tmp_path, nul_first):
        # the csv module of Python 3.10 rejects a NUL byte; later ones read it
        limit = csv.field_size_limit()
        path = tmp_path / "edges.csv"
        lines = ["a,b", "c,d\0", "x" * (limit + 1) + ",e", "f,g"]
        if not nul_first:
            lines[1:3] = lines[2:0:-1]
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        expected = self.csv_fault(path)
        for read in (lambda: read_columns(path, 2), lambda: list(read_rows(path))):
            with pytest.raises(InputError) as raised:
                read()
            assert str(raised.value) == expected

    def test_long_crlf_text_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "edges.csv"
        path.write_text("r0,f0\r\nr1,f1\r\n" * 10_000, encoding="utf-8", newline="")
        assert path.stat().st_size > csv.field_size_limit()
        expected = csv_columns(path, 2, ())
        passes = []
        reader = csv.reader

        def counted(*args, **kwargs):
            passes.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counted)
        lines, columns = read_columns(path, 2)
        assert (lines.tolist(), columns) == expected
        assert len(passes) == 1


@pytest.mark.usefixtures("small_chunks")
class TestPlainTextOracleInSmallChunks(TestPlainTextOracle):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestPaddedCellsOracleInSmallChunks(TestPaddedCellsOracle):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestReadFaultsInSmallChunks(TestReadFaults):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestQuotedTextOracleInSmallChunks(TestQuotedTextOracle):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestPhysicalLineNumbersInSmallChunks(TestPhysicalLineNumbers):
    pass


class TestChunks:
    def test_chunks_of_whole_lines_number_lines_through(self, tmp_path, small_chunks):
        path = tmp_path / "t.csv"
        path.write_text("日本,x\n\nab,cd\n" * 5 + "e,f", encoding="utf-8")
        chunks = list(read_column_chunks(path, 2))
        assert len(chunks) > 1
        lines = np.concatenate([lines for lines, _ in chunks])
        assert lines.tolist() == [1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
        assert read_columns(path, 2)[1][0] == ["日本", "ab"] * 5 + ["e"]


class TestIntCells:
    @pytest.mark.parametrize(
        "values",
        [[], [0], [3, 0, 3, 1], [0, 10**12], [5, 5]],
    )
    def test_decimal_strings(self, values):
        values = np.array(values, dtype=np.int64)
        assert int_cells(values) == [str(v) for v in values.tolist()]
