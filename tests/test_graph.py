import numpy as np
import pytest

from bicomet.errors import InputError
from bicomet.graph import (
    BipartiteGraph,
    PeriodGraphSeries,
    load_edge_list,
    load_node_list,
    load_period_series,
    write_edge_list,
    write_node_list,
)


def complete(p, q):
    reds = [f"r{i}" for i in range(p)]
    blues = [f"b{j}" for j in range(q)]
    return BipartiteGraph(
        [(r, b) for r in reds for b in blues], red_nodes=reds, blue_nodes=blues
    )


def edge_ids(graph):
    """The set of a graph's edges as (red id, blue id) pairs."""
    return {
        (graph.red_nodes[r], graph.blue_nodes[b])
        for r, b in zip(graph.edge_red.tolist(), graph.edge_blue.tolist())
    }


class TestConstruction:
    def test_dedup_counts(self):
        g = BipartiteGraph([("b1", "f1"), ("b1", "f2"), ("b1", "f1")])
        assert g.n_edges == 2
        assert g.duplicates_dropped == 1

    def test_first_appearance_order(self):
        g = BipartiteGraph([("x", "u"), ("w", "u"), ("x", "v")])
        assert g.red_nodes == ("x", "w")
        assert g.blue_nodes == ("u", "v")

    def test_rejects_node_on_both_sides(self):
        with pytest.raises(InputError, match="both sides"):
            BipartiteGraph([("a", "b"), ("b", "c")])

    def test_rejects_fully_empty(self):
        with pytest.raises(InputError, match="empty graph"):
            BipartiteGraph([])

    def test_isolated_declared_nodes_kept(self):
        g = BipartiteGraph([("r1", "b1")], red_nodes=["r1", "r2"], blue_nodes=["b1"])
        assert g.red_nodes == ("r1", "r2")
        assert list(g.red_degrees) == [1, 0]

    def test_degree_sums_match_edge_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = rng.integers(1, 10, size=2)
            mat = rng.random((p, q)) < 0.4
            edges = [(f"r{i}", f"b{j}") for i in range(p) for j in range(q) if mat[i, j]]
            if not edges:
                continue
            g = BipartiteGraph(edges)
            assert g.red_degrees.sum() == g.blue_degrees.sum() == g.n_edges


class TestDegrees:
    def test_complete_2x3(self):
        g = complete(2, 3)
        red, blue = g.red_degrees, g.blue_degrees
        assert list(red) == [3, 3]
        assert list(blue) == [2, 2, 2]

    def test_isolated_zero(self):
        g = BipartiteGraph([("b1", "f1")], red_nodes=["b1", "b2"], blue_nodes=["f1"])
        red, blue = g.red_degrees, g.blue_degrees
        assert list(red) == [1, 0]
        assert list(blue) == [1]

    def test_no_edges_all_zero(self):
        g = BipartiteGraph([], red_nodes=["r0", "r1"], blue_nodes=["b0"])
        red, blue = g.red_degrees, g.blue_degrees
        assert list(red) == [0, 0]
        assert list(blue) == [0]


class TestLoading:
    def test_load_with_dedup(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("b1,f1\nb1,f2\nb1,f1\n")
        g = load_edge_list(f)
        assert g.n_edges == 2
        assert g.duplicates_dropped == 1

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("")
        with pytest.raises(InputError, match="empty graph"):
            load_edge_list(f)

    def test_bad_arity_reports_line(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("b1,f1\nb1\n")
        with pytest.raises(InputError, match=":2"):
            load_edge_list(f)

    def test_both_sides_rejected(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("a,b\nb,c\n")
        with pytest.raises(InputError, match="both sides"):
            load_edge_list(f)

    def test_node_list_declares_isolated(self, tmp_path):
        edges = tmp_path / "edges.csv"
        nodes = tmp_path / "nodes.csv"
        edges.write_text("b1,f1\n")
        nodes.write_text("b1,red\nb2,red\nf1,blue\n")
        g = load_edge_list(edges, node_list_path=nodes)
        assert g.red_nodes == ("b1", "b2")
        assert list(g.red_degrees) == [1, 0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with the utf-8 byte-order mark
        tables = {"edges": "r0,b0\nr1,b0\n", "nodes": "r0,red\nr1,red\nb0,blue\n"}
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
            (tmp_path / f"{name}_bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain = load_edge_list(tmp_path / "edges.csv", node_list_path=tmp_path / "nodes.csv")
        marked = load_edge_list(
            tmp_path / "edges_bom.csv", node_list_path=tmp_path / "nodes_bom.csv"
        )
        assert marked == plain
        assert marked.red_nodes == ("r0", "r1")

    def test_node_list_bad_side(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("b1,purple\n")
        with pytest.raises(InputError, match="side"):
            load_node_list(nodes)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        g = BipartiteGraph(
            [("b2", "f1"), ("b1", "f3"), ("b1", "f1")],
            red_nodes=["b2", "b1", "b9"],
            blue_nodes=["f1", "f3"],
        )
        write_edge_list(g, tmp_path / "e.csv")
        write_node_list(g, tmp_path / "n.csv")
        loaded = load_edge_list(tmp_path / "e.csv", node_list_path=tmp_path / "n.csv")
        assert loaded == g

    def test_edges_only_round_trip_preserves_topology(self, tmp_path):
        g = BipartiteGraph([("b2", "f1"), ("b1", "f3"), ("b1", "f1")])
        write_edge_list(g, tmp_path / "e.csv")
        loaded = load_edge_list(tmp_path / "e.csv")
        assert edge_ids(loaded) == edge_ids(g)
        assert set(loaded.red_nodes) == set(g.red_nodes)


class TestPeriodSeries:
    def test_manifest_loading(self, tmp_path):
        (tmp_path / "e1.csv").write_text("b1,f1\n")
        (tmp_path / "e2.csv").write_text("b1,f1\nb2,f1\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("period,edges\n1980,e1.csv\n1981,e2.csv\n")
        series = load_period_series(manifest)
        assert series.labels == ("1980", "1981")
        assert series[1][1].n_edges == 2

    def test_unordered_labels_rejected(self, tmp_path):
        (tmp_path / "e1.csv").write_text("b1,f1\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("1981,e1.csv\n1980,e1.csv\n")
        with pytest.raises(InputError, match="strictly increasing"):
            load_period_series(manifest)

    def test_label_order_is_checked_before_any_edge_file(self, tmp_path):
        # bad.csv is malformed, but the manifest's own fault is found first
        (tmp_path / "bad.csv").write_text("b1,f1\nb2\n")
        (tmp_path / "ok.csv").write_text("b1,f1\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("period,edges\np00,bad.csv\np02,ok.csv\np01,ok.csv\n")
        with pytest.raises(InputError) as info:
            load_period_series(manifest)
        assert str(info.value) == (
            f"{manifest}:4: period labels must be strictly increasing: 'p02' >= 'p01'"
        )

    def test_duplicate_labels_rejected(self):
        g = complete(1, 1)
        with pytest.raises(InputError):
            PeriodGraphSeries((("1980", g), ("1980", g)))

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("period,edges\n")
        with pytest.raises(InputError, match="empty manifest"):
            load_period_series(manifest)

    def test_empty_period_label_names_its_line(self, tmp_path):
        (tmp_path / "e1.csv").write_text("b1,f1\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("Period,edges\n1980,e1.csv\n ,e1.csv\n")
        with pytest.raises(InputError) as info:
            load_period_series(manifest)
        assert str(info.value) == f"{manifest}:3: empty period label"


class TestNodeListReportsEarliestFault:
    """A node list's first faulty row in file order is the one reported,
    whatever kind of fault a later row holds."""

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("b1,blue\nb1,blue\n,red\n", ":2: node 'b1' declared twice on side blue"),
            (",red\nx,green\n", ":1: empty node identifier"),
            ("a,red\nb,blue\nc,blue\na,blue\nc,blue\n", ":4: identifier(s) on both sides: ['a']"),
            ("a,red\nb,purple\n,blue\n", ":2: unknown side 'purple'"),
            ("a,red\nb,blue\nb,red\na,red\n", ":3: identifier(s) on both sides: ['b']"),
        ],
    )
    def test_first_faulty_row(self, tmp_path, rows, message):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(rows)
        with pytest.raises(InputError) as info:
            load_node_list(nodes)
        assert str(info.value) == f"{nodes}{message}"
