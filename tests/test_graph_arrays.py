"""BipartiteGraph.from_indices, the string constructor and the edge-list loader
against a dict/set oracle that interns and deduplicates edge by edge."""

import pickle
import tracemalloc

import numpy as np
import pytest

from bicomet.errors import InputError
from bicomet.graph import BipartiteGraph, load_edge_list


def oracle(edges, red_nodes=(), blue_nodes=()):
    """The edge-by-edge constructor: declared ids first, then endpoints in
    first-appearance order; duplicates skipped through a set of pairs.

    Returns (red_nodes, blue_nodes, edge_red, edge_blue, red_degrees,
    blue_degrees, duplicates_dropped) or raises InputError.
    """
    red_index: dict[str, int] = {}
    blue_index: dict[str, int] = {}
    red_order: list[str] = []
    blue_order: list[str] = []

    def declare(node, index, order, side):
        node = str(node)
        if not node:
            raise InputError("empty node identifier")
        if node in index:
            raise InputError(f"node {node!r} declared twice on side {side}")
        index[node] = len(order)
        order.append(node)

    for node in red_nodes:
        declare(node, red_index, red_order, "red")
    for node in blue_nodes:
        declare(node, blue_index, blue_order, "blue")
    both = red_index.keys() & blue_index.keys()
    if both:
        raise InputError(f"identifier(s) on both sides: {sorted(both)[:5]}")

    def intern(node, index, order, other_index):
        node = str(node)
        if not node:
            raise InputError("empty node identifier in edge")
        if node in other_index:
            raise InputError(f"identifier {node!r} appears on both sides")
        i = index.get(node)
        if i is None:
            i = len(order)
            index[node] = i
            order.append(node)
        return i

    pairs = []
    seen = set()
    dropped = 0
    for r, b in edges:
        key = (
            intern(r, red_index, red_order, blue_index),
            intern(b, blue_index, blue_order, red_index),
        )
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        pairs.append(key)
    if not red_order and not blue_order:
        raise InputError("empty graph: no nodes and no edges")
    pairs.sort()
    edge_red = [r for r, _ in pairs]
    edge_blue = [b for _, b in pairs]
    red_deg = np.bincount(edge_red, minlength=len(red_order)).tolist()
    blue_deg = np.bincount(edge_blue, minlength=len(blue_order)).tolist()
    return tuple(red_order), tuple(blue_order), edge_red, edge_blue, red_deg, blue_deg, dropped


def observed(graph):
    return (
        graph.red_nodes,
        graph.blue_nodes,
        graph.edge_red.tolist(),
        graph.edge_blue.tolist(),
        graph.red_degrees.tolist(),
        graph.blue_degrees.tolist(),
        graph.duplicates_dropped,
    )


def random_case(rng):
    """Node tuples and unsorted index arrays with duplicate edges; a side may
    be empty, and some nodes have no edge."""
    n_red = int(rng.integers(0, 8))
    n_blue = int(rng.integers(0 if n_red else 1, 8))
    red = tuple(f"r{i}" for i in rng.permutation(20)[:n_red])
    blue = tuple(f"b{i}" for i in rng.permutation(20)[:n_blue])
    m = int(rng.integers(0, 30)) if n_red and n_blue else 0
    return red, blue, rng.integers(0, max(n_red, 1), m), rng.integers(0, max(n_blue, 1), m)


def error_of(build):
    try:
        build()
    except InputError as exc:
        return str(exc)
    return None


class TestFromIndices:
    def test_equals_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            red, blue, ri, bi = random_case(rng)
            edges = [(red[r], blue[b]) for r, b in zip(ri.tolist(), bi.tolist())]
            expected = oracle(edges, red, blue)
            assert observed(BipartiteGraph.from_indices(red, blue, ri, bi)) == expected

    def test_string_constructor_equals_oracle_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            red, blue, ri, bi = random_case(rng)
            edges = [(red[r], blue[b]) for r, b in zip(ri.tolist(), bi.tolist())]
            # declare a random subset of each side, in a random order
            declared_red = [red[i] for i in rng.permutation(len(red))[: rng.integers(len(red) + 1)]]
            declared_blue = [blue[i] for i in rng.permutation(len(blue))[: rng.integers(len(blue) + 1)]]
            expected = error_of(lambda: oracle(edges, declared_red, declared_blue))
            if expected is not None:
                got = error_of(lambda: BipartiteGraph(edges, declared_red, declared_blue))
                assert got == expected
                continue
            graph = BipartiteGraph(edges, red_nodes=declared_red, blue_nodes=declared_blue)
            assert observed(graph) == oracle(edges, declared_red, declared_blue)

    def test_string_constructor_reports_the_oracles_first_fault(self):
        rng = np.random.default_rng(13)
        pool = ["a", "b", "c", "d", "e", ""]
        faults = 0
        for _ in range(300):
            m = int(rng.integers(0, 8))
            edges = [(pool[i], pool[j]) for i, j in rng.integers(0, len(pool), (m, 2)).tolist()]
            declared_red = [pool[i] for i in rng.integers(0, 5, rng.integers(0, 3)).tolist()]
            declared_blue = [pool[i] for i in rng.integers(0, 5, rng.integers(0, 3)).tolist()]
            expected = error_of(lambda: oracle(edges, declared_red, declared_blue))
            got = error_of(lambda: BipartiteGraph(edges, declared_red, declared_blue))
            assert got == expected
            faults += expected is not None
        assert faults > 100

    def test_ints_become_identifiers(self):
        graph = BipartiteGraph([(1, 2), (3, 2)])
        assert graph.red_nodes == ("1", "3")
        assert graph.blue_nodes == ("2",)

    def test_arrays_are_read_only(self):
        graph = BipartiteGraph.from_indices(("r0", "r1"), ("b0",), [1, 0], [0, 0])
        for array in (graph.edge_red, graph.edge_blue, graph.red_degrees, graph.blue_degrees):
            assert array.dtype == np.int64
            with pytest.raises(ValueError):
                array[0] = 5

    def test_arrays_stay_read_only_through_pickling(self):
        # worker processes get the graph pickled
        graph = BipartiteGraph.from_indices(("r0", "r1"), ("b0",), [1, 0], [0, 0])
        graph.id_rank
        again = pickle.loads(pickle.dumps(graph))
        assert again == graph
        arrays = {
            name: getattr(again, name)
            for name in BipartiteGraph.__slots__
            if isinstance(getattr(again, name), np.ndarray)
        }
        assert set(arrays) == {
            "edge_red", "edge_blue", "red_degrees", "blue_degrees", "_id_rank"
        }
        assert not any(array.flags.writeable for array in arrays.values())

    def test_caller_arrays_are_not_kept(self):
        ri = np.array([0, 1], dtype=np.int64)
        bi = np.array([0, 0], dtype=np.int64)
        graph = BipartiteGraph.from_indices(("r0", "r1"), ("b0",), ri, bi)
        ri[0] = 1
        assert graph.edge_red.tolist() == [0, 1]

    def test_empty_side_and_no_edges(self):
        graph = BipartiteGraph.from_indices(("r0",), (), [], [])
        assert graph.n_edges == 0
        assert graph.red_degrees.tolist() == [0]
        assert graph.blue_degrees.tolist() == []

    def test_out_of_range_index(self):
        with pytest.raises(InputError, match=r"^blue edge index 2 outside \[0, 2\)$"):
            BipartiteGraph.from_indices(("r0",), ("b0", "b1"), [0, 0], [1, 2])

    def test_negative_index(self):
        with pytest.raises(InputError, match=r"^red edge index -1 outside \[0, 1\)$"):
            BipartiteGraph.from_indices(("r0",), ("b0",), [-1], [0])

    def test_arrays_of_different_length(self):
        with pytest.raises(InputError, match="^edge index arrays differ in length: 2 red, 1 blue$"):
            BipartiteGraph.from_indices(("r0",), ("b0",), [0, 0], [0])

    def test_non_integer_indices(self):
        with pytest.raises(InputError, match="integer"):
            BipartiteGraph.from_indices(("r0",), ("b0",), [0.0], [0])

    def test_node_on_both_sides(self):
        with pytest.raises(InputError, match=r"^identifier\(s\) on both sides: \['x'\]$"):
            BipartiteGraph.from_indices(("r0", "x"), ("x",), [], [])

    def test_node_declared_twice(self):
        with pytest.raises(InputError, match="^node 'b0' declared twice on side blue$"):
            BipartiteGraph.from_indices(("r0",), ("b0", "b1", "b0"), [0], [1])

    def test_empty_id(self):
        with pytest.raises(InputError, match="^empty node identifier$"):
            BipartiteGraph.from_indices(("r0", ""), ("b0",), [0], [0])

    def test_no_nodes_at_all(self):
        with pytest.raises(InputError, match="^empty graph: no nodes and no edges$"):
            BipartiteGraph.from_indices((), (), [], [])


def quoted(node, pad=""):
    return '"' + pad + node.replace('"', '""') + pad + '"'


def write_noisy_edge_file(path, edges, rng):
    """Write ``edges`` with blank lines, padded cells and quoted ids."""
    lines = []
    for red, blue in edges:
        cells = []
        for node in (red, blue):
            if "," in node or '"' in node or rng.random() < 0.2:
                cells.append(quoted(node, pad=" " * int(rng.integers(0, 3))))
            else:
                cells.append(" " * int(rng.integers(0, 3)) + node + " " * int(rng.integers(0, 3)))
        lines.append(",".join(cells))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", " , "]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoaderEqualsOracle:
    def test_random_files(self, tmp_path):
        rng = np.random.default_rng(21)
        for case in range(60):
            red_pool = [f"r{i}" for i in range(6)] + ["bank, ltd", "r x"]
            blue_pool = [f"f{i}" for i in range(6)] + ['firm "q"', "f;y"]
            m = int(rng.integers(1, 25))
            edges = [
                (red_pool[i], blue_pool[j])
                for i, j in zip(rng.integers(0, 8, m).tolist(), rng.integers(0, 8, m).tolist())
            ]
            edge_file = tmp_path / f"e{case}.csv"
            write_noisy_edge_file(edge_file, edges, rng)
            if case % 4 == 1:
                red = [red_pool[i] for i in rng.permutation(8)[:5]]
                blue = [blue_pool[i] for i in rng.permutation(8)[:5]]
                node_file = tmp_path / f"n{case}.csv"
                rows = [quoted(n) + ",red" for n in red]
                rows += [quoted(n) + ", BLUE" for n in blue]
                order = rng.permutation(len(rows))
                node_file.write_text("\n".join(rows[i] for i in order) + "\n")
                red = [red[i] for i in order if i < len(red)]
                blue = [blue[i - len(red)] for i in order if i >= len(red)]
                graph = load_edge_list(edge_file, node_list_path=node_file)
                assert observed(graph) == oracle(edges, red, blue)
            else:
                graph = load_edge_list(edge_file)
                assert observed(graph) == oracle(edges)

    def test_node_lists_that_declare_every_id_or_all_but_one(self, tmp_path):
        # ids are looked up among the declared ones alone when those hold
        # them all, and numbered in order of appearance otherwise
        rng = np.random.default_rng(8)
        red_pool = [f"r{i}" for i in range(6)]
        blue_pool = [f"f{i}" for i in range(6)]
        undeclared = 0
        for case in range(40):
            m = int(rng.integers(1, 25))
            edges = list(zip(rng.choice(red_pool, m).tolist(), rng.choice(blue_pool, m).tolist()))
            red = [red_pool[i] for i in rng.permutation(6)]
            blue = [blue_pool[i] for i in rng.permutation(6)]
            if case % 2:
                side = red if case % 4 == 1 else blue
                dropped = side.pop(int(rng.integers(len(side))))
                undeclared += any(dropped in edge for edge in edges)
            edge_file, node_file = tmp_path / f"e{case}.csv", tmp_path / f"n{case}.csv"
            edge_file.write_text("".join(f"{r},{b}\n" for r, b in edges))
            node_file.write_text("".join(f"{n},red\n" for n in red)
                                 + "".join(f"{n},blue\n" for n in blue))
            graph = load_edge_list(edge_file, node_list_path=node_file)
            assert observed(graph) == oracle(edges, red, blue)
        assert undeclared > 0


class TestLoaderErrorLines:
    def check(self, build, expected):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == expected

    def test_empty_id_in_edge(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("a,b\n\nc, \n")
        self.check(lambda: load_edge_list(edges), f"{edges}:3: empty node identifier in edge")

    def test_id_on_both_sides_in_edges(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("a,b\nc,d\nb,e\n")
        self.check(lambda: load_edge_list(edges), f"{edges}:3: identifier 'b' appears on both sides")

    def test_first_fault_in_file_order(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("a,b\nx,a\n,c\n")
        self.check(lambda: load_edge_list(edges), f"{edges}:2: identifier 'a' appears on both sides")

    def test_edge_against_declared_side(self, tmp_path):
        edges = tmp_path / "e.csv"
        nodes = tmp_path / "n.csv"
        edges.write_text("a,b\nc,d\n")
        nodes.write_text("a,red\nd,red\n")
        self.check(
            lambda: load_edge_list(edges, node_list_path=nodes),
            f"{edges}:2: identifier 'd' appears on both sides",
        )

    def test_declared_red_id_at_a_blue_end(self, tmp_path):
        # every red end is declared, so only the blue ends are numbered anew
        edges = tmp_path / "e.csv"
        nodes = tmp_path / "n.csv"
        edges.write_text("a,b\nc,a\n")
        nodes.write_text("a,red\nb,blue\nc,red\n")
        self.check(
            lambda: load_edge_list(edges, node_list_path=nodes),
            f"{edges}:2: identifier 'a' appears on both sides",
        )

    def test_node_declared_twice(self, tmp_path):
        edges = tmp_path / "e.csv"
        nodes = tmp_path / "n.csv"
        edges.write_text("a,b\n")
        nodes.write_text("a,red\nb,blue\na,red\n")
        self.check(
            lambda: load_edge_list(edges, node_list_path=nodes),
            f"{nodes}:3: node 'a' declared twice on side red",
        )

    def test_empty_id_in_node_list(self, tmp_path):
        edges = tmp_path / "e.csv"
        nodes = tmp_path / "n.csv"
        edges.write_text("a,b\n")
        nodes.write_text("a,red\n\n  ,blue\n")
        self.check(
            lambda: load_edge_list(edges, node_list_path=nodes),
            f"{nodes}:3: empty node identifier",
        )

    def test_node_list_on_both_sides(self, tmp_path):
        edges = tmp_path / "e.csv"
        nodes = tmp_path / "n.csv"
        edges.write_text("a,b\n")
        nodes.write_text("a,red\nb,blue\nb,red\n")
        self.check(
            lambda: load_edge_list(edges, node_list_path=nodes),
            f"{nodes}:3: identifier(s) on both sides: ['b']",
        )

    def test_bad_field_count_after_blank_rows(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("a,b\n\n , \nc,d,e\n")
        self.check(lambda: load_edge_list(edges), f"{edges}:4: expected 2 fields, got 3")


@pytest.mark.usefixtures("small_chunks")
class TestLoaderEqualsOracleInSmallChunks(TestLoaderEqualsOracle):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestLoaderErrorLinesInSmallChunks(TestLoaderErrorLines):
    pass


class TestStreamedLoader:
    def test_undeclared_ids_first_met_in_later_chunks(self, tmp_path, small_chunks):
        edges = [("r0", "f0"), ("r1", "f0"), ("r0", "f1"), ("r2", "f2"),
                 ("r1", "f3"), ("r3", "f0"), ("r4", "f4"), ("r2", "f5")]
        edge_file, node_file = tmp_path / "e.csv", tmp_path / "n.csv"
        edge_file.write_text("".join(f"{r},{b}\n" for r, b in edges))
        node_file.write_text("r2,red\nf3,blue\n")
        graph = load_edge_list(edge_file, node_list_path=node_file)
        assert graph.red_nodes == ("r2", "r0", "r1", "r3", "r4")
        assert graph.blue_nodes == ("f3", "f0", "f1", "f2", "f4", "f5")
        assert observed(graph) == oracle(edges, ["r2"], ["f3"])

    def test_width_fault_in_a_late_chunk_wins_over_an_id_fault_in_an_early_one(
        self, tmp_path, small_chunks
    ):
        edges = tmp_path / "e.csv"
        edges.write_text("a,b\nb,c\n,d\n" + "e,f\n" * 30 + "g,h,i\n")
        with pytest.raises(InputError) as info:
            load_edge_list(edges)
        assert str(info.value) == f"{edges}:34: expected 2 fields, got 3"

    def test_transient_memory_per_edge(self, tmp_path):
        # ids are interned once per node; no cell of the file is held as a
        # str beyond its chunk
        rng = np.random.default_rng(3)
        n_edges = 120_000
        keys = rng.choice(2_000 * 3_000, n_edges, replace=False)
        red, blue = np.divmod(keys, 3_000)
        path = tmp_path / "edges.csv"
        rows = zip(red.tolist(), blue.tolist())
        path.write_text("".join(f"r{r:04d},b{b:04d}\n" for r, b in rows))
        tracemalloc.start()
        try:
            graph = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n_edges == n_edges
        assert peak / n_edges <= 80
