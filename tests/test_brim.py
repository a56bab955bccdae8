import numpy as np
import pytest

from bicomet.brim import (
    Partition,
    adapt_module_count,
    best_result,
    bipartite_modularity,
    brim_converge,
    brim_multirun,
    brim_step,
    random_partition,
    read_partition_csv,
    write_partition_csv,
)
from bicomet.errors import InputError
from bicomet.graph import BLUE, RED, BipartiteGraph
from bicomet.metrics import adjusted_rand_index


def disjoint_bicliques(count, n_red, n_blue):
    reds, blues, edges = [], [], []
    for c in range(count):
        rs = [f"r{c}_{i}" for i in range(n_red)]
        bs = [f"b{c}_{j}" for j in range(n_blue)]
        reds += rs
        blues += bs
        edges += [(r, b) for r in rs for b in bs]
    return BipartiteGraph(edges, red_nodes=reds, blue_nodes=blues)


def component_partition(graph, count, n_red, n_blue):
    red_labels = [c for c in range(count) for _ in range(n_red)]
    blue_labels = [c for c in range(count) for _ in range(n_blue)]
    return Partition.from_arrays(graph.red_nodes, graph.blue_nodes, red_labels, blue_labels)


def random_graph(rng, max_red=4, max_total=8, min_edges=1):
    while True:
        p = int(rng.integers(1, max_red + 1))
        q = int(rng.integers(1, max_total - p + 1))
        mat = rng.random((p, q)) < rng.uniform(0.2, 0.9)
        if mat.sum() >= min_edges:
            break
    reds = [f"r{i}" for i in range(p)]
    blues = [f"b{j}" for j in range(q)]
    edges = [(reds[i], blues[j]) for i in range(p) for j in range(q) if mat[i, j]]
    return BipartiteGraph(edges, red_nodes=reds, blue_nodes=blues)


class TestPartition:
    def test_compact_renumbers_canonically(self):
        part = Partition.from_arrays(("r0",), ("b0", "b1"), [5], [5, 2], 6)
        compacted = part.compact()
        assert compacted.red_labels == (0,)
        assert compacted.blue_labels == (0, 1)
        assert compacted.n_communities == 2

    def test_compact_is_node_order_independent(self):
        a = Partition.from_arrays(("r0", "r1"), ("b0",), [3, 1], [1], 4).compact()
        b = Partition.from_arrays(("r1", "r0"), ("b0",), [1, 3], [1], 4).compact()
        assert a.as_dict() == b.as_dict()

    def test_members_by_side(self):
        part = Partition.from_arrays(("r0", "r1"), ("b0",), [0, 1], [0])
        assert part.red_members(0) == {"r0"}
        assert part.blue_members(0) == {"b0"}
        assert part.members(0) == {"r0", "b0"}
        assert part.sizes() == (2, 1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Partition(("r0",), ("b0",), (0,), (2,), 2)

    def test_restriction_keeps_labels(self):
        part = Partition.from_arrays(("r0", "r1"), ("b0",), [0, 1], [1])
        sub = part.restricted_to({"r1", "b0"})
        assert sub.red_nodes == ("r1",)
        assert sub.n_communities == 2
        assert sub.sizes() == (0, 2)


class TestModularity:
    def test_all_in_one_is_exactly_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            g = random_graph(rng, max_red=5, max_total=12)
            part = Partition.from_arrays(
                g.red_nodes, g.blue_nodes, [0] * g.n_red, [0] * g.n_blue
            )
            assert bipartite_modularity(g, part) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_two_biclique_split_is_half(self, n):
        g = disjoint_bicliques(2, n, n)
        part = component_partition(g, 2, n, n)
        assert bipartite_modularity(g, part) == pytest.approx(0.5, abs=1e-12)

    def test_uncovered_node_rejected(self):
        g = BipartiteGraph([("r0", "b0"), ("r1", "b0")])
        part = Partition.from_arrays(("r0",), ("b0",), [0], [0])
        with pytest.raises(InputError, match="cover"):
            bipartite_modularity(g, part)

    def test_empty_edge_set_rejected(self):
        g = BipartiteGraph([], red_nodes=["r0"], blue_nodes=["b0"])
        part = Partition.from_arrays(("r0",), ("b0",), [0], [0])
        with pytest.raises(InputError):
            bipartite_modularity(g, part)


class TestBrimStep:
    def test_red_nodes_adopt_neighbor_community(self):
        g = disjoint_bicliques(2, 1, 1)
        start = Partition.from_arrays(g.red_nodes, g.blue_nodes, [1, 1], [0, 1])
        stepped = brim_step(g, start, RED)
        assert stepped.red_labels == (0, 1)
        assert bipartite_modularity(g, stepped) == pytest.approx(0.5, abs=1e-12)

    def test_fixed_point_is_idempotent(self):
        g = disjoint_bicliques(2, 2, 2)
        converged = brim_converge(g, component_partition(g, 2, 2, 2)).partition
        for side in (RED, BLUE):
            assert brim_step(g, converged, side) == converged

    def test_single_community_unchanged(self):
        g = disjoint_bicliques(2, 2, 2)
        part = Partition.from_arrays(
            g.red_nodes, g.blue_nodes, [0] * g.n_red, [0] * g.n_blue
        )
        for side in (RED, BLUE):
            assert brim_step(g, part, side) == part

    def test_never_decreases_modularity(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = random_graph(rng, max_red=5, max_total=10)
            c = int(rng.integers(1, g.n_red + g.n_blue + 1))
            part = random_partition(g, c, rng)
            q = bipartite_modularity(g, part)
            for side in (BLUE, RED):
                part = brim_step(g, part, side)
                q_next = bipartite_modularity(g, part)
                assert q_next >= q
                q = q_next

    def test_rejects_unknown_side(self):
        g = disjoint_bicliques(1, 1, 1)
        part = Partition.from_arrays(g.red_nodes, g.blue_nodes, [0], [0])
        with pytest.raises(ValueError):
            brim_step(g, part, "green")


class TestBrimConverge:
    def test_two_triples_reach_component_split(self):
        # stochastic local search: a known good start (collapsed starts
        # exist, which is what multirun restarts are for)
        g = disjoint_bicliques(2, 3, 3)
        rng = np.random.default_rng(0)
        result = brim_converge(g, random_partition(g, 2, rng))
        assert result.modularity == pytest.approx(0.5, abs=1e-12)
        assert result.partition.n_communities == 2

    def test_complete_graph_converges_to_zero(self):
        g = disjoint_bicliques(1, 2, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            result = brim_converge(g, random_partition(g, 4, rng))
            assert result.modularity == pytest.approx(0.0, abs=1e-12)

    def test_restart_from_converged_changes_nothing(self):
        g = disjoint_bicliques(2, 3, 3)
        rng = np.random.default_rng(0)
        first = brim_converge(g, random_partition(g, 2, rng))
        again = brim_converge(g, first.partition)
        assert again.partition == first.partition
        assert again.iterations == 1

    def test_stored_modularity_matches_recomputation(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            g = random_graph(rng)
            result = brim_converge(g, random_partition(g, 3, rng))
            recomputed = bipartite_modularity(g, result.partition)
            assert abs(result.modularity - recomputed) <= 1e-12

    def test_result_partition_is_compact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(rng)
            result = brim_converge(g, random_partition(g, 5, rng))
            assert result.partition.is_compact


class TestMultirun:
    def test_returns_one_result_per_run(self):
        g = disjoint_bicliques(2, 1, 1)
        results = brim_multirun(g, runs=20, restarts_per_run=5, master_seed=1)
        assert len(results) == 20
        assert [r.run_id for r in results] == list(range(20))

    def test_single_run_single_restart_on_two_bicliques(self):
        g = disjoint_bicliques(2, 1, 1)
        results = brim_multirun(g, runs=1, restarts_per_run=1, master_seed=0)
        assert len(results) == 1
        assert results[0].modularity == pytest.approx(0.5, abs=1e-12)

    def test_standard_protocol_shape(self):
        # 20 independent runs of 100 restarts each; one result per run
        g = disjoint_bicliques(2, 1, 2)
        results = brim_multirun(g, runs=20, restarts_per_run=100, master_seed=4)
        assert len(results) == 20
        assert all(r.modularity == results[0].modularity for r in results)

    def test_deterministic_given_master_seed(self):
        g = disjoint_bicliques(3, 2, 3)
        a = brim_multirun(g, runs=4, restarts_per_run=6, master_seed=7)
        b = brim_multirun(g, runs=4, restarts_per_run=6, master_seed=7)
        assert a == b

    def test_parallel_equals_serial(self):
        g = disjoint_bicliques(3, 2, 3)
        serial = brim_multirun(g, runs=4, restarts_per_run=4, master_seed=9)
        parallel = brim_multirun(g, runs=4, restarts_per_run=4, master_seed=9, workers=3)
        assert serial == parallel

    def test_rejects_bad_counts(self):
        g = disjoint_bicliques(1, 1, 1)
        with pytest.raises(ValueError):
            brim_multirun(g, runs=0, restarts_per_run=1)
        with pytest.raises(ValueError):
            brim_multirun(g, runs=1, restarts_per_run=0)

    def test_best_result_breaks_ties_by_run_id(self):
        g = disjoint_bicliques(2, 1, 1)
        results = brim_multirun(g, runs=5, restarts_per_run=3, master_seed=3)
        best = best_result(results)
        top = max(r.modularity for r in results)
        assert best.modularity == top
        assert best.run_id == min(r.run_id for r in results if r.modularity == top)


class TestAdaptModuleCount:
    def test_four_bicliques(self):
        g = disjoint_bicliques(4, 2, 2)
        result = adapt_module_count(g, seed=3)
        assert result.modularity == pytest.approx(0.75, abs=1e-12)
        assert result.partition.n_communities == 4

    def test_single_edge(self):
        g = disjoint_bicliques(1, 1, 1)
        result = adapt_module_count(g, seed=0)
        assert result.modularity == 0.0
        assert result.partition.n_communities == 1

    def test_star_has_zero_modularity(self):
        blues = [f"b{j}" for j in range(5)]
        g = BipartiteGraph([("hub", b) for b in blues])
        result = adapt_module_count(g, seed=1)
        assert result.modularity == pytest.approx(0.0, abs=1e-12)


class TestPermutationInvariance:
    def test_node_order_only_renames_labels(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_graph(rng, max_red=4, max_total=8)
            init_map = {
                node: int(rng.integers(0, 3)) for node in g.red_nodes + g.blue_nodes
            }
            perm_red = list(g.red_nodes)
            perm_blue = list(g.blue_nodes)
            rng.shuffle(perm_red)
            rng.shuffle(perm_blue)
            g2 = BipartiteGraph(g.edge_list(), red_nodes=perm_red, blue_nodes=perm_blue)

            def init_for(graph):
                return Partition.from_arrays(
                    graph.red_nodes,
                    graph.blue_nodes,
                    [init_map[n] for n in graph.red_nodes],
                    [init_map[n] for n in graph.blue_nodes],
                    3,
                )

            r1 = brim_converge(g, init_for(g))
            r2 = brim_converge(g2, init_for(g2))
            assert r1.modularity == pytest.approx(r2.modularity, abs=1e-12)
            if r1.partition.n_communities > 1 and len(init_map) > 1:
                assert adjusted_rand_index(r1.partition, r2.partition) == 1.0


class TestPartitionCsv:
    def test_round_trip(self, tmp_path):
        part = Partition.from_arrays(("r0", "r1"), ("b0", "b1"), [0, 1], [1, 0])
        path = tmp_path / "part.csv"
        write_partition_csv(part, path)
        assert read_partition_csv(path) == part

    def test_rejects_bad_side(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,purple,0\n")
        with pytest.raises(InputError, match="side"):
            read_partition_csv(path)

    def test_rejects_negative_community(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,red,-1\n")
        with pytest.raises(InputError):
            read_partition_csv(path)

    def test_rejects_node_listed_twice(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,red,0\nb0,blue,0\nr0,red,1\n")
        with pytest.raises(InputError, match=r"part\.csv:4: node 'r0' listed twice"):
            read_partition_csv(path)
