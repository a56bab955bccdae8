import hashlib
import json
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bicomet import brim
from bicomet.brim import (
    Partition,
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
from bicomet.graph import BLUE, RED, BipartiteGraph, rank_by_id
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


def label_map(partition):
    return dict(zip(partition.nodes, partition.labels.tolist()))


class TestPartition:
    def test_members_by_side(self):
        part = Partition.from_arrays(("r0", "r1"), ("b0",), [0, 1], [0])
        assert part.red_labels.tolist() == [0, 1]
        assert part.blue_labels.tolist() == [0]
        assert part.sizes() == (2, 1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Partition(("r0",), ("b0",), (0,), (2,), 2)

    def test_labels_are_one_int64_array_red_first(self):
        part = Partition(("r0", "r1"), ("b0",), [2, 0], [1], 3)
        assert part.labels.dtype == np.int64
        assert part.labels.tolist() == [2, 0, 1]
        assert part.red_labels.base is part.labels
        assert part.blue_labels.base is part.labels

    def test_labels_are_read_only(self):
        part = Partition(("r0",), ("b0", "b1"), [0], [1, 0], 2)
        for labels in (part.labels, part.red_labels, part.blue_labels):
            with pytest.raises(ValueError):
                labels[0] = 1

    def test_caller_arrays_are_copied(self):
        red = np.array([0, 1], dtype=np.int64)
        part = Partition(("r0", "r1"), (), red, [], 2)
        red[0] = 1
        assert part.red_labels.tolist() == [0, 1]

    def test_lists_and_int64_arrays_give_equal_partitions(self):
        from_lists = Partition.from_arrays(("r0", "r1"), ("b0",), [0, 1], [1])
        from_arrays = Partition.from_arrays(
            ("r0", "r1"), ("b0",), np.array([0, 1], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        assert from_lists == from_arrays
        assert from_lists.n_communities == from_arrays.n_communities == 2

    def test_equality(self):
        part = Partition(("r0", "r1"), ("b0",), [0, 1], [1], 2)
        assert part == Partition(["r0", "r1"], ["b0"], (0, 1), (1,), 2)
        assert part != Partition(("r0", "r1"), ("b0",), [1, 1], [1], 2)
        assert part != Partition(("r1", "r0"), ("b0",), [0, 1], [1], 2)
        assert part != Partition(("r0",), ("r1", "b0"), [0], [1, 1], 2)
        assert part != Partition(("r0", "r1"), ("b0",), [0, 1], [1], 3)
        assert part != (("r0", "r1"), ("b0",), (0, 1), (1,), 2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Partition(("r0",), (), [0], [], 1))

    def test_pickle_round_trip_keeps_labels_read_only(self):
        part = Partition(("r0", "r1"), ("b0",), [0, 1], [1], 2)
        again = pickle.loads(pickle.dumps(part))
        assert again == part
        assert not again.labels.flags.writeable

    @pytest.mark.parametrize(
        "red_nodes, blue_nodes, red_labels, blue_labels, message",
        [
            (("r0", "r1"), ("b0",), [0], [0], "red node and label counts differ"),
            (("r0",), ("b0",), [0], [0, 0], "blue node and label counts differ"),
        ],
    )
    def test_length_mismatch_message(
        self, red_nodes, blue_nodes, red_labels, blue_labels, message
    ):
        for labels in (red_labels, np.array(red_labels, dtype=np.int64)):
            with pytest.raises(InputError, match=f"^{message}$"):
                Partition(red_nodes, blue_nodes, labels, blue_labels, 2)

    @pytest.mark.parametrize(
        "red_labels, blue_labels, message",
        [
            ([0, 2], [3], r"^label 2 outside \[0, 2\)$"),
            ([0, 1], [-1], r"^label -1 outside \[0, 2\)$"),
            ([-4, 5], [1], r"^label -4 outside \[0, 2\)$"),
        ],
    )
    def test_out_of_range_message_names_first_bad_label(
        self, red_labels, blue_labels, message
    ):
        with pytest.raises(InputError, match=message):
            Partition(("r0", "r1"), ("b0",), red_labels, blue_labels, 2)

    def test_empty_partition_allows_zero_communities(self):
        assert Partition((), (), [], [], 0).sizes() == ()
        with pytest.raises(InputError, match=r"^label 0 outside \[0, 0\)$"):
            Partition(("r0",), (), [0], [], 0)


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
        assert stepped.red_labels.tolist() == [0, 1]
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


def dense_brim_step(graph, partition, side):
    """Reference oracle: the dense n x c argmax step that the sparse
    ``brim_step`` replaced.  Returns (red labels, blue labels) as lists."""
    mapping = label_map(partition)
    red_l = np.array([mapping[n] for n in graph.red_nodes], dtype=np.int64)
    blue_l = np.array([mapping[n] for n in graph.blue_nodes], dtype=np.int64)
    c = partition.n_communities
    m = graph.n_edges
    fixed_mass = np.zeros(c, dtype=np.int64)
    if side == RED:
        np.add.at(fixed_mass, blue_l, graph.blue_degrees)
        counts = np.zeros((graph.n_red, c), dtype=np.int64)
        np.add.at(counts, (graph.edge_red, blue_l[graph.edge_blue]), 1)
        scores = counts * m - graph.red_degrees[:, None] * fixed_mass[None, :]
        red_l = np.argmax(scores, axis=1)
    else:
        np.add.at(fixed_mass, red_l, graph.red_degrees)
        counts = np.zeros((graph.n_blue, c), dtype=np.int64)
        np.add.at(counts, (graph.edge_blue, red_l[graph.edge_red]), 1)
        scores = counts * m - graph.blue_degrees[:, None] * fixed_mass[None, :]
        blue_l = np.argmax(scores, axis=1)
    return red_l.tolist(), blue_l.tolist()


def graph_with_isolated_nodes(rng):
    p = int(rng.integers(1, 7))
    q = int(rng.integers(1, 9))
    mat = rng.random((p, q)) < rng.uniform(0.1, 0.8)
    if not mat.any():
        mat[rng.integers(p), rng.integers(q)] = True
    reds = [f"r{i}" for i in rng.permutation(p)]
    blues = [f"b{j}" for j in rng.permutation(q)]
    edges = [(reds[i], blues[j]) for i in range(p) for j in range(q) if mat[i, j]]
    reds += [f"r_isolated{i}" for i in range(int(rng.integers(0, 3)))]
    blues += [f"b_isolated{j}" for j in range(int(rng.integers(0, 3)))]
    return BipartiteGraph(edges, red_nodes=reds, blue_nodes=blues)


def kernel_inputs(graph, partition, side):
    """The arguments a best-label kernel takes for stepping ``side`` of
    ``partition``, built here from the graph's edges, and the aligned
    (red labels, blue labels)."""
    mapping = label_map(partition)
    red_l = np.array([mapping[n] for n in graph.red_nodes], dtype=np.int64)
    blue_l = np.array([mapping[n] for n in graph.blue_nodes], dtype=np.int64)
    c = partition.n_communities
    if side == RED:
        fixed_l, fixed_degrees, degrees = blue_l, graph.blue_degrees, graph.red_degrees
        # the red end of every edge, the edges grouped by blue end
        order = np.argsort(graph.edge_blue, kind="stable")
        moving = graph.edge_red[order]
    else:
        fixed_l, fixed_degrees, degrees = red_l, graph.red_degrees, graph.blue_degrees
        moving = graph.edge_blue
    fixed_mass = np.zeros(c, dtype=np.int64)
    np.add.at(fixed_mass, fixed_l, fixed_degrees)
    args = (moving, fixed_degrees, fixed_l, degrees, fixed_mass, graph.n_edges)
    return args, red_l, blue_l


def kernel_step(kernel, graph, partition, side, with_sum=False):
    """Step ``side`` of ``partition`` by calling a best-label kernel directly;
    returns (red labels, blue labels) as lists, and the kernel's score sum
    with ``with_sum``."""
    args, red_l, blue_l = kernel_inputs(graph, partition, side)
    labels, total = kernel(*args, brim._Scratch(graph))
    if side == RED:
        red_l = labels
    else:
        blue_l = labels
    stepped = red_l.tolist(), blue_l.tolist()
    return stepped + (total,) if with_sum else stepped


def brim_step_lists(graph, partition, side):
    stepped = brim_step(graph, partition, side)
    assert stepped.n_communities == partition.n_communities
    return stepped.red_labels.tolist(), stepped.blue_labels.tolist()


class TestSparseStepMatchesDenseOracle:
    # ``brim_step``; the subclasses below call each kernel directly
    step = staticmethod(brim_step_lists)

    def test_random_graphs_both_sides(self):
        rng = np.random.default_rng(31)
        isolated = 0
        for _ in range(250):
            g = graph_with_isolated_nodes(rng)
            isolated += int((g.red_degrees == 0).sum() + (g.blue_degrees == 0).sum())
            c = int(rng.integers(1, g.n_red + g.n_blue + 1))
            part = random_partition(g, c, rng)
            for side in (RED, BLUE):
                assert self.step(g, part, side) == dense_brim_step(g, part, side)
        assert isolated > 0

    def test_degree_zero_nodes_take_label_zero(self):
        g = BipartiteGraph(
            [("r0", "b0"), ("r1", "b1")],
            red_nodes=["r0", "r1", "r2"],
            blue_nodes=["b0", "b1", "b2"],
        )
        part = Partition.from_arrays(g.red_nodes, g.blue_nodes, [1, 0, 1], [1, 0, 1], 2)
        assert self.step(g, part, RED)[0] == [1, 0, 0]
        assert self.step(g, part, BLUE)[1] == [1, 0, 0]

    @pytest.mark.parametrize(
        "blue_label, c",
        [
            (0, 2),  # neighbour community 0 ties the empty fallback 1
            (1, 2),  # the empty fallback 0 ties neighbour community 1
            (2, 3),  # the empty fallback 0 ties neighbour community 2
        ],
    )
    def test_tie_between_neighbour_and_least_mass_fallback(self, blue_label, c):
        # every edge ends at b0, so its community holds all blue mass m and
        # scores 1 * m - 1 * m = 0, the score of an empty community: the
        # lowest label, 0, wins the tie
        g = BipartiteGraph([("r0", "b0"), ("r1", "b0")])
        part = Partition.from_arrays(g.red_nodes, g.blue_nodes, [1, 1], [blue_label], c)
        assert self.step(g, part, RED)[0] == [0, 0]
        assert dense_brim_step(g, part, RED)[0] == [0, 0]


class TestSparseKernelMatchesDenseOracle(TestSparseStepMatchesDenseOracle):
    step = staticmethod(partial(kernel_step, brim._sparse_best_labels))


class TestDenseKernelMatchesDenseOracle(TestSparseStepMatchesDenseOracle):
    step = staticmethod(partial(kernel_step, brim._dense_best_labels))


class TestTwoPassSparseKernelMatchesDenseOracle(TestSparseKernelMatchesDenseOracle):
    # past the packing bound, each node's best score and lowest best label
    # are found in two passes
    @pytest.fixture(autouse=True)
    def unpacked(self, monkeypatch):
        monkeypatch.setattr(brim, "_PACKED_SCORES", 0)


class TestTwoPassDenseKernelMatchesDenseOracle(TestDenseKernelMatchesDenseOracle):
    @pytest.fixture(autouse=True)
    def unpacked(self, monkeypatch):
        monkeypatch.setattr(brim, "_PACKED_SCORES", 0)


class TestInt64KeySparseKernelMatchesDenseOracle(TestSparseKernelMatchesDenseOracle):
    # past the int32 bound, the sorted keys node << s | (mask - label) are int64
    @pytest.fixture(autouse=True)
    def int64_keys(self, monkeypatch):
        monkeypatch.setattr(brim, "_INT32_KEYS", 0)


class TestKernelScoreSum:
    """Each kernel's sum of chosen scores is the exact modularity numerator
    of the partition with the stepped side relabelled."""

    @pytest.mark.parametrize("packed_limit", [2**62, 0])
    @pytest.mark.parametrize("kernel", ["sparse", "dense"])
    def test_sum_is_the_numerator_after_the_step(self, monkeypatch, kernel, packed_limit):
        monkeypatch.setattr(brim, "_PACKED_SCORES", packed_limit)
        kernel = getattr(brim, f"_{kernel}_best_labels")
        rng = np.random.default_rng(77)
        ties = fallbacks = 0
        for case in range(300):
            g = graph_with_isolated_nodes(rng)
            # few communities make many equal scores; many leave communities
            # that no edge of a node reaches, whose lowest label can win a tie
            c = int(rng.integers(1, 4 if case % 2 else g.n_red + g.n_blue + 1))
            part = random_partition(g, c, rng)
            for side in (RED, BLUE):
                red_l, blue_l, total = kernel_step(kernel, g, part, side, with_sum=True)
                expected = brim._modularity_numerator(g, np.array(red_l), np.array(blue_l), c)
                assert total == expected
                args, _, _ = kernel_inputs(g, part, side)
                counts, scores = dense_scores(*args)
                chosen = np.array(red_l if side == RED else blue_l)
                ties += int((scores == scores.max(axis=1, keepdims=True)).sum(axis=1).max() > 1)
                reached = counts[np.arange(len(chosen)), chosen] > 0
                fallbacks += int(np.any(~reached & (args[3] > 0)))
        assert ties > 0 and fallbacks > 0

    @pytest.mark.parametrize("packed_limit", [2**62, 0])
    def test_fallback_wins_only_a_tie_at_zero(self, monkeypatch, packed_limit):
        # a node's reached scores sum to d * (m - their masses) >= 0, and an
        # unreached community scores -d * its mass <= 0
        monkeypatch.setattr(brim, "_PACKED_SCORES", packed_limit)
        rng = np.random.default_rng(78)
        fallbacks = 0
        for case in range(300):
            g = graph_with_isolated_nodes(rng)
            c = int(rng.integers(1, 4 if case % 2 else g.n_red + g.n_blue + 1))
            part = random_partition(g, c, rng)
            for side in (RED, BLUE):
                red_l, blue_l = kernel_step(brim._sparse_best_labels, g, part, side)
                args, _, _ = kernel_inputs(g, part, side)
                counts, scores = dense_scores(*args)
                chosen = np.array(red_l if side == RED else blue_l)
                nodes = np.flatnonzero(args[3] > 0)
                reached = counts[nodes] > 0
                assert (np.where(reached, scores[nodes], 0).sum(axis=1) >= 0).all()
                best_reached = np.where(reached, scores[nodes], np.iinfo(np.int64).min).max(axis=1)
                assert (best_reached >= 0).all()
                fallback = ~reached[np.arange(nodes.size), chosen[nodes]]
                fallbacks += int(fallback.sum())
                assert (best_reached[fallback] == 0).all()
                assert (args[4][chosen[nodes][fallback]] == 0).all()
        assert fallbacks > 0

    def test_best_labels_returns_the_sum_on_both_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = graph_with_isolated_nodes(rng)
            c = int(rng.integers(1, g.n_red + g.n_blue + 1))
            part = random_partition(g, c, rng)
            red_l, blue_l = part.red_labels, part.blue_labels
            scratch = brim._Scratch(g)
            blue_new, _ = brim._best_labels(g, BLUE, red_l, c, scratch)
            red_new, total = brim._best_labels(g, RED, blue_new, c, scratch)
            assert total == brim._modularity_numerator(g, red_new, blue_new, c)


def dense_scores(moving, fixed_degrees, fixed_labels, degrees, fixed_mass, m):
    """The n x c tables of edge counts and of scores count * m - degree *
    fixed_mass of a kernel's inputs."""
    counts = np.zeros((len(degrees), len(fixed_mass)), dtype=np.int64)
    np.add.at(counts, (moving, np.repeat(fixed_labels, fixed_degrees)), 1)
    return counts, counts * m - np.outer(degrees, fixed_mass)


class TestKeyWidth:
    def test_int32_keys_while_node_count_shifted_fits(self, monkeypatch):
        # 3 red nodes, c = 4 (s = 2): the largest key bound is 3 << 2 = 12
        g = BipartiteGraph([(f"r{i}", f"b{j}") for i in range(3) for j in range(4)])
        part = random_partition(g, 4, np.random.default_rng(0))
        args, _, _ = kernel_inputs(g, part, RED)
        expected = dense_brim_step(g, part, RED)[0]
        for limit, dtype in ((13, np.int32), (12, np.int64)):
            monkeypatch.setattr(brim, "_INT32_KEYS", limit)
            scratch = brim._Scratch(g)
            labels, _ = brim._sparse_best_labels(*args, scratch)
            key_buffers = {d for name, d in scratch._arrays if name in ("shifted", "run_key")}
            assert key_buffers == {dtype}
            assert labels.tolist() == expected

    def test_packed_while_max_degree_times_m_shifted_fits(self, monkeypatch):
        # max degree 4, m = 12, c = 4 (s = 2): 4 * 12 << 2 = 192
        g = BipartiteGraph([(f"r{i}", f"b{j}") for i in range(3) for j in range(4)])
        monkeypatch.setattr(brim, "_PACKED_SCORES", 193)
        assert brim._packable(g.red_degrees, g.n_edges, 2)
        monkeypatch.setattr(brim, "_PACKED_SCORES", 192)
        assert not brim._packable(g.red_degrees, g.n_edges, 2)


class TestKernelDispatch:
    @pytest.mark.parametrize(
        "n_edges, c, expected",
        [
            (6, 4, "dense"),  # n * c = 3 * 4 = 2m
            (7, 5, "sparse"),  # n * c = 3 * 5 = 2m + 1
        ],
    )
    def test_dense_table_when_it_fits_in_2m_cells(self, monkeypatch, n_edges, c, expected):
        pairs = [(f"r{i}", f"b{j}") for j in range(4) for i in range(3)]
        g = BipartiteGraph(pairs[:n_edges], red_nodes=["r0", "r1", "r2"])
        assert g.n_red * c - 2 * g.n_edges == (0 if expected == "dense" else 1)
        called = []
        for name in ("dense", "sparse"):
            kernel = getattr(brim, f"_{name}_best_labels")

            def spy(*args, name=name, kernel=kernel):
                called.append(name)
                return kernel(*args)

            monkeypatch.setattr(brim, f"_{name}_best_labels", spy)
        part = random_partition(g, c, np.random.default_rng(n_edges))
        stepped = brim_step(g, part, RED)
        assert called == [expected]
        assert stepped.red_labels.tolist() == dense_brim_step(g, part, RED)[0]


def pinned_graph():
    rng = np.random.default_rng(2024)
    reds = [f"r{i:02d}" for i in range(18)]
    blues = [f"b{j:02d}" for j in range(24)]
    edges = [
        (reds[i], blues[j])
        for i in range(17)
        for j in range(24)
        if rng.random() < (0.5 if i % 3 == j % 3 else 0.15)
    ]
    return BipartiteGraph(edges, red_nodes=reds, blue_nodes=blues + ["b_isolated"])


class TestPinnedPartitions:
    def test_multirun_labels_match_recorded_digest(self):
        # digest recorded with the dense-step optimizer; the sparse array
        # core must reproduce every label, sweep count and modularity
        g = pinned_graph()
        results = brim_multirun(g, runs=4, restarts_per_run=5, master_seed=17)
        payload = [
            [
                r.run_id,
                r.iterations,
                r.modularity,
                r.partition.red_labels.tolist(),
                r.partition.blue_labels.tolist(),
            ]
            for r in results
        ]
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == "deb8c95d8806398e60e03c3bbb82bfe41019cfe897b84785b53f3c652ab8be52"


class TestBrimConverge:
    def test_one_numerator_per_converge(self, monkeypatch):
        # later sweeps take the numerator from the red step's score sum
        calls = []
        numerator = brim._modularity_numerator
        monkeypatch.setattr(
            brim, "_modularity_numerator", lambda *a: calls.append(1) or numerator(*a)
        )
        g = pinned_graph()
        result = brim_converge(g, random_partition(g, 20, np.random.default_rng(4)))
        assert result.iterations > 1
        assert len(calls) == 1
        results = brim_multirun(g, runs=3, restarts_per_run=4, master_seed=9)
        assert len(calls) == 1 + 12
        assert all(r.modularity == bipartite_modularity(g, r.partition) for r in results)

    def test_scratch_is_reused_across_restarts(self):
        g = pinned_graph()
        scratch = brim._Scratch(g)
        init = random_partition(g, 25, np.random.default_rng(8))
        first = brim_converge(g, init, scratch=scratch)
        arrays = dict(scratch._arrays)
        assert arrays
        again = brim_converge(g, init, scratch=scratch)
        assert again.partition == first.partition
        assert all(scratch._arrays[k] is v for k, v in arrays.items())
        copy = pickle.loads(pickle.dumps(scratch))
        assert copy._arrays == {} and np.array_equal(copy.red_by_blue, scratch.red_by_blue)

    def test_scratch_of_another_graph_is_rejected(self):
        g = pinned_graph()
        other = disjoint_bicliques(2, 2, 3)
        with pytest.raises(ValueError, match="another graph"):
            brim_converge(g, random_partition(g, 3, np.random.default_rng(1)),
                          scratch=brim._Scratch(other))

    def test_scratch_orders_the_red_ends_by_blue_node(self):
        g = pinned_graph()
        red_by_blue = brim._Scratch(g).red_by_blue
        blue_ends = np.repeat(np.arange(g.n_blue), g.blue_degrees)
        pairs = sorted(zip(g.edge_blue.tolist(), g.edge_red.tolist()))
        assert list(zip(blue_ends.tolist(), red_by_blue.tolist())) == pairs

    def test_red_order_is_sorted_only_for_a_red_step(self):
        g = pinned_graph()
        scratch = brim._Scratch(g)
        blue, _ = brim._best_labels(g, BLUE, np.zeros(g.n_red, np.int64), 1, scratch)
        assert scratch._red_by_blue is None
        brim._best_labels(g, RED, blue, int(blue.max()) + 1, scratch)
        assert scratch._red_by_blue is not None
        copy = pickle.loads(pickle.dumps(scratch))
        assert copy._red_by_blue is None

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
            assert 0 not in result.partition.sizes()

    def test_sweeps_stop_at_the_cap(self, monkeypatch):
        g = pinned_graph()
        init = random_partition(g, 20, np.random.default_rng(4))
        assert brim_converge(g, init).iterations > 1
        monkeypatch.setattr(brim, "MAX_SWEEPS", 1)
        result = brim_converge(g, init)
        assert result.iterations == 1
        labels = result.partition.labels
        assert brim._compact_labels(labels, g.id_rank)[0].tolist() == labels.tolist()
        assert result.modularity == bipartite_modularity(g, result.partition)


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

    def test_parallel_runs_share_the_graph_node_ids(self):
        g = disjoint_bicliques(3, 2, 3)
        serial = brim_multirun(g, runs=4, restarts_per_run=3, master_seed=4)
        parallel = brim_multirun(g, runs=4, restarts_per_run=3, master_seed=4, workers=2)
        for s, p in zip(serial, parallel):
            assert p.partition.red_nodes is g.red_nodes
            assert p.partition.blue_nodes is g.blue_nodes
            assert p.partition.labels.tolist() == s.partition.labels.tolist()

    def test_pool_holds_no_more_workers_than_runs(self, monkeypatch):
        g = disjoint_bicliques(3, 2, 3)
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(brim, "ProcessPoolExecutor", InProcessPool)
        pooled = brim_multirun(g, runs=3, restarts_per_run=2, master_seed=5, workers=1000)
        assert opened == [3]
        assert pooled == brim_multirun(g, runs=3, restarts_per_run=2, master_seed=5)

    def test_rejects_a_module_count_above_the_node_count(self):
        g = disjoint_bicliques(1, 2, 3)
        with pytest.raises(ValueError, match="module count 6 exceeds the 5 nodes"):
            brim_multirun(g, runs=1, restarts_per_run=1, module_count_schedule=[2, 6])
        # as many communities as nodes is a valid start
        brim_multirun(g, runs=1, restarts_per_run=1, module_count_schedule=[5])

    def test_rejects_bad_counts(self):
        g = disjoint_bicliques(1, 1, 1)
        with pytest.raises(ValueError):
            brim_multirun(g, runs=0, restarts_per_run=1)
        with pytest.raises(ValueError):
            brim_multirun(g, runs=1, restarts_per_run=0)

    def initial_counts(self, monkeypatch, graph, schedule):
        """The community count of every restart's random start."""
        counts = []
        draw = brim.random_partition
        monkeypatch.setattr(
            brim, "random_partition", lambda g, c, rng: counts.append(c) or draw(g, c, rng)
        )
        brim_multirun(graph, runs=2, restarts_per_run=3, module_count_schedule=schedule)
        return counts

    def test_schedule_cycles_over_the_restarts_of_each_run(self, monkeypatch):
        assert self.initial_counts(monkeypatch, pinned_graph(), [3, 5]) == [3, 5, 3] * 2

    def test_no_schedule_starts_at_the_smaller_side(self, monkeypatch):
        g = pinned_graph()
        assert self.initial_counts(monkeypatch, g, None) == [min(g.n_red, g.n_blue)] * 6

    @pytest.mark.parametrize("schedule", [[], [0]])
    def test_rejects_bad_schedules(self, schedule):
        with pytest.raises(ValueError, match="schedule"):
            brim_multirun(pinned_graph(), runs=1, restarts_per_run=1,
                          module_count_schedule=schedule)

    def test_best_result_breaks_ties_by_run_id(self):
        g = disjoint_bicliques(2, 1, 1)
        results = brim_multirun(g, runs=5, restarts_per_run=3, master_seed=3)
        best = best_result(results)
        top = max(r.modularity for r in results)
        assert best.modularity == top
        assert best.run_id == min(r.run_id for r in results if r.modularity == top)


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
            edges = [
                (g.red_nodes[r], g.blue_nodes[b])
                for r, b in zip(g.edge_red.tolist(), g.edge_blue.tolist())
            ]
            g2 = BipartiteGraph(edges, red_nodes=perm_red, blue_nodes=perm_blue)

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
        write_partition_csv([part], ["community"], path)
        assert read_partition_csv(path, 1) == [part]

    def test_round_trip_of_a_table_of_runs(self, tmp_path):
        nodes = (("r0", "r1"), ("b0", "b1"))
        parts = [
            Partition.from_arrays(*nodes, [0, 1], [1, 0]),
            Partition.from_arrays(*nodes, [0, 0], [0, 0]),
            Partition.from_arrays(*nodes, [2, 1], [0, 3]),
        ]
        path = tmp_path / "runs.csv"
        write_partition_csv(parts, ["run_000", "run_001", "run_002"], path)
        assert path.read_text() == (
            "node_id,side,run_000,run_001,run_002\n"
            "r0,red,0,0,2\nr1,red,1,0,1\nb0,blue,1,0,0\nb1,blue,0,0,3\n"
        )
        read = read_partition_csv(path, 3)
        assert read == parts
        # one node tuple per side, shared, so run agreement aligns no node
        assert all(p.red_nodes is read[0].red_nodes for p in read)
        assert all(p.blue_nodes is read[0].blue_nodes for p in read)

    def test_writer_rejects_partitions_of_other_nodes(self, tmp_path):
        part = Partition(("r0", "r1"), ("b0",), [0, 1], [0], 2)
        swapped = Partition(("r1", "r0"), ("b0",), [0, 1], [0], 2)
        with pytest.raises(ValueError, match="same nodes"):
            write_partition_csv([part, swapped], ["run_000", "run_001"], tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b0,blue,0,x,0", "3: bad community 'x'"),
            ("b0,blue,0,-1,0", "3: negative community -1"),
            ("b0,blue,0,3,0", "3: community 3 is not below the node count 3"),
            ("b0,blue,0,,0", "3: bad community ''"),
            (",blue,0,0,0", "3: empty node identifier"),
            ("r0,blue,0,0,0", "3: node 'r0' listed twice"),
            ("b0,Blue,0,0,0", "3: unknown side 'Blue'"),
            ("b0,blue,0,0", "3: expected 5 fields, got 4"),
        ],
    )
    def test_fault_in_a_later_column_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "runs.csv"
        path.write_text(f"node_id,side,run_000,run_001,run_002\nr0,red,0,0,0\n{row}\nb1,blue,1,1,1\n")
        with pytest.raises(InputError) as info:
            read_partition_csv(path, 3)
        assert str(info.value) == f"{path}:{message}"

    def test_columns_are_checked_in_order(self, tmp_path):
        path = tmp_path / "runs.csv"
        # the first row's second column before the second row's first
        path.write_text("r0,red,0,x\nb0,blue,y,0\n")
        with pytest.raises(InputError, match=r"runs\.csv:1: bad community 'x'"):
            read_partition_csv(path, 2)
        # each column's largest label, first column first
        path.write_text("r0,red,0,9\nb0,blue,5,0\n")
        with pytest.raises(InputError, match=r"runs\.csv:2: community 5 is not below"):
            read_partition_csv(path, 2)

    def test_writes_only_the_labels_of_a_wide_partition(self, tmp_path):
        part = Partition(("r0",), ("b0", "b1"), [7], [0, 7], 10**6)
        path = tmp_path / "part.csv"
        tracemalloc.start()
        try:
            write_partition_csv([part], ["community"], path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # no string per community that holds no node
        assert path.read_text() == "node_id,side,community\nr0,red,7\nb0,blue,0\nb1,blue,7\n"

    def test_rejects_bad_side(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,purple,0\n")
        with pytest.raises(InputError, match="side"):
            read_partition_csv(path, 1)

    def test_rejects_negative_community(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,red,-1\n")
        with pytest.raises(InputError):
            read_partition_csv(path, 1)

    def test_rejects_community_not_below_node_count(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,red,0\nb0,blue,10000000000\nb1,blue,3\n")
        with pytest.raises(
            InputError,
            match=r"part\.csv:3: community 10000000000 is not below the node count 3",
        ):
            read_partition_csv(path, 1)
        path.write_text("node_id,side,community\nr0,red,2\nb0,blue,0\nb1,blue,1\n")
        assert read_partition_csv(path, 1)[0].n_communities == 3
        # labels are read as by int: past int64, and with a sign
        path.write_text(f"node_id,side,community\nr0,red,0\nb0,blue,{2**64}\n")
        with pytest.raises(
            InputError,
            match=r"part\.csv:3: community 18446744073709551616 is not below the node count 2",
        ):
            read_partition_csv(path, 1)
        path.write_text("node_id,side,community\nr0,red,+3\nb0,blue,0\nb1,blue,1\n")
        with pytest.raises(
            InputError, match=r"part\.csv:2: community 3 is not below the node count 3"
        ):
            read_partition_csv(path, 1)
        path.write_text("r0,red,+3\nb0,blue,0\nb1,blue,1\nb2,blue, 2\n")
        assert read_partition_csv(path, 1)[0].labels.tolist() == [3, 0, 1, 2]
        # the first row that holds the largest label is named
        path.write_text("r0,red,0\nb0,blue,5\nb1,blue,5\n")
        with pytest.raises(
            InputError, match=r"part\.csv:2: community 5 is not below the node count 3"
        ):
            read_partition_csv(path, 1)

    def test_rejects_node_listed_twice(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\nr0,red,0\nb0,blue,0\nr0,red,1\n")
        with pytest.raises(InputError, match=r"part\.csv:4: node 'r0' listed twice"):
            read_partition_csv(path, 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("r0,red,x\n", "1: bad community 'x'"),
            ("r0,red,0\nb0,blue,1.0\n", "2: bad community '1.0'"),
            ("r0,red,0\nb0,blue,\n", "2: bad community ''"),
            ("r0,red,0\n\nb0,blue,-2\n", "3: negative community -2"),
            ("r0,Red,0\n", "1: unknown side 'Red'"),
            ("r0,red,0\nb0,,0\n", "2: unknown side ''"),
            ("r0,red,0\nb0,blue\n", "2: expected 3 fields, got 2"),
            ("r0,red,0,0\n", "1: expected 3 fields, got 4"),
            # only a first line starting node_id is a header
            ("r0,red,0\nnode_id,side,community\n", "2: bad community 'community'"),
        ],
    )
    def test_single_fault_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "part.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            read_partition_csv(path, 1)
        assert str(info.value) == f"{path}:{message}"

    def test_header_of_any_width_is_skipped(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text(" node_id ,side\nr0,red,0\n")
        assert read_partition_csv(path, 1) == [Partition(("r0",), (), [0], [], 1)]

    @pytest.mark.parametrize(
        "head", ["Node_ID,side,community\n", "\nnode_id,side,community\n", " , ,\nNODE_ID\n"]
    )
    def test_header_in_any_case_after_blank_lines(self, tmp_path, head):
        path = tmp_path / "part.csv"
        path.write_text(head + "r0,red,1\n\nb0,blue,0\n")
        assert read_partition_csv(path, 1) == [Partition(("r0",), ("b0",), [1], [0], 2)]

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node_id,side,community\n\n")
        with pytest.raises(InputError) as info:
            read_partition_csv(path, 1)
        assert str(info.value) == f"empty partition file: {path}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a row of the wrong width is reported before any earlier fault
            ("r0,red,x\nr1,red,0,0\n", "2: expected 3 fields, got 4"),
            # then the earliest faulty row, before a label too large
            ("r0,red,9\nr0,purple,0\nb0,blue,x\n", "2: node 'r0' listed twice"),
            # within one row: bad label, negative label, repeated node, unknown side
            ("r0,red,0\nr0,purple,x\n", "2: bad community 'x'"),
            ("r0,red,0\nr0,purple,-1\n", "2: negative community -1"),
            ("r0,red,0\nr0,purple,0\n", "2: node 'r0' listed twice"),
            # an empty node id, after the label checks and before the side
            ("r0,red,0\n,red,0\n", "2: empty node identifier"),
            (",purple,0\n,red,0\n", "1: empty node identifier"),
            ("r0,red,0\n,blue,x\n", "2: bad community 'x'"),
        ],
    )
    def test_first_fault_is_reported(self, tmp_path, text, message):
        path = tmp_path / "part.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            read_partition_csv(path, 1)
        assert str(info.value) == f"{path}:{message}"


class TestFixedWorkPerGraph:
    def test_compact_labels_match_the_unique_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            labels = rng.integers(0, int(rng.integers(1, 50)), size=n)
            rank = rng.permutation(n)
            order = np.argsort(rank)  # the nodes by id
            present, first = np.unique(labels[order], return_index=True)
            mapping = np.empty(labels.max(initial=0) + 1, dtype=np.int64)
            mapping[present[np.argsort(first)]] = np.arange(present.size)
            compacted, count = brim._compact_labels(labels, rank)
            assert count == present.size
            assert np.array_equal(compacted, mapping[labels])

    @pytest.mark.parametrize("shape", ["gaps", "single", "far_above"])
    def test_compact_labels_match_a_plain_python_reference(self, shape):
        # labels numbered in the order in which a walk over the nodes by
        # rank first meets them
        rng = np.random.default_rng({"gaps": 31, "single": 32, "far_above": 33}[shape])
        for _ in range(100):
            n = int(rng.integers(1, 60))
            if shape == "gaps":
                labels = rng.choice(rng.choice(3 * n, size=n), size=n)
            elif shape == "single":
                labels = np.full(n, int(rng.integers(0, 5)))
            else:
                labels = rng.integers(0, 3, size=n)
                labels[rng.integers(n)] = 10**6 + int(rng.integers(10**3))
            rank = rng.permutation(n)
            by_rank = [int(labels[i]) for i in sorted(range(n), key=lambda i: rank[i])]
            order = {}
            for label in by_rank:
                order.setdefault(label, len(order))
            compacted, count = brim._compact_labels(labels, rank)
            assert count == len(order)
            assert compacted.tolist() == [order[int(label)] for label in labels]

    def test_compact_labels_renumber_canonically(self):
        labels, count = brim._compact_labels(np.array([5, 5, 2]), rank_by_id(("r0", "b0", "b1")))
        assert labels.tolist() == [0, 0, 1]
        assert count == 2

    def test_compact_labels_are_node_order_independent(self):
        maps = []
        for nodes, labels in [(("r0", "r1", "b0"), [3, 1, 1]), (("r1", "r0", "b0"), [1, 3, 1])]:
            compacted, _ = brim._compact_labels(np.array(labels), rank_by_id(nodes))
            maps.append(dict(zip(nodes, compacted.tolist())))
        assert maps[0] == maps[1]

    def test_node_ids_are_ranked_once_per_graph(self, monkeypatch):
        from bicomet import graph as graph_mod

        calls = []
        rank_by_id = graph_mod.rank_by_id
        monkeypatch.setattr(
            graph_mod, "rank_by_id", lambda nodes: calls.append(1) or rank_by_id(nodes)
        )
        graph = pinned_graph()
        brim_multirun(graph, runs=3, restarts_per_run=4, master_seed=2)
        assert len(calls) == 1
        brim_multirun(graph, runs=2, restarts_per_run=3, master_seed=5)
        assert len(calls) == 1

    def test_graph_rank_orders_node_ids(self):
        g = BipartiteGraph([("r2", "b1"), ("r10", "b0")])
        nodes = g.red_nodes + g.blue_nodes
        assert [nodes[i] for i in np.argsort(g.id_rank)] == sorted(nodes)
        assert pickle.loads(pickle.dumps(g)).id_rank.tolist() == g.id_rank.tolist()
