import math
import tracemalloc

import numpy as np
import pytest

from bicomet.brim import bipartite_modularity, brim_converge, random_partition
from bicomet.errors import InputError
from bicomet.graph import BipartiteGraph, load_period_series
from bicomet.seeding import STREAM_SYNTH_EDGES, generator
from bicomet.synth import (
    AttributePlant,
    CategoryPlan,
    MergeEvent,
    PlantedModel,
    SplitEvent,
    TemporalScript,
    _bernoulli_hits,
    _draw_edges,
    exhaustive_modularity_oracle,
    generate_catalog,
    generate_graph,
    generate_sequence,
    set_partitions,
    write_synthetic_dataset,
)


class TestModelValidation:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(InputError):
            PlantedModel(communities=((2, 2),), p_in=0.2, p_out=0.5)
        with pytest.raises(InputError):
            PlantedModel(communities=((2, 2),), p_in=1.2, p_out=0.0)

    def test_equal_probabilities_allowed(self):
        PlantedModel(communities=((2, 2),), p_in=1.0, p_out=1.0)

    def test_rejects_empty_or_zero_sizes(self):
        with pytest.raises(InputError):
            PlantedModel(communities=(), p_in=0.5, p_out=0.1)
        with pytest.raises(InputError):
            PlantedModel(communities=((0, 2),), p_in=0.5, p_out=0.1)


class TestGenerateGraph:
    def test_separated_communities_are_bicliques(self):
        model = PlantedModel(communities=((2, 2), (2, 2)), p_in=1.0, p_out=0.0, seed=1)
        graph, truth = generate_graph(model)
        assert graph.n_edges == 8
        assert bipartite_modularity(graph, truth) == pytest.approx(0.5, abs=1e-12)

    def test_all_probability_one_is_complete(self):
        model = PlantedModel(communities=((2, 3), (1, 2)), p_in=1.0, p_out=1.0, seed=2)
        graph, _ = generate_graph(model)
        assert graph.n_edges == graph.n_red * graph.n_blue

    def test_edge_count_within_binomial_bounds(self):
        model = PlantedModel(
            communities=((10, 30), (10, 30)), p_in=0.6, p_out=0.05, seed=3
        )
        graph, _ = generate_graph(model)
        within_pairs = 2 * 10 * 30
        cross_pairs = 20 * 60 - within_pairs
        expected = 0.6 * within_pairs + 0.05 * cross_pairs
        variance = 0.6 * 0.4 * within_pairs + 0.05 * 0.95 * cross_pairs
        assert abs(graph.n_edges - expected) <= 3 * math.sqrt(variance)

    def test_seed_determinism(self):
        model = PlantedModel(communities=((3, 5), (4, 4)), p_in=0.7, p_out=0.1, seed=9)
        g1, t1 = generate_graph(model)
        g2, t2 = generate_graph(model)
        assert g1 == g2
        assert t1 == t2

    def test_graph_invariants(self):
        model = PlantedModel(communities=((4, 6), (3, 7)), p_in=0.5, p_out=0.1, seed=4)
        graph, truth = generate_graph(model)
        assert graph.red_degrees.sum() == graph.n_edges
        assert set(truth.nodes) == set(graph.red_nodes) | set(graph.blue_nodes)


def dense_draw(model, red_membership, blue_membership, rng):
    """One uniform per (red, blue) cell against a dense probability matrix:
    the reference distribution of ``_draw_edges``."""
    same = red_membership[:, None] == blue_membership[None, :]
    hits = rng.random(same.shape) < np.where(same, model.p_in, model.p_out)
    return BipartiteGraph.from_indices(
        [f"r{i}" for i in range(len(red_membership))],
        [f"b{j}" for j in range(len(blue_membership))],
        *np.nonzero(hits),
    )


class TestEdgeSampler:
    # communities 0, 3 and 7 on both sides, 5 with no red member and 9 with
    # no blue member, listed out of order
    RED = np.array([3, 0, 9, 3, 7, 0, 9])
    BLUE = np.array([5, 0, 3, 7, 3, 5, 0, 7])

    @pytest.mark.parametrize("draw", [_draw_edges, dense_draw])
    def test_every_cell_is_hit_at_its_own_rate(self, draw):
        model = PlantedModel(communities=((1, 1),), p_in=0.6, p_out=0.15)
        seeds = 2_000
        hits = np.zeros((self.RED.size, self.BLUE.size))
        for seed in range(seeds):
            graph = draw(model, self.RED, self.BLUE, generator(seed, STREAM_SYNTH_EDGES, 0))
            assert graph.duplicates_dropped == 0
            hits[graph.edge_red, graph.edge_blue] += 1
        p = np.where(self.RED[:, None] == self.BLUE[None, :], model.p_in, model.p_out)
        sigma = np.sqrt(p * (1 - p) / seeds)
        assert np.all(np.abs(hits / seeds - p) <= 4.5 * sigma)

    def test_probabilities_zero_and_one_are_exact(self):
        model = PlantedModel(communities=((1, 1),), p_in=1.0, p_out=0.0)
        graph = _draw_edges(model, self.RED, self.BLUE, generator(1, STREAM_SYNTH_EDGES, 0))
        same = self.RED[graph.edge_red] == self.BLUE[graph.edge_blue]
        assert same.all()
        assert graph.n_edges == int((self.RED[:, None] == self.BLUE[None, :]).sum())

    def test_hits_are_sorted_distinct_and_in_range(self):
        rng = np.random.default_rng(4)
        for cells, p in [(1, 0.5), (7, 0.999), (1000, 0.3), (10**12, 1e-11), (10**15, 1e-300)]:
            hits = _bernoulli_hits(cells, p, rng)
            assert hits.dtype == np.int64
            assert np.all(np.diff(hits) > 0)
            assert np.all((0 <= hits) & (hits < cells))
        assert _bernoulli_hits(5, 0.0, rng).size == 0
        assert _bernoulli_hits(0, 0.5, rng).size == 0
        assert _bernoulli_hits(5, 1.0, rng).tolist() == [0, 1, 2, 3, 4]

    def test_planted_graphs_have_no_duplicate_draws(self):
        for seed in range(20):
            model = PlantedModel(
                communities=((5, 9), (3, 4), (6, 2)), p_in=0.7, p_out=0.2, seed=seed
            )
            graph, _ = generate_graph(model)
            assert graph.duplicates_dropped == 0

    def test_transient_memory_per_edge(self):
        # p_out is above 1/50, where a choice of distinct cells would
        # shuffle an array of every cell
        model = PlantedModel(communities=((500, 2000),) * 2, p_in=0.05, p_out=0.03, seed=1)
        tracemalloc.start()
        try:
            graph, _ = generate_graph(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n_edges > 100_000
        assert peak / graph.n_edges <= 120


class TestGenerateSequence:
    def base_model(self, seed=0):
        return PlantedModel(
            communities=((4, 8), (4, 8), (4, 8)), p_in=0.8, p_out=0.02, seed=seed
        )

    def test_no_churn_identity_lineage(self):
        series, truths, lineage = generate_sequence(
            self.base_model(), TemporalScript(periods=4)
        )
        assert len(series) == 4
        for a, b in zip(truths, truths[1:]):
            assert dict(zip(a.nodes, a.labels.tolist())) == dict(
                zip(b.nodes, b.labels.tolist())
            )
        assert len(lineage) == 3 * 3
        assert all(e.community_from == e.community_to for e in lineage)

    def test_scripted_split_adds_branch(self):
        script = TemporalScript(
            periods=5, events=(SplitEvent(period=3, community=1, fraction=0.5),)
        )
        series, truths, lineage = generate_sequence(self.base_model(), script)
        assert truths[2].n_communities == 3
        assert truths[3].n_communities == 4
        out = {}
        for e in lineage:
            out.setdefault((e.period_from, e.community_from), []).append(e)
        fan_out = [k for k, v in out.items() if len(v) == 2]
        assert fan_out == [("p02", 1)]

    def test_scripted_merge_reduces_count(self):
        script = TemporalScript(
            periods=4, events=(MergeEvent(period=2, source=0, target=1),)
        )
        series, truths, lineage = generate_sequence(self.base_model(), script)
        assert truths[1].n_communities == 3
        assert truths[2].n_communities == 2
        incoming = [
            e for e in lineage if e.period_to == "p02"
        ]
        targets = {}
        for e in incoming:
            targets.setdefault(e.community_to, []).append(e)
        assert any(len(v) == 2 for v in targets.values())

    def test_churn_moment(self):
        # a member of a size-s community survives 4 churn rounds w.p. 0.9^4
        model = PlantedModel(
            communities=((10, 90), (10, 90), (10, 90)), p_in=0.5, p_out=0.01, seed=11
        )
        script = TemporalScript(periods=5, churn=0.1)
        _, truths, _ = generate_sequence(model, script)
        first = [n for n, g in zip(truths[0].nodes, truths[0].labels.tolist()) if g == 0]
        last = dict(zip(truths[-1].nodes, truths[-1].labels.tolist()))
        survivors = sum(1 for n in first if last[n] == 0)
        expected = len(first) * 0.9**4
        # churned nodes can also churn back in; bound loosely at 4 sigma
        sigma = math.sqrt(len(first) * 0.9**4 * (1 - 0.9**4))
        assert abs(survivors - expected) <= 4 * sigma + 3

    def test_event_on_dead_community_rejected(self):
        script = TemporalScript(
            periods=4,
            events=(
                MergeEvent(period=2, source=0, target=1),
                SplitEvent(period=3, community=0),
            ),
        )
        with pytest.raises(InputError, match="not alive"):
            generate_sequence(self.base_model(), script)

    @pytest.mark.parametrize(
        "event, message",
        [
            (MergeEvent(period=1, source=7, target=0), "merge at period 1: source 7 not alive"),
            (MergeEvent(period=1, source=0, target=7), "merge at period 1: target 7 not alive"),
        ],
    )
    def test_merge_of_a_dead_community_names_it(self, event, message):
        script = TemporalScript(periods=3, events=(event,))
        with pytest.raises(InputError) as info:
            generate_sequence(self.base_model(), script)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "event, message",
        [
            (SplitEvent(period=3, community=0), "event period 3 outside [1, 3)"),
            ("x", "unknown event type: 'x'"),
        ],
    )
    def test_script_rejects_bad_events(self, event, message):
        with pytest.raises(InputError) as info:
            TemporalScript(periods=3, events=(event,))
        assert str(info.value) == message

    def test_determinism(self):
        script = TemporalScript(periods=3, churn=0.05)
        a = generate_sequence(self.base_model(7), script)
        b = generate_sequence(self.base_model(7), script)
        assert list(a[0]) == list(b[0])
        assert a[1] == b[1]
        assert a[2] == b[2]


class TestCatalogGeneration:
    def test_plant_penetration(self):
        model = PlantedModel(communities=((5, 50), (5, 50)), p_in=0.5, p_out=0.05, seed=2)
        _, truth = generate_graph(model)
        plans = [CategoryPlan(name="sector", side="blue", values=("A", "B", "C", "D"))]
        plants = [AttributePlant(category="sector", value="Z", community=0, penetration=1.0)]
        catalog = generate_catalog(truth, plans, seed=3, plants=plants)
        assigned = catalog.assignments("sector")
        members = {n for n, g in zip(truth.blue_nodes, truth.blue_labels.tolist()) if g == 0}
        assert all(assigned[n] == "Z" for n in members)
        others = set(assigned) - members
        assert all(assigned[n] != "Z" for n in others)

    def test_unknown_plant_category_rejected(self):
        model = PlantedModel(communities=((2, 2),), p_in=1.0, p_out=0.0)
        _, truth = generate_graph(model)
        plans = [CategoryPlan(name="sector", side="blue", values=("A",))]
        plants = [AttributePlant(category="region", value="X", community=0, penetration=0.5)]
        with pytest.raises(InputError, match="unknown category"):
            generate_catalog(truth, plans, seed=0, plants=plants)

    @pytest.mark.parametrize(
        "names, message",
        [
            (("region", "region"), "category 'region' planned twice"),
            (("sector", "community"), "category 'community' names a column of the report"),
        ],
    )
    def test_bad_category_names_rejected(self, names, message):
        model = PlantedModel(communities=((2, 2),), p_in=1.0, p_out=0.0)
        _, truth = generate_graph(model)
        plans = [CategoryPlan(name=name, side=side, values=("A",))
                 for name, side in zip(names, ("red", "blue"))]
        with pytest.raises(InputError, match=message):
            generate_catalog(truth, plans, seed=0)


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, bell):
        assert sum(1 for _ in set_partitions(n)) == bell

    def test_labels_are_restricted_growth(self):
        for labels in set_partitions(5):
            assert labels[0] == 0
            for i in range(1, 5):
                assert labels[i] <= max(labels[:i]) + 1


class TestOracle:
    def test_two_single_edges(self):
        model = PlantedModel(communities=((1, 1), (1, 1)), p_in=1.0, p_out=0.0)
        graph, _ = generate_graph(model)
        best_q, best = exhaustive_modularity_oracle(graph)
        assert best_q == pytest.approx(0.5, abs=1e-12)
        assert best.n_communities == 2

    def test_complete_two_by_two(self):
        model = PlantedModel(communities=((2, 2),), p_in=1.0, p_out=0.0)
        graph, _ = generate_graph(model)
        best_q, _ = exhaustive_modularity_oracle(graph)
        assert best_q == pytest.approx(0.0, abs=1e-12)

    def test_three_edge_path_regression(self):
        from bicomet.graph import BipartiteGraph

        graph = BipartiteGraph([("b1", "f1"), ("b2", "f1"), ("b2", "f2")])
        best_q, _ = exhaustive_modularity_oracle(graph)
        assert best_q == pytest.approx(2 / 9, abs=1e-12)

    def test_cap_enforced(self):
        model = PlantedModel(communities=((7, 7),), p_in=0.5, p_out=0.0, seed=1)
        graph, _ = generate_graph(model)
        with pytest.raises(InputError, match="cap"):
            exhaustive_modularity_oracle(graph)

    def test_oracle_dominates_heuristic(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            model = PlantedModel(
                communities=((2, 2), (1, 3)), p_in=0.8, p_out=0.2, seed=seed
            )
            graph, _ = generate_graph(model)
            if graph.n_edges == 0:
                continue
            best_q, _ = exhaustive_modularity_oracle(graph)
            result = brim_converge(graph, random_partition(graph, 4, rng))
            assert result.modularity <= best_q + 1e-12


class TestDatasetFiles:
    def test_round_trip_through_loaders(self, tmp_path):
        model = PlantedModel(
            communities=((3, 6), (3, 6)), p_in=0.9, p_out=0.05, seed=8
        )
        script = TemporalScript(periods=3)
        series, truths, lineage = generate_sequence(model, script)
        plans = [CategoryPlan(name="sector", side="blue", values=("A", "B"))]
        catalog = generate_catalog(truths[0], plans, seed=8)
        manifest = write_synthetic_dataset(
            tmp_path / "data", series, truths, lineage, catalog=catalog
        )
        loaded = load_period_series(manifest)
        assert loaded.labels == series.labels
        for (_, g1), (_, g2) in zip(loaded, series):
            assert g1 == g2
        assert (tmp_path / "data" / "ground_truth.csv").exists()
        assert (tmp_path / "data" / "lineage.csv").exists()
        assert (tmp_path / "data" / "attributes.csv").exists()

    def test_isolated_nodes_survive_round_trip(self, tmp_path):
        # a node can end up with no edges; the node list must preserve it
        model = PlantedModel(communities=((2, 3),), p_in=0.35, p_out=0.0, seed=21)
        series, truths, lineage = generate_sequence(model, TemporalScript(periods=1))
        _, graph = series.labels[0], series[0][1]
        manifest = write_synthetic_dataset(tmp_path / "d", series, truths, lineage)
        loaded = load_period_series(manifest)
        assert loaded[0][1].red_nodes == graph.red_nodes
        assert loaded[0][1].blue_nodes == graph.blue_nodes
