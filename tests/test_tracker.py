import json
import math

import numpy as np
import pytest

from bicomet.brim import Partition
from bicomet.errors import InputError
from bicomet.stats import HypergeomParams, overlap_pvalue
from bicomet.tracker import (
    TrackerConfig,
    build_evolution_graph,
    export_evolution,
    read_link_table,
    sequence_bonferroni,
    track_pair,
    track_sequence,
    write_link_table,
)


def blue_partition(labels, names=None):
    names = names or [f"n{i}" for i in range(len(labels))]
    return Partition.from_arrays((), tuple(names), (), list(labels))


def persistence_sequence(periods=4, communities=3, size=8):
    """Same node set, identical membership in every period."""
    labels = [c for c in range(communities) for _ in range(size)]
    names = [f"n{i}" for i in range(len(labels))]
    return [
        (f"p{t:02d}", blue_partition(labels, names)) for t in range(periods)
    ]


class TestTrackPair:
    def test_disjoint_communities_unvalidated(self):
        a = blue_partition([0, 0, 1, 1])
        b = blue_partition([1, 1, 0, 0])
        links = track_pair(a, b, population=4, threshold=0.05)
        zero = [l for l in links if l.overlap == 0]
        assert zero
        assert all(l.p_value == 1.0 and not l.validated for l in zero)

    def test_small_overlap_pvalue(self):
        a = blue_partition([0, 0, 1, 1])
        b = blue_partition([0, 0, 1, 1])
        links = track_pair(a, b, population=4, threshold=0.05)
        link = next(
            l for l in links if l.community_from == 0 and l.community_to == 0
        )
        assert link.overlap == 2
        assert link.p_value == pytest.approx(1 / 6, rel=1e-12)

    def test_verbatim_copy_is_overwhelming(self):
        names = [f"n{i}" for i in range(1000)]
        labels = [0] * 50 + [1] * 950
        a = blue_partition(labels, names)
        b = blue_partition(labels, names)
        links = track_pair(a, b, population=1000, threshold=1e-10)
        link = next(
            l for l in links if l.community_from == 0 and l.community_to == 0
        )
        assert link.p_value < 1e-50
        assert link.validated

    def test_emits_every_pair(self):
        a = blue_partition([0, 0, 1, 1, 2, 2])
        b = blue_partition([0, 1, 0, 1, 0, 1])
        links = track_pair(a, b, population=6, threshold=0.05)
        assert len(links) == 6

    def test_population_smaller_than_community_rejected(self):
        a = blue_partition([0] * 10)
        b = blue_partition([0] * 10)
        with pytest.raises(InputError, match="exceeding population"):
            track_pair(a, b, population=5, threshold=0.05)

    def test_pvalues_match_stats_kernel(self):
        rng = np.random.default_rng(0)
        names = [f"n{i}" for i in range(40)]
        for _ in range(20):
            a = blue_partition(rng.integers(0, 4, size=40).tolist(), names)
            b = blue_partition(rng.integers(0, 3, size=40).tolist(), names)
            links = track_pair(a, b, population=40, threshold=0.01)
            sizes_a, sizes_b = a.sizes(), b.sizes()
            for link in links:
                expected = overlap_pvalue(
                    link.overlap,
                    HypergeomParams(
                        40, sizes_a[link.community_from], sizes_b[link.community_to]
                    ),
                )
                assert abs(link.p_value - expected) <= 1e-12

    def test_validated_implies_positive_overlap(self):
        rng = np.random.default_rng(1)
        names = [f"n{i}" for i in range(30)]
        for _ in range(20):
            a = blue_partition(rng.integers(0, 3, size=30).tolist(), names)
            b = blue_partition(rng.integers(0, 3, size=30).tolist(), names)
            for link in track_pair(a, b, population=30, threshold=0.5):
                if link.validated:
                    assert link.overlap >= 1

    def test_overlap_marginals_bounded_by_sizes(self):
        rng = np.random.default_rng(2)
        names_a = [f"n{i}" for i in range(30)]
        names_b = [f"n{i}" for i in range(10, 40)]
        a = blue_partition(rng.integers(0, 3, size=30).tolist(), names_a)
        b = blue_partition(rng.integers(0, 4, size=30).tolist(), names_b)
        links = track_pair(a, b, population=40, threshold=0.05)
        sizes_a, sizes_b = a.sizes(), b.sizes()
        for gi in range(a.n_communities):
            assert sum(l.overlap for l in links if l.community_from == gi) <= sizes_a[gi]
        for gj in range(b.n_communities):
            assert sum(l.overlap for l in links if l.community_to == gj) <= sizes_b[gj]


class TestSequenceBonferroni:
    def test_example_counts(self):
        seq = [
            ("t0", blue_partition(list(range(10)) * 2)),
            ("t1", blue_partition(list(range(12)) * 2)),
        ]
        assert sequence_bonferroni(seq, 0.01) == pytest.approx(0.01 / 120, rel=1e-15)

    def test_thirty_two_periods_sum_31_products(self):
        labels = [0, 0, 1, 1]
        seq = [(f"y{t:02d}", blue_partition(labels)) for t in range(32)]
        assert sequence_bonferroni(seq, 0.01) == pytest.approx(
            0.01 / (31 * 4), rel=1e-15
        )

    def test_single_community_pair(self):
        seq = [("t0", blue_partition([0, 0])), ("t1", blue_partition([0, 0]))]
        assert sequence_bonferroni(seq, 0.01) == 0.01

    def test_requires_two_periods(self):
        with pytest.raises(InputError):
            sequence_bonferroni([("t0", blue_partition([0]))])


class TestBuildEvolutionGraph:
    def test_persistence_gives_disjoint_chains(self):
        seq = persistence_sequence(periods=5, communities=3, size=8)
        graph = build_evolution_graph(seq)
        assert len(graph.edges) == 4 * 3
        for edge in graph.edges:
            assert edge.community_from == edge.community_to

    def test_root_filter_single_chain(self):
        seq = persistence_sequence(periods=5, communities=3, size=8)
        graph = build_evolution_graph(
            seq,
            TrackerConfig(direction_filter="forward_only"),
            roots=[("p00", 0)],
        )
        assert len(graph.nodes) == 5
        assert len(graph.edges) == 4
        assert all(e.community_from == 0 and e.community_to == 0 for e in graph.edges)

    def test_split_yields_out_degree_two(self):
        names = [f"n{i}" for i in range(1000)]
        before = blue_partition([0] * 40 + [1] * 960, names)
        after = blue_partition([0] * 20 + [1] * 20 + [2] * 960, names)
        # append a stub third period so Bonferroni over >= 2 transitions
        seq = [("t0", before), ("t1", after), ("t2", after)]
        graph = build_evolution_graph(seq, TrackerConfig())
        outgoing = [
            e for e in graph.edges
            if e.period_from == "t0" and e.community_from == 0
        ]
        assert len(outgoing) == 2

    def test_forward_only_drops_incoming_merge_links(self):
        names = [f"n{i}" for i in range(100)]
        # community 1 absorbs community 2's members at t1
        before = blue_partition([0] * 40 + [1] * 30 + [2] * 30, names)
        after = blue_partition([0] * 40 + [1] * 60, names)
        seq = [("t0", before), ("t1", after)]
        forward = build_evolution_graph(
            seq,
            TrackerConfig(direction_filter="forward_only"),
            roots=[("t0", 1)],
        )
        assert {(e.community_from, e.community_to) for e in forward.edges} == {(1, 1)}
        both = build_evolution_graph(
            seq, TrackerConfig(direction_filter="all"), roots=[("t0", 1)]
        )
        assert {(e.community_from, e.community_to) for e in both.edges} == {
            (1, 1),
            (2, 1),
        }

    def test_missing_root_rejected(self):
        seq = persistence_sequence()
        with pytest.raises(InputError, match="root community"):
            build_evolution_graph(seq, roots=[("p00", 99)])

    def test_edges_connect_adjacent_periods_only(self):
        seq = persistence_sequence(periods=6, communities=2, size=6)
        graph = build_evolution_graph(seq)
        order = {f"p{t:02d}": t for t in range(6)}
        for edge in graph.edges:
            assert order[edge.period_to] == order[edge.period_from] + 1

    def test_track_sequence_threshold_matches_bonferroni(self):
        seq = persistence_sequence(periods=3, communities=2, size=5)
        links, threshold = track_sequence(seq)
        assert threshold == sequence_bonferroni(seq, 0.01)
        assert len(links) == 2 * 4

    def test_population_rules(self):
        names_a = [f"n{i}" for i in range(20)]
        names_b = [f"n{i}" for i in range(10, 30)]
        a = blue_partition([0] * 10 + [1] * 10, names_a)
        b = blue_partition([0] * 10 + [1] * 10, names_b)
        seq = [("t0", a), ("t1", b)]
        union_links, _ = track_sequence(seq, TrackerConfig(population_rule="union"))
        inter_links, _ = track_sequence(
            seq, TrackerConfig(population_rule="intersection")
        )
        # same overlaps, different population -> different p-values
        u = next(l for l in union_links if l.overlap > 0)
        i = next(
            l
            for l in inter_links
            if (l.community_from, l.community_to) == (u.community_from, u.community_to)
        )
        assert u.overlap == i.overlap
        assert u.p_value != i.p_value

    def test_union_of_periods_alias(self):
        cfg = TrackerConfig(population_rule="union_of_periods")
        assert cfg.population_rule == "union"


class TestLongSeries:
    def test_thirty_two_period_tracking(self):
        import bicomet as bc

        model = bc.PlantedModel(
            communities=((4, 12), (4, 12), (4, 12)), p_in=0.8, p_out=0.02, seed=17
        )
        script = bc.TemporalScript(periods=32, churn=0.02)
        series, truths, lineage = bc.generate_sequence(model, script)
        sequence = list(zip(series.labels, truths))
        assert len(sequence) == 32
        # 31 consecutive pairs of 3x3 community tests
        assert sequence_bonferroni(sequence, 0.01) == pytest.approx(
            0.01 / (31 * 9), rel=1e-15
        )
        links, threshold = track_sequence(sequence)
        assert len(links) == 31 * 9
        validated = {
            (l.period_from, l.community_from, l.period_to, l.community_to)
            for l in links
            if l.validated
        }
        expected = {
            (e.period_from, e.community_from, e.period_to, e.community_to)
            for e in lineage
        }
        # light churn: every true persistence link is still validated
        assert expected <= validated
        graph = build_evolution_graph(sequence)
        periods = sorted({n.period for n in graph.nodes})
        assert len(periods) == 32
        assert periods[0] == "p00" and periods[-1] == "p31"


class TestExport:
    def make_chain(self):
        # two communities so the population is larger than each community
        # (a community equal to the whole population validates nothing)
        names = [f"n{i}" for i in range(120)]
        labels = [0] * 100 + [1] * 20
        seq = [
            (f"p{t:02d}", blue_partition(labels, names)) for t in range(3)
        ]
        return build_evolution_graph(
            seq,
            TrackerConfig(direction_filter="forward_only"),
            roots=[("p00", 0)],
        )

    def test_dot_shape(self):
        dot = export_evolution(self.make_chain(), "dot")
        assert dot.count("->") == 2
        assert dot.count("[label=") == 3

    def test_dot_size_is_log_of_community_size(self):
        dot = export_evolution(self.make_chain(), "dot")
        assert f"size={math.log(100):.6f}" in dot

    def test_json_round_trip(self):
        graph = self.make_chain()
        payload = json.loads(export_evolution(graph, "json"))
        edges = {
            (e["period_from"], e["community_from"], e["period_to"], e["community_to"])
            for e in payload["edges"]
        }
        expected = {
            (e.period_from, e.community_from, e.period_to, e.community_to)
            for e in graph.edges
        }
        assert edges == expected
        assert len(payload["nodes"]) == len(graph.nodes)

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError, match="format"):
            export_evolution(self.make_chain(), "svg")


class TestLinkTable:
    def test_round_trip(self, tmp_path):
        seq = persistence_sequence(periods=3, communities=2, size=5)
        links, _ = track_sequence(seq)
        path = tmp_path / "links.csv"
        write_link_table(links, path)
        back = read_link_table(path)
        assert back == links

    @pytest.mark.parametrize(
        "row",
        [
            "p00,0,p01,0,3,0.5",
            "p00,zero,p01,0,3,0.5,false",
            "p00,0,p01,0,3,low,false",
            "p00,0,p01,0,3,0.5,maybe",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "links.csv"
        path.write_text(
            "period_t,comm_i,period_t1,comm_j,overlap,p_value,validated\n"
            f"p00,0,p01,1,2,0.25,true\n{row}\n"
        )
        with pytest.raises(InputError, match=r"links\.csv:3: "):
            read_link_table(path)


class TestNullCalibration:
    def test_family_wise_rate_below_univariate_threshold(self):
        # shuffled-label null: the Bonferroni-validated link rate per
        # replicate family must stay below p_t (hypergeometric tests are
        # discrete, so comfortably below)
        rng = np.random.default_rng(7)
        sizes = [12, 10, 10, 8]
        labels = np.repeat(np.arange(4), sizes)
        n = labels.size
        p_t = 0.01
        threshold = p_t / 16
        tables = {}
        for ni in set(sizes):
            for nj in set(sizes):
                params = HypergeomParams(n, ni, nj)
                tables[(ni, nj)] = [
                    overlap_pvalue(x, params) for x in range(min(ni, nj) + 1)
                ]
        replicates = 2000
        hits = 0
        for _ in range(replicates):
            shuffled = labels[rng.permutation(n)]
            table = np.zeros((4, 4), dtype=int)
            np.add.at(table, (labels, shuffled), 1)
            if any(
                tables[(sizes[i], sizes[j])][table[i, j]] < threshold
                for i in range(4)
                for j in range(4)
            ):
                hits += 1
        sigma = math.sqrt(p_t * (1 - p_t) / replicates)
        assert hits / replicates <= p_t + 3 * sigma
