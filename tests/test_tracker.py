import json
import math
from collections import Counter
from itertools import compress

import numpy as np
import pytest

from bicomet.brim import Partition
from bicomet.errors import InputError
from bicomet.stats import HypergeomParams, overlap_pvalue
from bicomet.tracker import (
    TemporalLink,
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

    def test_tracked_links_are_not_tested_again(self, monkeypatch):
        import bicomet.tracker as tracker_mod

        seq = persistence_sequence(periods=4, communities=3, size=8)
        config = TrackerConfig(direction_filter="forward_only")
        roots = [("p00", 1)]
        expected = build_evolution_graph(seq, config, roots=roots)
        tracked = track_sequence(seq, config)

        def untested(*args, **kwargs):
            raise AssertionError("links tested again")

        monkeypatch.setattr(tracker_mod, "overlap_tests", untested)
        assert build_evolution_graph(seq, config, roots=roots, tracked=tracked) == expected

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("population_rule", "Union"),
            ("population_rule", "Intersection"),
            ("direction_filter", "FORWARD_ONLY"),
        ],
    )
    def test_rule_names_are_matched_exactly(self, key, value):
        with pytest.raises(InputError, match=repr(value)):
            TrackerConfig(**{key: value})


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

    @pytest.mark.parametrize("fmt", ["DOT", "Json"])
    def test_format_names_are_matched_exactly(self, fmt):
        with pytest.raises(InputError, match="unsupported export format"):
            export_evolution(self.make_chain(), fmt)


BAD_INT = "invalid literal for int() with base 10:"
LINK_HEADER = "period_t,comm_i,period_t1,comm_j,overlap,p_value,validated\n"


class TestLinkTable:
    def test_round_trip(self, tmp_path):
        seq = persistence_sequence(periods=3, communities=2, size=5)
        links, _ = track_sequence(seq)
        path = tmp_path / "links.csv"
        write_link_table(links, path)
        back = read_link_table(path)
        assert back == links

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param(row, message, id=row)
            for row, message in [
                ("p00,0,p01,0,3,0.5", "expected 7 fields, got 6"),
                ("p00,zero,p01,0,3,0.5,false", f"bad value: {BAD_INT} 'zero'"),
                ("p00,0,p01,0,3,low,false", "bad value: could not convert string to float: 'low'"),
                ("p00,0,p01,0,3,0.5,maybe", "bad value: 'maybe'"),
                ("p00,0,p01,0,3,0.5,false,", "expected 7 fields, got 8"),
                ("p00,0,p01,1.0,3,0.5,false", f"bad value: {BAD_INT} '1.0'"),
                ("p00,0,p01,0,,0.5,false", f"bad value: {BAD_INT} ''"),
                ("p00,0,p01,0,3,0.5,True", "bad value: 'True'"),
            ]
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "links.csv"
        path.write_text(
            "period_t,comm_i,period_t1,comm_j,overlap,p_value,validated\n"
            f"p00,0,p01,1,2,0.25,true\n{row}\n"
        )
        with pytest.raises(InputError) as info:
            read_link_table(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a row of the wrong width is reported before any earlier fault
            (LINK_HEADER + "p00,x,p01,0,3,0.5,false\np00,0,p01\n", "3: expected 7 fields, got 3"),
            # then the earliest faulty row, and in it the first bad cell
            (LINK_HEADER + "p00,0,p01,0,3,0.5,no\np00,x,p01,0,3,0.5,false\n", "2: bad value: 'no'"),
            (LINK_HEADER + "p00,0,p01,x,3,y,no\n", f"2: bad value: {BAD_INT} 'x'"),
        ],
    )
    def test_first_fault_is_reported(self, tmp_path, text, message):
        path = tmp_path / "links.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            read_link_table(path)
        assert str(info.value) == f"{path}:{message}"

    def test_headerless_table_reads_every_row(self, tmp_path):
        path = tmp_path / "links.csv"
        path.write_text("p00,0,p01,1,2,0.25,true\np00,1,p01,0,0,1.0,false\n")
        back = read_link_table(path)
        assert [(link.community_from, link.community_to) for link in back] == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("lead", ["", "\n", " , \n"])
    def test_header_in_any_case_after_blank_lines(self, tmp_path, lead):
        seq = persistence_sequence(periods=2, communities=2, size=5)
        links, _ = track_sequence(seq)
        path = tmp_path / "links.csv"
        write_link_table(links, path)
        path.write_text(lead + path.read_text().replace("period_t,", "Period_T,", 1))
        assert read_link_table(path) == links


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


def dict_track_pair(partition_from, partition_to, population, threshold,
                    period_from="t", period_to="t+1", within=None):
    """Reference oracle: the dict-of-overlaps ``track_pair`` that the
    node-aligned cross-tabulation replaced (size checks left out).  Given
    ``within``, a node set, only its nodes are counted."""
    def members(partition):
        labels = zip(partition.nodes, partition.labels.tolist())
        return {node: label for node, label in labels if within is None or node in within}

    map_from, map_to = members(partition_from), members(partition_to)
    sizes_from, sizes_to = Counter(map_from.values()), Counter(map_to.values())
    overlaps = Counter((gi, map_to[node]) for node, gi in map_from.items() if node in map_to)
    links = []
    for gi in range(partition_from.n_communities):
        for gj in range(partition_to.n_communities):
            n_ij = overlaps[(gi, gj)]
            if n_ij == 0:
                p = 1.0
            else:
                params = HypergeomParams(population, sizes_from[gi], sizes_to[gj])
                p = overlap_pvalue(n_ij, params)
            links.append(
                TemporalLink(period_from, gi, period_to, gj, n_ij, p, p < threshold)
            )
    return links


def dict_track_sequence(sequence, config):
    """Reference oracle for ``track_sequence`` built on ``dict_track_pair``."""
    threshold = sequence_bonferroni(sequence, config.p_univariate)
    links = []
    for (label_a, part_a), (label_b, part_b) in zip(sequence, sequence[1:]):
        ids_a, ids_b = set(part_a.nodes), set(part_b.nodes)
        if config.population_rule == "union":
            within, population = None, len(ids_a | ids_b)
        else:
            within = ids_a & ids_b
            population = len(within)
        links.extend(
            dict_track_pair(part_a, part_b, population, threshold, label_a, label_b, within)
        )
    return links, threshold


def random_labelled(rng, names, max_communities=6):
    """Random sides, shuffled node order and labels, some communities empty."""
    names = [str(n) for n in rng.permutation(names)]
    n_red = int(rng.integers(0, len(names) + 1))
    c = int(rng.integers(1, max_communities + 1))
    labels = rng.integers(0, c, size=len(names)).tolist()
    return Partition.from_arrays(
        names[:n_red], names[n_red:], labels[:n_red], labels[n_red:], c
    )


def random_period_pair(rng, kind):
    """Two periods over equal, equally ordered, partially overlapping,
    restricted (empty communities) or disjoint node sets."""
    pool = [f"n{k}" for k in range(int(rng.integers(1, 50)))]
    a = random_labelled(rng, pool)
    if kind == 0:
        b = random_labelled(rng, pool)
    elif kind == 1:
        labels = rng.integers(0, 3, size=len(pool)).tolist()
        n_red = len(a.red_nodes)
        b = Partition.from_arrays(a.red_nodes, a.blue_nodes, labels[:n_red], labels[n_red:], 3)
    elif kind == 2:
        kept = [n for n in pool if rng.random() < 0.7]
        b = random_labelled(rng, kept + [f"x{k}" for k in range(int(rng.integers(0, 15)))])
    elif kind == 3:
        b = random_labelled(rng, pool)
        keep = {n for n in pool if rng.random() < 0.5}
        red = [node in keep for node in b.red_nodes]
        blue = [node in keep for node in b.blue_nodes]
        b = Partition.from_arrays(
            compress(b.red_nodes, red), compress(b.blue_nodes, blue),
            b.red_labels[red], b.blue_labels[blue], b.n_communities,
        )
    else:
        b = random_labelled(rng, [f"y{k}" for k in range(int(rng.integers(1, 30)))])
    return a, b


class TestOverlapsMatchDictOracle:
    def test_track_pair_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for i in range(300):
            a, b = random_period_pair(rng, i % 5)
            population = len(set(a.nodes) | set(b.nodes))
            threshold = float(rng.choice([1e-3, 0.05, 0.5]))
            got = track_pair(a, b, population, threshold, "p0", "p1")
            assert got == dict_track_pair(a, b, population, threshold, "p0", "p1")

    @pytest.mark.parametrize("rule", ["union", "intersection"])
    def test_track_sequence_on_random_sequences(self, rule):
        rng = np.random.default_rng(12)
        config = TrackerConfig(p_univariate=0.05, population_rule=rule)
        for i in range(100):
            a, b = random_period_pair(rng, i % 5)
            c = random_labelled(rng, list(set(b.nodes) | {"z0", "z1"}))
            sequence = [("p0", a), ("p1", b), ("p2", c)]
            assert track_sequence(sequence, config) == dict_track_sequence(sequence, config)


class TestOneAlignmentPerPair:
    @pytest.mark.parametrize("rule", ["union", "intersection"])
    def test_each_period_pair_is_aligned_once(self, monkeypatch, rule):
        aligned = []
        positions_of = Partition.positions_of

        def spy(partition, nodes):
            aligned.append(partition)
            return positions_of(partition, nodes)

        monkeypatch.setattr(Partition, "positions_of", spy)
        rng = np.random.default_rng(13)
        for i in range(10):
            a, b = random_period_pair(rng, i % 5)
            c = random_labelled(rng, list(set(b.nodes) | {"z0", "z1"}))
            sequence = [("p0", a), ("p1", b), ("p2", c)]
            aligned.clear()
            track_sequence(sequence, TrackerConfig(population_rule=rule))
            assert aligned == [b, c]


def reference_evolution_graph(sequence, links, roots, direction_filter):
    """Reference oracle for the root filter: the reached set from a pass over
    the periods in time order, the links that leave it (and under ``all``
    those that arrive in it), and the communities these touch."""
    periods = [label for label, _ in sequence]
    validated = [
        ((l.period_from, l.community_from), (l.period_to, l.community_to))
        for l in links
        if l.validated
    ]
    reached = set(roots)
    for period in periods:
        for source, target in validated:
            if source[0] == period and source in reached:
                reached.add(target)
    kept = [
        (source, target)
        for source, target in validated
        if source in reached or (direction_filter == "all" and target in reached)
    ]
    shown = set(reached)
    for source, target in kept:
        shown.update((source, target))
    sizes = {
        (label, community): size
        for label, partition in sequence
        for community, size in enumerate(partition.sizes())
    }
    rank = {label: t for t, label in enumerate(periods)}
    nodes = [
        (period, community, sizes[(period, community)])
        for period, community in sorted(shown, key=lambda k: (rank[k[0]], k[1]))
        if sizes[(period, community)] > 0
    ]
    edges = sorted(kept, key=lambda e: (rank[e[0][0]], e[0][1], e[1][1]))
    return nodes, edges


def drifting_sequence(rng):
    """2 to 5 periods over a drifting node pool: most nodes keep their
    community from one period to the next, under a fresh numbering."""
    pool = [f"n{k}" for k in range(int(rng.integers(20, 60)))]
    c = int(rng.integers(1, 6))
    labels = dict(zip(pool, rng.integers(0, c, size=len(pool)).tolist()))
    sequence = []
    for t in range(int(rng.integers(2, 6))):
        names = [str(n) for n in rng.permutation(list(labels))]
        n_red = int(rng.integers(0, len(names) + 1))
        values = [labels[n] for n in names]
        sequence.append((f"p{t}", Partition.from_arrays(
            names[:n_red], names[n_red:], values[:n_red], values[n_red:], c
        )))
        c_next = int(rng.integers(1, 6))
        renumber = rng.integers(0, c_next, size=c).tolist()
        labels = {
            n: renumber[g] if rng.random() < 0.9 else int(rng.integers(0, c_next))
            for n, g in labels.items()
            if rng.random() < 0.9
        }
        labels.update((f"m{t}_{k}", int(rng.integers(0, c_next))) for k in range(3))
        c = c_next
    return sequence


class TestRootFilterMatchesReference:
    @pytest.mark.parametrize("direction_filter", ["all", "forward_only"])
    def test_on_random_sequences(self, direction_filter):
        rng = np.random.default_rng(31 if direction_filter == "all" else 32)
        config = TrackerConfig(p_univariate=0.5, direction_filter=direction_filter)
        kept = merged = 0
        for _ in range(150):
            sequence = drifting_sequence(rng)
            communities = [
                (label, community)
                for label, partition in sequence
                for community in range(partition.n_communities)
            ]
            picks = rng.choice(len(communities), size=int(rng.integers(1, 3)))
            roots = [communities[i] for i in picks.tolist()]
            links, threshold = track_sequence(sequence, config)
            graph = build_evolution_graph(sequence, config, roots=roots)
            nodes, edges = reference_evolution_graph(sequence, links, roots, direction_filter)
            assert [(n.period, n.community, n.size) for n in graph.nodes] == nodes
            assert [
                ((e.period_from, e.community_from), (e.period_to, e.community_to))
                for e in graph.edges
            ] == edges
            assert graph.p_threshold == threshold
            kept += bool(edges)
            # links that arrive in the reached set from outside it
            forward = reference_evolution_graph(sequence, links, roots, "forward_only")
            merged += (nodes, edges) != forward
        assert kept > 50
        assert merged > 10 if direction_filter == "all" else merged == 0
