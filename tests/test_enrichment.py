from collections import Counter
from itertools import compress

import numpy as np
import pytest

from bicomet.brim import Partition
from bicomet import enrichment
from bicomet.enrichment import (
    AttributeCatalog,
    EnrichmentConfig,
    EnrichmentRecord,
    community_report,
    enrichment_threshold,
    load_attribute_catalog,
    write_enrichment_report,
)
from bicomet.errors import InputError
from bicomet.stats import HypergeomParams, overlap_pvalue
from bicomet.synth import AttributePlant, CategoryPlan, generate_catalog


def firm_partition(n_firms, community_sizes):
    labels = [c for c, size in enumerate(community_sizes) for _ in range(size)]
    assert len(labels) == n_firms
    names = tuple(f"f{i:04d}" for i in range(n_firms))
    return Partition.from_arrays((), names, (), labels)


def mixed_partition():
    reds = ("bank0", "bank1", "bank2", "bank3")
    blues = tuple(f"f{i}" for i in range(8))
    red_labels = [0, 0, 1, 1]
    blue_labels = [0, 0, 0, 0, 1, 1, 1, 1]
    return Partition.from_arrays(reds, blues, red_labels, blue_labels)


class TestCatalog:
    def test_conflicting_values_rejected(self):
        with pytest.raises(InputError, match="conflicting"):
            AttributeCatalog([("n1", "sector", "A"), ("n1", "sector", "B")])

    def test_repeated_identical_rows_tolerated(self):
        catalog = AttributeCatalog([("n1", "sector", "A"), ("n1", "sector", "A")])
        assert catalog.assignments("sector") == {"n1": "A"}

    def test_loading(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("f1,sector,A\nf2,sector,B\nbank0,bank_type,X\n")
        catalog = load_attribute_catalog(path)
        assert catalog.categories == ("bank_type", "sector")
        assert sorted(set(catalog.assignments("sector").values())) == ["A", "B"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("\n")
        with pytest.raises(InputError, match="empty"):
            load_attribute_catalog(path)
        # a header of any width, and no row
        path.write_text("node_id,category\n")
        with pytest.raises(InputError) as info:
            load_attribute_catalog(path)
        assert str(info.value) == f"empty attribute catalog: {path}"


CATALOG_HEADER = "node_id,category,value\n"


class TestCatalogFaults:
    """One fault per catalog file, and the ``path:line: message`` it gives."""

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                CATALOG_HEADER + "n1,sector,A\nn1,sector,B\n",
                "3: node 'n1' has conflicting 'sector' values 'A' and 'B'",
                id="conflicting-values",
            ),
            pytest.param(
                CATALOG_HEADER + "n1,sector,A\n ,sector,B\n",
                "3: attribute rows need node, category and value",
                id="empty-node",
            ),
            pytest.param(
                "n1,,A\n", "1: attribute rows need node, category and value", id="empty-category"
            ),
            pytest.param(
                "n1,sector,A\n\nn2,sector,\n",
                "3: attribute rows need node, category and value",
                id="empty-value",
            ),
            pytest.param(
                CATALOG_HEADER + "n1,sector\n", "2: expected 3 fields, got 2", id="short-row"
            ),
            pytest.param("n1,sector,A,B\n", "1: expected 3 fields, got 4", id="long-row"),
            # only a first line starting node_id,category is a header
            pytest.param(
                "node_id\ncategory,sector,A\n", "1: expected 3 fields, got 1", id="not-a-header"
            ),
            # a category of such a name would overwrite that report column
            *[
                pytest.param(
                    CATALOG_HEADER + f"n1,sector,A\nn2,{column},B\n",
                    f"3: category {column!r} names a column of the report",
                    id=f"{column}-category",
                )
                for column in ("period", "community", "n_red", "n_blue")
            ],
        ],
    )
    def test_single_fault_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "attrs.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            load_attribute_catalog(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a row of the wrong width is reported before any earlier fault
            ("n1,sector,A\nn1,sector,B\nn2,sector\n", "3: expected 3 fields, got 2"),
            # then the earliest faulty row
            (
                "n1,sector,A\nn1,sector,B\n,sector,A\n",
                "2: node 'n1' has conflicting 'sector' values 'A' and 'B'",
            ),
            (
                "n1,sector,A\nn2,,B\nn1,sector,B\n",
                "2: attribute rows need node, category and value",
            ),
        ],
    )
    def test_first_fault_is_reported(self, tmp_path, text, message):
        path = tmp_path / "attrs.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            load_attribute_catalog(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "head", ["NODE_ID,Category,value\n", "\nnode_id,category,value\n", " \n\nNode_Id,CATEGORY\n"]
    )
    def test_header_in_any_case_after_blank_lines(self, tmp_path, head):
        path = tmp_path / "attrs.csv"
        path.write_text(head + "f1,sector,A\n\nbank0,bank_type,X\n")
        catalog = load_attribute_catalog(path)
        assert catalog.assignments("sector") == {"f1": "A"}
        assert catalog.assignments("bank_type") == {"bank0": "X"}


class TestThreshold:
    def test_three_category_arithmetic(self):
        assert enrichment_threshold(0.01, 30, 47, 8, 25) == pytest.approx(
            0.01 / 2125, rel=1e-15
        )

    def test_single_category_single_value(self):
        assert enrichment_threshold(0.01, 1, 1) == 0.01

    def test_doubling_communities_halves_threshold(self):
        a = enrichment_threshold(0.01, 5, 3, 10)
        b = enrichment_threshold(0.01, 5, 3, 20)
        assert a == pytest.approx(2 * b, rel=1e-15)

    def test_zero_values_rejected(self):
        with pytest.raises(InputError, match="zero total"):
            enrichment_threshold(0.01, 0, 0, 5)

    def test_zero_communities_rejected(self):
        with pytest.raises(InputError):
            enrichment_threshold(0.01, 5, 0)


class TestOverexpression:
    def test_planted_value_detected(self):
        part = firm_partition(1000, [50] + [50] * 19)
        plans = [
            CategoryPlan(
                name="sector",
                side="blue",
                values=tuple(f"S{k:02d}" for k in range(20)),
            )
        ]
        plants = [
            AttributePlant(category="sector", value="EEE", community=0, penetration=0.8)
        ]
        catalog = generate_catalog(part, plans, seed=5, plants=plants)
        records = enrichment.test_overexpression(part, catalog, period="y0")
        hit = next(r for r in records if r.community == 0 and r.value == "EEE")
        assert hit.validated
        assert hit.p_value < 1e-20

    def test_absent_value_never_validated(self):
        part = firm_partition(6, [3, 3])
        catalog = AttributeCatalog(
            [(f"f{i:04d}", "sector", "A" if i < 3 else "B") for i in range(6)]
        )
        records = enrichment.test_overexpression(part, catalog)
        absent = next(r for r in records if r.community == 0 and r.value == "B")
        assert absent.count_in_community == 0
        assert absent.p_value == 1.0
        assert not absent.validated

    def test_universal_value_never_validated(self):
        part = firm_partition(10, [5, 5])
        catalog = AttributeCatalog([(f"f{i:04d}", "sector", "A") for i in range(10)])
        records = enrichment.test_overexpression(part, catalog)
        assert all(r.p_value == 1.0 and not r.validated for r in records)

    def test_category_covering_no_partition_node_rejected(self):
        part = firm_partition(4, [2, 2])
        catalog = AttributeCatalog([("zzz", "sector", "A")])
        with pytest.raises(InputError, match="applies to no node"):
            enrichment.test_overexpression(part, catalog)

    def test_category_spanning_both_sides_rejected(self):
        part = mixed_partition()
        catalog = AttributeCatalog(
            [("bank0", "region", "north"), ("f1", "region", "south")]
        )
        with pytest.raises(InputError, match="both node sides"):
            enrichment.test_overexpression(part, catalog)

    def test_record_count_matches_bonferroni_accounting(self):
        part = mixed_partition()
        rows = [("bank0", "bank_type", "X"), ("bank1", "bank_type", "Y"),
                ("bank2", "bank_type", "X"), ("bank3", "bank_type", "Y")]
        rows += [(f"f{i}", "sector", "AB"[i % 2]) for i in range(8)]
        catalog = AttributeCatalog(rows)
        records = enrichment.test_overexpression(part, catalog)
        # (2 bank_type values + 2 sector values) x 2 communities
        assert len(records) == 8

    def test_pvalues_reproducible_from_stats_kernel(self):
        part = firm_partition(60, [20, 20, 20])
        rng = np.random.default_rng(3)
        values = ["A", "B", "C"]
        catalog = AttributeCatalog(
            [
                (f"f{i:04d}", "sector", values[rng.integers(0, 3)])
                for i in range(60)
            ]
        )
        for record in enrichment.test_overexpression(part, catalog):
            expected = overlap_pvalue(
                record.count_in_community,
                HypergeomParams(
                    record.global_population,
                    record.global_count,
                    record.community_population,
                ),
            )
            assert abs(record.p_value - expected) <= 1e-12

    def test_monotone_in_community_count(self):
        params = [(1000, 80, 50)]
        for n, m, k in params:
            values = [
                overlap_pvalue(x, HypergeomParams(n, m, k)) for x in range(0, k + 1)
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_side_population_scope(self):
        part = firm_partition(20, [10, 10])
        rows = [(f"f{i:04d}", "sector", "A" if i < 5 else "B") for i in range(10)]
        catalog = AttributeCatalog(rows)
        carriers = enrichment.test_overexpression(
            part, catalog, EnrichmentConfig(population_scope="carriers")
        )
        side = enrichment.test_overexpression(
            part, catalog, EnrichmentConfig(population_scope="side")
        )
        assert {r.global_population for r in carriers} == {10}
        assert {r.global_population for r in side} == {20}

    def test_uniform_catalog_produces_no_validations(self):
        part = firm_partition(400, [40] * 10)
        plans = [
            CategoryPlan(
                name="sector", side="blue", values=tuple(f"S{k}" for k in range(8))
            )
        ]
        for seed in range(20):
            catalog = generate_catalog(part, plans, seed=seed)
            records = enrichment.test_overexpression(part, catalog)
            assert not any(r.validated for r in records)


class TestReport:
    def test_unvalidated_shows_placeholder(self):
        part = mixed_partition()
        rows = [(f"f{i}", "sector", "AB"[i % 2]) for i in range(8)]
        catalog = AttributeCatalog(rows)
        records = enrichment.test_overexpression(part, catalog, period="1986")
        report = community_report(part, records, "1986")
        assert all(row["sector"] == "--" for row in report)

    def test_counts_and_validated_value(self):
        part = firm_partition(1000, [50] + [50] * 19)
        plans = [
            CategoryPlan(
                name="sector",
                side="blue",
                values=tuple(f"S{k:02d}" for k in range(20)),
            )
        ]
        plants = [
            AttributePlant(category="sector", value="EEE", community=0, penetration=0.8)
        ]
        catalog = generate_catalog(part, plans, seed=5, plants=plants)
        records = enrichment.test_overexpression(part, catalog, period="y0")
        report = community_report(part, records, "y0")
        assert report[0]["sector"] == "EEE"
        assert report[0]["n_red"] == 0
        assert report[0]["n_blue"] == 50

    def test_mixed_counts(self):
        part = mixed_partition()
        rows = [(f"f{i}", "sector", "AB"[i % 2]) for i in range(8)]
        records = enrichment.test_overexpression(part, AttributeCatalog(rows), period="t")
        report = community_report(part, records, "t")
        assert report[0]["n_red"] == 2
        assert report[0]["n_blue"] == 4

    def test_report_csv(self, tmp_path):
        part = mixed_partition()
        rows = [(f"f{i}", "sector", "AB"[i % 2]) for i in range(8)]
        records = enrichment.test_overexpression(part, AttributeCatalog(rows), period="t")
        report = community_report(part, records, "t")
        path = tmp_path / "report.csv"
        write_enrichment_report(report, path)
        text = path.read_text()
        assert text.splitlines()[0] == "period,community,n_red,n_blue,sector"
        assert "--" in text


def dict_overexpression(partition, catalog, config=EnrichmentConfig(), period=""):
    """Reference oracle: the set-and-Counter ``test_overexpression`` that the
    node-aligned cross-tabulation replaced."""
    partition_nodes = set(partition.nodes)
    red, blue = set(partition.red_nodes), set(partition.blue_nodes)
    prepared = []
    value_counts = []
    for category in catalog.categories:
        assigned = catalog.assignments(category)
        carriers = {n: v for n, v in assigned.items() if n in partition_nodes}
        if not carriers:
            raise InputError(f"category {category!r} applies to no node of the partition")
        on_red = any(node in red for node in carriers)
        on_blue = any(node in blue for node in carriers)
        if on_red and on_blue:
            raise InputError(f"category {category!r} spans both node sides")
        side_nodes = red if on_red else blue
        if config.population_scope == "carriers":
            population_nodes = set(carriers)
        else:
            population_nodes = side_nodes
        values = sorted(set(carriers.values()))
        value_counts.append(len(values))
        global_counts = Counter(carriers[n] for n in population_nodes if n in carriers)
        prepared.append((category, carriers, population_nodes, values, global_counts))
    threshold = enrichment_threshold(
        config.p_univariate, *value_counts, partition.n_communities
    )
    records = []
    for community in range(partition.n_communities):
        members = {
            n for n, g in zip(partition.nodes, partition.labels.tolist()) if g == community
        }
        for category, carriers, population_nodes, values, global_counts in prepared:
            member_pop = members & population_nodes
            member_counts = Counter(carriers[n] for n in member_pop if n in carriers)
            for value in values:
                m, k = global_counts[value], len(member_pop)
                x = member_counts.get(value, 0)
                p = overlap_pvalue(x, HypergeomParams(len(population_nodes), m, k))
                records.append(
                    EnrichmentRecord(community, period, category, value, x, k, m,
                                     len(population_nodes), p, p < threshold)
                )
    return records


def dict_side_counts(partition):
    """Reference oracle for the report's per-side community sizes."""
    red, blue = partition.red_labels.tolist(), partition.blue_labels.tolist()
    return [(red.count(g), blue.count(g)) for g in range(partition.n_communities)]


def random_attributed(rng):
    """A partition (shuffled node order, some communities empty) and a
    catalog whose categories each sit on one side, cover part of it and
    name nodes outside it; every fifth catalog has a category on both sides."""
    reds = [f"r{k}" for k in range(int(rng.integers(0, 15)))]
    blues = [f"b{k}" for k in range(int(rng.integers(1, 30)))]
    c = int(rng.integers(1, 7))
    red_labels = rng.integers(0, c, size=len(reds)).tolist()
    blue_labels = rng.integers(0, c, size=len(blues)).tolist()
    partition = Partition.from_arrays(
        [str(n) for n in rng.permutation(reds)] if reds else [],
        [str(n) for n in rng.permutation(blues)],
        red_labels, blue_labels, c,
    )
    if rng.random() < 0.3:
        keep = {n for n in partition.nodes if rng.random() < 0.7 or n == blues[0]}
        red = [node in keep for node in partition.red_nodes]
        blue = [node in keep for node in partition.blue_nodes]
        partition = Partition.from_arrays(
            compress(partition.red_nodes, red), compress(partition.blue_nodes, blue),
            partition.red_labels[red], partition.blue_labels[blue], c,
        )
    rows = []
    for index in range(int(rng.integers(1, 4))):
        side = reds if reds and rng.random() < 0.4 else blues
        pool = side + ["outside0", "outside1"]
        if rng.random() < 0.2:
            pool = reds + blues
        values = [f"v{k}" for k in range(int(rng.integers(1, 5)))]
        for node in pool:
            if rng.random() < 0.7:
                rows.append((node, f"cat{index}", values[int(rng.integers(0, len(values)))]))
    rows.append((blues[0], "anchor", "v0"))
    return partition, AttributeCatalog(rows)


class TestCountsMatchDictOracle:
    @pytest.mark.parametrize("scope", ["carriers", "side"])
    def test_overexpression_on_random_partitions(self, scope):
        rng = np.random.default_rng(21 if scope == "carriers" else 22)
        config = EnrichmentConfig(p_univariate=0.05, population_scope=scope)
        compared = 0
        for _ in range(200):
            partition, catalog = random_attributed(rng)
            try:
                expected = dict_overexpression(partition, catalog, config, period="t")
            except InputError as exc:
                with pytest.raises(InputError) as raised:
                    enrichment.test_overexpression(partition, catalog, config, period="t")
                assert str(raised.value) == str(exc)
                continue
            got = enrichment.test_overexpression(partition, catalog, config, period="t")
            assert got == expected
            compared += 1
        assert compared > 100

    def test_report_side_counts_on_random_partitions(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            partition, catalog = random_attributed(rng)
            report = community_report(partition, [], "t")
            got = [(row["n_red"], row["n_blue"]) for row in report]
            assert got == dict_side_counts(partition)
