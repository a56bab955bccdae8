"""The record types are their table rows: the writers that hand them to
``table.write_rows`` as they are write the bytes of the hand-built writers
they replaced, and ``write_rows`` alone formats a cell."""

import csv
from pathlib import Path

import numpy as np
import pytest

from bicomet.enrichment import EnrichmentRecord, write_enrichment_records
from bicomet.synth import LineageEdge, write_lineage
from bicomet.table import write_rows
from bicomet.tracker import TemporalLink, read_link_table, write_link_table


def reference_write_rows(path, header, rows):
    """``write_rows`` as it was before it formatted any cell: plain csv.writer."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def reference_write_link_table(links, path):
    reference_write_rows(
        path,
        ["period_t", "comm_i", "period_t1", "comm_j", "overlap", "p_value", "validated"],
        (
            [
                link.period_from,
                link.community_from,
                link.period_to,
                link.community_to,
                link.overlap,
                repr(link.p_value),
                str(link.validated).lower(),
            ]
            for link in links
        ),
    )


def reference_write_enrichment_records(records, path):
    reference_write_rows(
        path,
        [
            "period",
            "community",
            "category",
            "value",
            "count_in_community",
            "community_population",
            "global_count",
            "global_population",
            "p_value",
            "validated",
        ],
        (
            [
                r.period,
                r.community,
                r.category,
                r.value,
                r.count_in_community,
                r.community_population,
                r.global_count,
                r.global_population,
                repr(r.p_value),
                str(r.validated).lower(),
            ]
            for r in records
        ),
    )


def reference_write_lineage(lineage, path):
    reference_write_rows(
        path,
        ["period_from", "community_from", "period_to", "community_to"],
        (
            (edge.period_from, edge.community_from, edge.period_to, edge.community_to)
            for edge in lineage
        ),
    )


# commas, quotes, a space and non-ASCII text, so that cells need quoting
CHARS = list("aZ09-_,\" é日ßΩ")


def text(rng):
    """A non-empty label with no space at either end (cells are stripped on read)."""
    return "".join(rng.choice(CHARS, size=int(rng.integers(1, 9)))).strip() or "p"


def big_int(rng):
    """A small count, or one past 64 bits."""
    if rng.random() < 0.5:
        return int(rng.integers(0, 1000))
    return int(rng.integers(0, 2**62)) * 10**6


def p_value(rng):
    draw = rng.random()
    if draw < 0.1:
        return 1.0
    if draw < 0.2:
        return 1e-300
    return float(10 ** rng.uniform(-300, 0))


def random_links(rng, n):
    return [
        TemporalLink(text(rng), big_int(rng), text(rng), big_int(rng), big_int(rng),
                     p_value(rng), bool(rng.random() < 0.5))
        for _ in range(n)
    ]


def random_records(rng, n):
    return [
        EnrichmentRecord(big_int(rng), text(rng), text(rng), text(rng), big_int(rng),
                         big_int(rng), big_int(rng), big_int(rng), p_value(rng),
                         bool(rng.random() < 0.5))
        for _ in range(n)
    ]


def random_lineage(rng, n):
    return [LineageEdge(text(rng), big_int(rng), text(rng), big_int(rng)) for _ in range(n)]


class TestRecordsAreRows:
    def test_field_names_and_order(self):
        assert TemporalLink._fields == (
            "period_from", "community_from", "period_to", "community_to",
            "overlap", "p_value", "validated",
        )
        assert EnrichmentRecord._fields == (
            "community", "period", "category", "value", "count_in_community",
            "community_population", "global_count", "global_population",
            "p_value", "validated",
        )
        assert LineageEdge._fields == (
            "period_from", "community_from", "period_to", "community_to",
        )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "make, write, reference",
        [
            (random_links, write_link_table, reference_write_link_table),
            (random_records, write_enrichment_records, reference_write_enrichment_records),
            (random_lineage, write_lineage, reference_write_lineage),
        ],
        ids=["links", "enrichment_records", "lineage"],
    )
    def test_writers_match_the_hand_built_ones(self, tmp_path, seed, make, write, reference):
        rng = np.random.default_rng(seed)
        items = make(rng, int(rng.integers(0, 60)))
        write(items, tmp_path / "new.csv")
        reference(items, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_link_table_reads_back_what_was_written(self, tmp_path, seed):
        links = random_links(np.random.default_rng(seed), 40)
        path = tmp_path / "links.csv"
        write_link_table(links, path)
        assert read_link_table(path) == links


class TestCellRule:
    def test_bool_float_int_and_quoted_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["b", "f", "i", "s"], [
            (True, 0.1, 7, 'say "hi", then go'),
            (False, 1e-300, 2**70, "é"),
            (1, 1.0, 0, ""),
        ])
        assert path.read_text(encoding="utf-8") == (
            "b,f,i,s\n"
            'true,0.1,7,"say ""hi"", then go"\n'
            f"false,1e-300,{2**70},é\n"
            "1,1.0,0,\n"
        )
