"""Detection of over-expressed categorical node attributes within communities.

Each (community, category, value) triple gets an upper-tail hypergeometric
test against the period's population of nodes carrying the category, so the
null respects attribute heterogeneity: a value is flagged only when its
in-community frequency is unlikely under random membership, not merely when
it is the most common one.  The Bonferroni divisor is the total number of
distinct attribute values (summed over categories) times the number of
communities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .brim import Partition
from .errors import InputError
from .graph import BLUE, RED
from .stats import HypergeomParams, overlap_pvalue
from .table import read_rows, write_rows

SCOPE_CARRIERS = "carriers"
SCOPE_SIDE = "side"


class AttributeCatalog:
    """Per-node categorical attributes, at most one value per category.

    Conflicting duplicate assignments are rejected; repeated identical rows
    are tolerated.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        by_category: dict[str, dict[str, str]] = {}
        for node, category, value in rows:
            node, category, value = str(node), str(category), str(value)
            if not node or not category or not value:
                raise InputError("attribute rows need node, category and value")
            assigned = by_category.setdefault(category, {})
            existing = assigned.get(node)
            if existing is not None and existing != value:
                raise InputError(
                    f"node {node!r} has conflicting {category!r} values "
                    f"{existing!r} and {value!r}"
                )
            assigned[node] = value
        self._by_category = by_category

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_category))

    def assignments(self, category: str) -> dict[str, str]:
        try:
            return dict(self._by_category[category])
        except KeyError:
            raise InputError(f"unknown category {category!r}") from None

    def distinct_values(self, category: str) -> tuple[str, ...]:
        return tuple(sorted(set(self._by_category[category].values())))

    def __len__(self):
        return sum(len(v) for v in self._by_category.values())


def load_attribute_catalog(path) -> AttributeCatalog:
    """Read `node_id,category,value` rows into a catalog."""
    rows = []
    for lineno, cells in read_rows(path):
        if lineno == 1 and cells[:2] == ["node_id", "category"]:
            continue
        if len(cells) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 fields")
        rows.append((cells[0], cells[1], cells[2]))
    if not rows:
        raise InputError(f"empty attribute catalog: {path}")
    return AttributeCatalog(rows)


@dataclass(frozen=True)
class EnrichmentConfig:
    p_univariate: float = 0.01
    # "carriers": population and community counts are restricted to nodes
    # actually carrying the category; "side": all nodes of the applicable side.
    population_scope: str = SCOPE_CARRIERS

    def __post_init__(self):
        if not 0.0 < self.p_univariate <= 1.0:
            raise InputError(f"p_univariate must be in (0, 1], got {self.p_univariate}")
        if self.population_scope not in (SCOPE_CARRIERS, SCOPE_SIDE):
            raise InputError(f"unknown population scope {self.population_scope!r}")


@dataclass(frozen=True)
class EnrichmentRecord:
    """One tested (community, category, value) hypothesis."""

    community: int
    period: str
    category: str
    value: str
    count_in_community: int
    community_population: int
    global_count: int
    global_population: int
    p_value: float
    validated: bool


def enrichment_threshold(p_univariate: float, *counts: int) -> float:
    """Bonferroni threshold for attribute tests in one period.

    The last argument is the number of communities; the preceding arguments
    are distinct-value counts, one per attribute category.  The divisor is
    (sum of value counts) * communities.
    """
    if len(counts) < 2:
        raise InputError("need at least one value count and the community count")
    *value_counts, n_communities = counts
    if any(v < 0 for v in value_counts):
        raise InputError(f"negative value count in {value_counts}")
    if n_communities < 1:
        raise InputError(f"community count must be >= 1, got {n_communities}")
    total_values = sum(value_counts)
    if total_values == 0:
        raise InputError("zero total attribute values")
    if not 0.0 < p_univariate <= 1.0:
        raise InputError(f"p_univariate must be in (0, 1], got {p_univariate}")
    return p_univariate / (total_values * n_communities)


def _category_side(carriers, partition, category):
    red = set(partition.red_nodes)
    blue = set(partition.blue_nodes)
    on_red = any(node in red for node in carriers)
    on_blue = any(node in blue for node in carriers)
    if on_red and on_blue:
        raise InputError(f"category {category!r} spans both node sides")
    return RED if on_red else BLUE


def test_overexpression(
    partition: Partition,
    catalog: AttributeCatalog,
    config: EnrichmentConfig = EnrichmentConfig(),
    period: str = "",
) -> list[EnrichmentRecord]:
    """Hypergeometric over-expression test for every community, category and
    value present in the period.

    For each category the population is side-restricted (an attribute of one
    node side is never tested against the other).  Values absent from a
    community give p = 1.
    Raises InputError when a catalog category applies to no node of the
    partition.
    """
    partition_nodes = partition.node_set()
    if not catalog.categories:
        raise InputError("empty attribute catalog")

    prepared = []
    value_counts = []
    for category in catalog.categories:
        assigned = catalog.assignments(category)
        carriers = {n: v for n, v in assigned.items() if n in partition_nodes}
        if not carriers:
            raise InputError(
                f"category {category!r} applies to no node of the partition"
            )
        side = _category_side(carriers, partition, category)
        side_nodes = (
            set(partition.red_nodes) if side == RED else set(partition.blue_nodes)
        )
        if config.population_scope == SCOPE_CARRIERS:
            population_nodes = set(carriers)
        else:
            population_nodes = side_nodes
        values = sorted(set(carriers.values()))
        value_counts.append(len(values))
        global_counts = Counter(
            carriers[n] for n in population_nodes if n in carriers
        )
        prepared.append((category, carriers, population_nodes, values, global_counts))

    threshold = enrichment_threshold(
        config.p_univariate, *value_counts, partition.n_communities
    )

    records = []
    for community in range(partition.n_communities):
        members = partition.members(community)
        for category, carriers, population_nodes, values, global_counts in prepared:
            population = len(population_nodes)
            member_pop = members & population_nodes
            k = len(member_pop)
            member_counts = Counter(
                carriers[n] for n in member_pop if n in carriers
            )
            for value in values:
                m = global_counts[value]
                x = member_counts.get(value, 0)
                p = overlap_pvalue(x, HypergeomParams(population, m, k))
                records.append(
                    EnrichmentRecord(
                        community=community,
                        period=period,
                        category=category,
                        value=value,
                        count_in_community=x,
                        community_population=k,
                        global_count=m,
                        global_population=population,
                        p_value=p,
                        validated=p < threshold,
                    )
                )
    return records


NONE_MARKER = "--"


def community_report(
    partition: Partition, records: Sequence[EnrichmentRecord], period: str
) -> list[dict]:
    """One row per community: node counts per side plus the validated values
    of each category (joined by spaces, ``--`` when none)."""
    categories = sorted({r.category for r in records})
    validated: dict[tuple[int, str], list[str]] = {}
    for record in records:
        if record.validated:
            validated.setdefault((record.community, record.category), []).append(
                record.value
            )
    rows = []
    for community in range(partition.n_communities):
        row = {
            "period": period,
            "community": community,
            "n_red": len(partition.red_members(community)),
            "n_blue": len(partition.blue_members(community)),
        }
        for category in categories:
            values = sorted(validated.get((community, category), []))
            row[category] = " ".join(values) if values else NONE_MARKER
        rows.append(row)
    return rows


def write_enrichment_records(records: Sequence[EnrichmentRecord], path) -> None:
    write_rows(
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


def write_enrichment_report(rows: Sequence[dict], path) -> None:
    categories = sorted(
        {k for row in rows for k in row if k not in ("period", "community", "n_red", "n_blue")}
    )
    header = ["period", "community", "n_red", "n_blue", *categories]
    write_rows(path, header, ([row.get(col, NONE_MARKER) for col in header] for row in rows))
