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

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .brim import Partition
from .errors import InputError, _RowError
from .stats import bonferroni_threshold, overlap_tests
from .table import read_columns, write_rows

SCOPE_CARRIERS = "carriers"
SCOPE_SIDE = "side"

# the fixed columns of the community report; the categories follow them
REPORT_COLUMNS = ("period", "community", "n_red", "n_blue")


class AttributeCatalog:
    """Per-node categorical attributes, at most one value per category.

    Conflicting duplicate assignments are rejected; repeated identical rows
    are tolerated.  A category may not take the name of a fixed column of the
    community report.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        by_category: dict[str, dict[str, str]] = {}
        for i, (node, category, value) in enumerate(rows):
            node, category, value = str(node), str(category), str(value)
            if not node or not category or not value:
                raise _RowError(i, "attribute rows need node, category and value")
            if category in REPORT_COLUMNS:
                raise _RowError(i, f"category {category!r} names a column of the report")
            existing = by_category.setdefault(category, {}).setdefault(node, value)
            if existing != value:
                raise _RowError(
                    i,
                    f"node {node!r} has conflicting {category!r} values "
                    f"{existing!r} and {value!r}",
                )
        self._by_category = by_category

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_category))

    def assignments(self, category: str) -> dict[str, str]:
        try:
            return dict(self._by_category[category])
        except KeyError:
            raise InputError(f"unknown category {category!r}") from None


def load_attribute_catalog(path) -> AttributeCatalog:
    """Read `node_id,category,value` rows into a catalog; InputError at
    ``path:line`` on a malformed row."""
    lines, columns = read_columns(path, 3, header=("node_id", "category"))
    if not lines.size:
        raise InputError(f"empty attribute catalog: {path}")
    try:
        return AttributeCatalog(zip(*columns))
    except _RowError as exc:
        raise InputError(f"{path}:{lines[exc.row]}: {exc}") from exc


def write_attribute_catalog(catalog: AttributeCatalog, path) -> None:
    """Write the catalog as `node_id,category,value` rows with no header, by
    category and then node id, for ``load_attribute_catalog`` to read back."""
    rows = [
        (node, category, value)
        for category in catalog.categories
        for node, value in sorted(catalog.assignments(category).items())
    ]
    write_rows(path, None, rows)


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


class EnrichmentRecord(NamedTuple):
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
    return bonferroni_threshold(p_univariate, total_values * n_communities)


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
    if not catalog.categories:
        raise InputError("empty attribute catalog")
    labels = partition.labels
    n_red, c = len(partition.red_nodes), partition.n_communities
    prepared = []
    value_counts = []
    for category in catalog.categories:
        assigned = catalog.assignments(category)
        position = partition.positions_of(assigned)
        held = position >= 0
        if not held.any():
            raise InputError(
                f"category {category!r} applies to no node of the partition"
            )
        position = position[held]
        on_red = position < n_red
        if on_red.any() and not on_red.all():
            raise InputError(f"category {category!r} spans both node sides")
        carried = [v for v, keep in zip(assigned.values(), held.tolist()) if keep]
        values = sorted(set(carried))
        index = {v: i for i, v in enumerate(values)}
        value_ids = np.array([index[v] for v in carried], dtype=np.int64)
        community = labels[position]
        if config.population_scope == SCOPE_CARRIERS:
            population = community
        else:
            # every node of the category's side, carrier or not
            population = labels[:n_red] if on_red[0] else labels[n_red:]
        n_values = len(values)
        value_counts.append(n_values)
        m = np.bincount(value_ids, minlength=n_values).tolist()
        k = np.bincount(population, minlength=c).tolist()
        x, p = overlap_tests(value_ids, community, m, k, population.size)
        prepared.append((category, values, x, p, m, k, population.size))

    threshold = enrichment_threshold(config.p_univariate, *value_counts, c)

    records = []
    for community in range(c):
        for category, values, x, p, m, k, population in prepared:
            for j, value in enumerate(values):
                records.append(
                    EnrichmentRecord(
                        community=community,
                        period=period,
                        category=category,
                        value=value,
                        count_in_community=x[j][community],
                        community_population=k[community],
                        global_count=m[j],
                        global_population=population,
                        p_value=p[j][community],
                        validated=p[j][community] < threshold,
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
    c = partition.n_communities
    n_red = np.bincount(partition.red_labels, minlength=c).tolist()
    n_blue = np.bincount(partition.blue_labels, minlength=c).tolist()
    rows = []
    for community in range(c):
        row = dict(zip(REPORT_COLUMNS, (period, community, n_red[community], n_blue[community])))
        for category in categories:
            values = sorted(validated.get((community, category), []))
            row[category] = " ".join(values) if values else NONE_MARKER
        rows.append(row)
    return rows


def write_enrichment_records(records: Sequence[EnrichmentRecord], path) -> None:
    """CSV of every tested record, in field order but with the period first."""
    write_rows(
        path,
        ["period", "community", *EnrichmentRecord._fields[2:]],
        ((r.period, r.community, *r[2:]) for r in records),
    )


def write_enrichment_report(rows: Sequence[dict], path) -> None:
    categories = sorted({k for row in rows for k in row}.difference(REPORT_COLUMNS))
    header = [*REPORT_COLUMNS, *categories]
    write_rows(path, header, ([row.get(col, NONE_MARKER) for col in header] for row in rows))
