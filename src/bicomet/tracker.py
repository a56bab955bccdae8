"""Statistically validated linking of communities across consecutive periods.

For communities i (period t) and j (period t+1) with sizes n_i and n_j and
overlap n_ij in a joint population of N distinct nodes, the p-value is the
upper tail P(X >= n_ij) of a hypergeometric with N items, n_i marked, n_j
drawn.  Links whose p-value beats a Bonferroni threshold over all community
pairs of all consecutive periods form a time-ordered evolution DAG.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .brim import Partition
from .errors import InputError
from .stats import bonferroni_threshold, overlap_tests
from .table import BOOL_CELLS, read_columns, write_rows

POPULATION_UNION = "union"
POPULATION_INTERSECTION = "intersection"
DIRECTION_ALL = "all"
DIRECTION_FORWARD = "forward_only"

# A timed sequence is an ordered list of (period label, partition) pairs.
TimedPartitionSequence = Sequence[tuple[str, Partition]]


@dataclass(frozen=True)
class TrackerConfig:
    """Knobs of the temporal validation: univariate threshold, how the joint
    population is counted, and which links the rendered DAG keeps."""

    p_univariate: float = 0.01
    population_rule: str = POPULATION_UNION
    direction_filter: str = DIRECTION_ALL

    def __post_init__(self):
        if not 0.0 < self.p_univariate <= 1.0:
            raise InputError(
                f"p_univariate must be in (0, 1], got {self.p_univariate}"
            )
        if self.population_rule not in (POPULATION_UNION, POPULATION_INTERSECTION):
            raise InputError(f"unknown population rule {self.population_rule!r}")
        if self.direction_filter not in (DIRECTION_ALL, DIRECTION_FORWARD):
            raise InputError(f"unknown direction filter {self.direction_filter!r}")


class TemporalLink(NamedTuple):
    """One tested community pair across consecutive periods."""

    period_from: str
    community_from: int
    period_to: str
    community_to: int
    overlap: int
    p_value: float
    validated: bool


@dataclass(frozen=True)
class EvolutionNode:
    period: str
    community: int
    size: int

    @property
    def log_size(self) -> float:
        return math.log(self.size)

    @property
    def name(self) -> str:
        return f"{self.community}_{self.period}"


@dataclass(frozen=True)
class EvolutionGraph:
    """Time-ordered DAG of validated community-to-community links."""

    nodes: tuple[EvolutionNode, ...]
    edges: tuple[TemporalLink, ...]
    p_threshold: float


def track_pair(
    partition_from: Partition,
    partition_to: Partition,
    population: int,
    threshold: float,
    period_from: str = "t",
    period_to: str = "t+1",
) -> list[TemporalLink]:
    """Test every community pair between two consecutive partitions.

    Emits one link per ordered pair, including zero-overlap pairs (p-value
    1, never validated).  ``population`` must be at least every community
    size involved.
    """
    shared = partition_from.shared_labels(partition_to)
    sizes = partition_from.sizes(), partition_to.sizes()
    return _test_pair(shared, sizes, population, threshold, period_from, period_to)


def _test_pair(shared, sizes, population, threshold, period_from, period_to):
    """The links of one period pair, from ``shared``, the two label arrays of
    the nodes both periods hold, and ``sizes``, the two periods' community
    sizes (one per label) within ``population``."""
    for period, period_sizes in zip((period_from, period_to), sizes):
        for label, size in enumerate(period_sizes):
            if size > population:
                raise InputError(
                    f"community {label} of {period} has {size} members, "
                    f"exceeding population {population}"
                )
    overlaps, p_values = overlap_tests(*shared, *sizes, population)
    links = []
    for gi, (row_overlaps, row_p_values) in enumerate(zip(overlaps, p_values)):
        for gj, (n_ij, p) in enumerate(zip(row_overlaps, row_p_values)):
            links.append(
                TemporalLink(
                    period_from=period_from,
                    community_from=gi,
                    period_to=period_to,
                    community_to=gj,
                    overlap=n_ij,
                    p_value=p,
                    validated=p < threshold,
                )
            )
    return links


def sequence_bonferroni(
    sequence: TimedPartitionSequence, p_univariate: float = 0.01
) -> float:
    """Family-wise threshold over every community pair of every consecutive
    period pair: p / sum_t N_t * N_{t+1}."""
    if len(sequence) < 2:
        raise InputError("need at least 2 periods")
    counts = []
    for label, partition in sequence:
        c = partition.n_communities
        if c < 1:
            raise InputError(f"period {label!r} has no communities")
        counts.append(c)
    total_tests = sum(a * b for a, b in zip(counts, counts[1:]))
    return bonferroni_threshold(p_univariate, total_tests)


def track_sequence(
    sequence: TimedPartitionSequence, config: TrackerConfig = TrackerConfig()
) -> tuple[list[TemporalLink], float]:
    """All links across all consecutive period pairs, at the global threshold.

    Each pair's nodes are aligned once.  The union rule counts every node of
    either period and whole communities; the intersection rule counts only
    the nodes both periods hold, and each community's members among them.
    """
    threshold = sequence_bonferroni(sequence, config.p_univariate)
    links: list[TemporalLink] = []
    for (label_a, part_a), (label_b, part_b) in zip(sequence, sequence[1:]):
        shared = part_a.shared_labels(part_b)
        n_shared = shared[0].size
        if config.population_rule == POPULATION_UNION:
            population = part_a.labels.size + part_b.labels.size - n_shared
            sizes = part_a.sizes(), part_b.sizes()
        else:
            population = n_shared
            sizes = tuple(
                np.bincount(labels, minlength=part.n_communities).tolist()
                for labels, part in zip(shared, (part_a, part_b))
            )
        links.extend(_test_pair(shared, sizes, population, threshold, label_a, label_b))
    return links, threshold


def check_roots(
    sequence: TimedPartitionSequence, roots: Sequence[tuple[str, int]]
) -> None:
    """InputError unless every (period, community) root is a community of
    ``sequence``."""
    counts = {label: partition.n_communities for label, partition in sequence}
    for period, community in roots:
        if not 0 <= community < counts.get(period, 0):
            raise InputError(
                f"root community {community} not present in period {period!r}"
            )


def build_evolution_graph(
    sequence: TimedPartitionSequence,
    config: TrackerConfig = TrackerConfig(),
    roots: Sequence[tuple[str, int]] | None = None,
    tracked: tuple[Sequence[TemporalLink], float] | None = None,
) -> EvolutionGraph:
    """Validated-link DAG over a timed partition sequence.

    Without roots, every validated link (and every community) is kept.  With
    roots, a time-forward traversal from the root communities marks the
    reachable set; ``forward_only`` keeps only links leaving reachable nodes,
    while ``all`` additionally keeps validated links arriving at reachable
    nodes from elsewhere (merging side branches stay visible).  ``tracked``
    is what ``track_sequence(sequence, config)`` returned, if the caller has
    it already; the links are then not tested again.
    """
    if tracked is None:
        tracked = track_sequence(sequence, config)
    links, threshold = tracked
    validated = [link for link in links if link.validated]
    order = {label: i for i, (label, _) in enumerate(sequence)}
    sizes = {
        (label, community): size
        for label, partition in sequence
        for community, size in enumerate(partition.sizes())
    }

    if roots is None:
        keep = validated
        shown = sizes
    else:
        check_roots(sequence, roots)
        reach = set(roots)
        for link in sorted(
            validated, key=lambda l: (order[l.period_from], l.community_from, l.community_to)
        ):
            if (link.period_from, link.community_from) in reach:
                reach.add((link.period_to, link.community_to))
        arriving = config.direction_filter == DIRECTION_ALL
        keep = [
            link
            for link in validated
            if (link.period_from, link.community_from) in reach
            or arriving and (link.period_to, link.community_to) in reach
        ]
        # a kept link that leaves the reached set ends in it, so only the
        # arriving links add nodes
        shown = reach.union(
            *(((l.period_from, l.community_from), (l.period_to, l.community_to)) for l in keep)
        )
    node_keys = sorted(shown, key=lambda k: (order[k[0]], k[1]))

    keep = sorted(
        keep,
        key=lambda l: (order[l.period_from], l.community_from, l.community_to),
    )
    nodes = tuple(
        EvolutionNode(period=label, community=community, size=sizes[(label, community)])
        for label, community in node_keys
        if sizes[(label, community)] > 0
    )
    return EvolutionGraph(nodes=nodes, edges=tuple(keep), p_threshold=threshold)


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string; a quote is its only escaped character."""
    return '"' + text.replace('"', '\\"') + '"'


def _dot_export(graph: EvolutionGraph) -> str:
    lines = ["digraph evolution {", "  rankdir=LR;"]
    for node in graph.nodes:
        width = 0.3 + 0.15 * node.log_size
        name = _dot_string(node.name)
        lines.append(
            f"  {name} [label={name}, size={node.log_size:.6f}, width={width:.4f}];"
        )
    for edge in graph.edges:
        src = _dot_string(f"{edge.community_from}_{edge.period_from}")
        dst = _dot_string(f"{edge.community_to}_{edge.period_to}")
        lines.append(f'  {src} -> {dst} [p_value="{edge.p_value:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_export(graph: EvolutionGraph) -> str:
    payload = {
        "p_threshold": graph.p_threshold,
        "nodes": [
            {"period": n.period, "community": n.community, "size": n.size}
            for n in graph.nodes
        ],
        # every edge is validated, so an edge is its link less that field
        "edges": [dict(zip(TemporalLink._fields[:-1], e)) for e in graph.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_evolution(graph: EvolutionGraph, fmt: str) -> str:
    """Serialize to DOT (node size attribute = log community size) or JSON."""
    if not graph.nodes:
        raise InputError("cannot export an empty evolution graph")
    if fmt == "dot":
        return _dot_export(graph)
    if fmt == "json":
        return _json_export(graph)
    raise InputError(f"unsupported export format {fmt!r}")


def write_link_table(links: Sequence[TemporalLink], path) -> None:
    """CSV of every tested link: period_t,comm_i,period_t1,comm_j,overlap,p_value,validated."""
    write_rows(
        path,
        ["period_t", "comm_i", "period_t1", "comm_j", "overlap", "p_value", "validated"],
        links,
    )


def read_link_table(path) -> list[TemporalLink]:
    """Read a link table; InputError with file:line on a malformed row."""
    lines, columns = read_columns(path, 7, header=("period_t",))
    parsers = (str, int, str, int, int, float, BOOL_CELLS.__getitem__)
    try:
        fields = [list(map(parse, column)) for parse, column in zip(parsers, columns)]
    except (ValueError, KeyError):
        # the first faulty row, its cells parsed in the order a row is read
        for line, row in zip(lines.tolist(), zip(*columns)):
            try:
                for parse, cell in zip(parsers, row):
                    parse(cell)
            except (ValueError, KeyError) as exc:
                raise InputError(f"{path}:{line}: bad value: {exc}") from None
    return list(map(TemporalLink, *fields))
