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
from typing import Sequence

from .brim import Partition
from .errors import InputError
from .stats import HypergeomParams, bonferroni_threshold, overlap_pvalue
from .table import read_rows, write_rows

POPULATION_UNION = "union"
POPULATION_INTERSECTION = "intersection"
DIRECTION_ALL = "all"
DIRECTION_FORWARD = "forward_only"

# A timed sequence is an ordered list of (period label, partition) pairs.
TimedPartitionSequence = Sequence[tuple[str, Partition]]


def _normalize_population_rule(rule: str) -> str:
    rule = rule.lower()
    if rule in (POPULATION_UNION, "union_of_periods"):
        return POPULATION_UNION
    if rule == POPULATION_INTERSECTION:
        return POPULATION_INTERSECTION
    raise InputError(f"unknown population rule {rule!r}")


def _normalize_direction(direction: str) -> str:
    direction = direction.lower()
    if direction in (DIRECTION_ALL, DIRECTION_FORWARD):
        return direction
    raise InputError(f"unknown direction filter {direction!r}")


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
        object.__setattr__(
            self, "population_rule", _normalize_population_rule(self.population_rule)
        )
        object.__setattr__(
            self, "direction_filter", _normalize_direction(self.direction_filter)
        )


@dataclass(frozen=True)
class TemporalLink:
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
    sizes_from = partition_from.sizes()
    sizes_to = partition_to.sizes()
    for label, size in enumerate(sizes_from):
        if size > population:
            raise InputError(
                f"community {label} of {period_from} has {size} members, "
                f"exceeding population {population}"
            )
    for label, size in enumerate(sizes_to):
        if size > population:
            raise InputError(
                f"community {label} of {period_to} has {size} members, "
                f"exceeding population {population}"
            )
    map_from = partition_from.as_dict()
    map_to = partition_to.as_dict()
    overlaps: dict[tuple[int, int], int] = {}
    for node, gi in map_from.items():
        gj = map_to.get(node)
        if gj is not None:
            overlaps[(gi, gj)] = overlaps.get((gi, gj), 0) + 1
    links = []
    for gi in range(partition_from.n_communities):
        for gj in range(partition_to.n_communities):
            n_ij = overlaps.get((gi, gj), 0)
            if n_ij == 0:
                p = 1.0
            else:
                params = HypergeomParams(population, sizes_from[gi], sizes_to[gj])
                p = overlap_pvalue(n_ij, params)
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


def _joint_population(partition_a, partition_b, rule):
    ids_a = partition_a.node_set()
    ids_b = partition_b.node_set()
    if rule == POPULATION_UNION:
        return len(ids_a | ids_b), partition_a, partition_b
    common = ids_a & ids_b
    return (
        len(common),
        partition_a.restricted_to(common),
        partition_b.restricted_to(common),
    )


def track_sequence(
    sequence: TimedPartitionSequence, config: TrackerConfig = TrackerConfig()
) -> tuple[list[TemporalLink], float]:
    """All links across all consecutive period pairs, at the global threshold."""
    threshold = sequence_bonferroni(sequence, config.p_univariate)
    links: list[TemporalLink] = []
    for (label_a, part_a), (label_b, part_b) in zip(sequence, sequence[1:]):
        population, restricted_a, restricted_b = _joint_population(
            part_a, part_b, config.population_rule
        )
        links.extend(
            track_pair(
                restricted_a,
                restricted_b,
                population,
                threshold,
                period_from=label_a,
                period_to=label_b,
            )
        )
    return links, threshold


def build_evolution_graph(
    sequence: TimedPartitionSequence,
    config: TrackerConfig = TrackerConfig(),
    roots: Sequence[tuple[str, int]] | None = None,
) -> EvolutionGraph:
    """Validated-link DAG over a timed partition sequence.

    Without roots, every validated link (and every community) is kept.  With
    roots, a time-forward traversal from the root communities marks the
    reachable set; ``forward_only`` keeps only links leaving reachable nodes,
    while ``all`` additionally keeps validated links arriving at reachable
    nodes from elsewhere (merging side branches stay visible).
    """
    links, threshold = track_sequence(sequence, config)
    validated = [link for link in links if link.validated]
    order = {label: i for i, (label, _) in enumerate(sequence)}
    sizes = {
        (label, community): size
        for label, partition in sequence
        for community, size in enumerate(partition.sizes())
    }

    if roots is None:
        keep = validated
        node_keys = sorted(sizes, key=lambda k: (order[k[0]], k[1]))
    else:
        root_set = set()
        for period, community in roots:
            if (period, community) not in sizes:
                raise InputError(
                    f"root community {community} not present in period {period!r}"
                )
            root_set.add((period, community))
        reach = set(root_set)
        for link in sorted(
            validated, key=lambda l: (order[l.period_from], l.community_from, l.community_to)
        ):
            if (link.period_from, link.community_from) in reach:
                reach.add((link.period_to, link.community_to))
        if config.direction_filter == DIRECTION_FORWARD:
            keep = [
                link
                for link in validated
                if (link.period_from, link.community_from) in reach
            ]
            node_keys = sorted(reach, key=lambda k: (order[k[0]], k[1]))
        else:
            keep = [
                link
                for link in validated
                if (link.period_from, link.community_from) in reach
                or (link.period_to, link.community_to) in reach
            ]
            shown = set(reach)
            for link in keep:
                shown.add((link.period_from, link.community_from))
                shown.add((link.period_to, link.community_to))
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


def _dot_export(graph: EvolutionGraph) -> str:
    lines = ["digraph evolution {", "  rankdir=LR;"]
    for node in graph.nodes:
        width = 0.3 + 0.15 * node.log_size
        lines.append(
            f'  "{node.name}" [label="{node.name}", size={node.log_size:.6f}, '
            f"width={width:.4f}];"
        )
    for edge in graph.edges:
        src = f"{edge.community_from}_{edge.period_from}"
        dst = f"{edge.community_to}_{edge.period_to}"
        lines.append(f'  "{src}" -> "{dst}" [p_value="{edge.p_value:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_export(graph: EvolutionGraph) -> str:
    payload = {
        "p_threshold": graph.p_threshold,
        "nodes": [
            {"period": n.period, "community": n.community, "size": n.size}
            for n in graph.nodes
        ],
        "edges": [
            {
                "period_from": e.period_from,
                "community_from": e.community_from,
                "period_to": e.period_to,
                "community_to": e.community_to,
                "overlap": e.overlap,
                "p_value": e.p_value,
            }
            for e in graph.edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_evolution(graph: EvolutionGraph, fmt: str) -> str:
    """Serialize to DOT (node size attribute = log community size) or JSON."""
    if not graph.nodes:
        raise InputError("cannot export an empty evolution graph")
    fmt = fmt.lower()
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


_VALIDATED = {"true": True, "false": False}


def read_link_table(path) -> list[TemporalLink]:
    """Read a link table; InputError with file:line on a malformed row."""
    links = []
    for lineno, cells in read_rows(path, header=True):
        if len(cells) != 7:
            raise InputError(f"{path}:{lineno}: expected 7 fields, got {len(cells)}")
        try:
            links.append(
                TemporalLink(
                    period_from=cells[0],
                    community_from=int(cells[1]),
                    period_to=cells[2],
                    community_to=int(cells[3]),
                    overlap=int(cells[4]),
                    p_value=float(cells[5]),
                    validated=_VALIDATED[cells[6]],
                )
            )
        except (ValueError, KeyError) as exc:
            raise InputError(f"{path}:{lineno}: bad value: {exc}") from None
    return links
