"""Synthetic bipartite networks and attribute catalogs with planted truth.

The generator plants communities spanning both node sides, draws each
cross-side edge independently (within-community probability p_in, otherwise
p_out), and can evolve memberships over periods through random churn and
scripted split/merge events while recording the true lineage.  An exhaustive
modularity maximizer over all set partitions serves as the ground-truth
oracle for small instances.

All randomness flows through counter-based Philox streams keyed by
(master seed, stream kind, period or plan index); see ``seeding``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .brim import Partition
from .enrichment import REPORT_COLUMNS, AttributeCatalog, write_attribute_catalog
from .errors import InputError
from .graph import BLUE, RED, BipartiteGraph, PeriodGraphSeries, write_period_series
from .seeding import (
    STREAM_SYNTH_CATALOG,
    STREAM_SYNTH_CHURN,
    STREAM_SYNTH_EDGES,
    STREAM_SYNTH_EVENTS,
    generator,
)
from .table import int_cells, write_rows

ENUMERATION_CAP = 12


@dataclass(frozen=True)
class PlantedModel:
    """Planted-partition model: per-community (red, blue) sizes and the
    within/between edge probabilities."""

    communities: tuple[tuple[int, int], ...]
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "communities",
            tuple((int(r), int(b)) for r, b in self.communities),
        )
        if not self.communities:
            raise InputError("need at least one planted community")
        for r, b in self.communities:
            if r < 1 or b < 1:
                raise InputError(f"community sizes must be >= 1, got ({r}, {b})")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise InputError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )

    @property
    def n_red(self) -> int:
        return sum(r for r, _ in self.communities)

    @property
    def n_blue(self) -> int:
        return sum(b for _, b in self.communities)


@dataclass(frozen=True)
class SplitEvent:
    """At ``period``, a chosen fraction of a community's members (per side)
    moves to a brand-new community."""

    period: int
    community: int
    fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise InputError(f"split fraction must be in (0, 1), got {self.fraction}")


@dataclass(frozen=True)
class MergeEvent:
    """At ``period``, all members of ``source`` join ``target``."""

    period: int
    source: int
    target: int

    def __post_init__(self):
        if self.source == self.target:
            raise InputError("merge source and target must differ")


@dataclass(frozen=True)
class AttributePlant:
    """Plant ``value`` of ``category`` on a community at the given penetration."""

    category: str
    value: str
    community: int
    penetration: float

    def __post_init__(self):
        if not 0.0 <= self.penetration <= 1.0:
            raise InputError(f"penetration must be in [0, 1], got {self.penetration}")


@dataclass(frozen=True)
class CategoryPlan:
    """Background pool of values for one attribute category on one node side."""

    name: str
    side: str
    values: tuple[str, ...]

    def __post_init__(self):
        if self.side not in (RED, BLUE):
            raise InputError(f"side must be {RED!r} or {BLUE!r}, got {self.side!r}")
        if not self.values:
            raise InputError(f"category {self.name!r} needs at least one value")


@dataclass(frozen=True)
class TemporalScript:
    """Multi-period evolution: membership churn rate, split/merge events,
    and attribute plants applied when generating catalogs."""

    periods: int
    churn: float = 0.0
    events: tuple = ()
    plants: tuple[AttributePlant, ...] = ()

    def __post_init__(self):
        if self.periods < 1:
            raise InputError(f"periods must be >= 1, got {self.periods}")
        if not 0.0 <= self.churn < 1.0:
            raise InputError(f"churn must be in [0, 1), got {self.churn}")
        for event in self.events:
            if not isinstance(event, (SplitEvent, MergeEvent)):
                raise InputError(f"unknown event type: {event!r}")
            if not 1 <= event.period < self.periods:
                raise InputError(
                    f"event period {event.period} outside [1, {self.periods})"
                )


class LineageEdge(NamedTuple):
    """True parent-child relation between communities of consecutive periods."""

    period_from: str
    community_from: int
    period_to: str
    community_to: int


def _node_names(prefix: str, count: int) -> tuple[str, ...]:
    width = max(2, len(str(max(count - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def _bernoulli_hits(cells: int, p: float, rng) -> np.ndarray:
    """The sorted int64 positions of the hits among ``cells`` independent
    Bernoulli(p) cells, in work and memory that grow with the hits alone.

    The gaps between hits are geometric: the misses before a hit are
    floor(log(V) / log(1 - p)) for V uniform on (0, 1].  Each batch of gaps
    is sized from the hits still expected, and cumsummed on from the last
    hit until one lands past the end.
    """
    if cells == 0 or p <= 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1:
        return np.arange(cells, dtype=np.int64)
    log_miss = math.log1p(-p)
    parts, last = [], -1
    while last < cells:
        expected = (cells - last) * p
        gaps = rng.random(int(expected + 4 * math.sqrt(expected)) + 16)
        np.negative(gaps, out=gaps)
        np.log1p(gaps, out=gaps)
        gaps /= log_miss
        np.floor(gaps, out=gaps)
        # a gap past the end is clipped, so no sum overflows
        np.minimum(gaps, cells, out=gaps)
        hits = gaps.astype(np.int64)
        hits += 1
        np.cumsum(hits, out=hits)
        hits += last
        last = int(hits[-1])
        parts.append(hits[: np.searchsorted(hits, cells)])
    return np.concatenate(parts)


def _community_members(membership, alive) -> list[np.ndarray]:
    """The nodes of each community of the sorted ``alive`` on one side, in
    node order; empty for a community with no member on that side."""
    order = np.argsort(membership, kind="stable")
    return np.split(order, np.searchsorted(membership[order], alive[1:]))


def _draw_edges(model, red_membership, blue_membership, rng) -> BipartiteGraph:
    """One period's graph: each (red, blue) cell an independent draw, at
    p_in when both ends share a community and at p_out otherwise.

    One sample at p_out runs over all cells, of which the hits across
    communities are kept; then each alive community, in ascending id, draws
    its own block of members at p_in.  Every cell is drawn once, and no
    array of n_red x n_blue cells is made.
    """
    n_blue = len(blue_membership)
    red, blue = np.divmod(
        _bernoulli_hits(len(red_membership) * n_blue, model.p_out, rng), max(n_blue, 1)
    )
    across = red_membership[red] != blue_membership[blue]
    reds, blues = [red[across]], [blue[across]]
    alive = np.union1d(red_membership, blue_membership)
    for red_members, blue_members in zip(
        _community_members(red_membership, alive), _community_members(blue_membership, alive)
    ):
        red, blue = np.divmod(
            _bernoulli_hits(red_members.size * blue_members.size, model.p_in, rng),
            max(blue_members.size, 1),
        )
        reds.append(red_members[red])
        blues.append(blue_members[blue])
    return BipartiteGraph.from_indices(
        _node_names("r", len(red_membership)),
        _node_names("b", n_blue),
        np.concatenate(reds),
        np.concatenate(blues),
    )


def _planted_memberships(model) -> tuple[np.ndarray, np.ndarray]:
    sizes = np.array(model.communities).T
    ids = np.arange(sizes.shape[1])
    return np.repeat(ids, sizes[0]), np.repeat(ids, sizes[1])


def _apply_churn(red_m, blue_m, churn, rng):
    """New memberships in which each node has moved, with probability
    ``churn``, to a uniformly random other alive community."""
    alive = np.union1d(red_m, blue_m)
    if churn <= 0 or len(alive) < 2:
        return red_m, blue_m
    out = []
    for side in (red_m, blue_m):
        side = side.copy()
        idx = np.flatnonzero(rng.random(len(side)) < churn)
        # uniform over the other alive communities: draw an offset in
        # [1, n_alive) and rotate from the node's current community
        offsets = rng.integers(1, len(alive), size=len(idx))
        side[idx] = alive[(np.searchsorted(alive, side[idx]) + offsets) % len(alive)]
        out.append(side)
    return tuple(out)


def _apply_event(red_m, blue_m, event, next_id, rng) -> tuple[int, int]:
    """Apply a split (to the new community ``next_id``) or a merge to the
    memberships in place; returns the lineage move (from, to) in stable ids."""
    alive = np.union1d(red_m, blue_m)
    if isinstance(event, MergeEvent):
        for role, community in (("source", event.source), ("target", event.target)):
            if community not in alive:
                raise InputError(f"merge at period {event.period}: {role} {community} not alive")
        for side in (red_m, blue_m):
            side[side == event.source] = event.target
        return event.source, event.target
    if event.community not in alive:
        raise InputError(f"split at period {event.period}: community {event.community} not alive")
    members = [np.flatnonzero(side == event.community) for side in (red_m, blue_m)]
    moves = [int(round(event.fraction * len(m))) for m in members]
    if not any(moves):
        raise InputError(
            f"split at period {event.period}: fraction {event.fraction} of community "
            f"{event.community} ({len(members[0])} red, {len(members[1])} blue "
            f"members) moves no node"
        )
    for side, side_members, n_move in zip((red_m, blue_m), members, moves):
        if n_move:
            side[np.sort(rng.choice(side_members, size=n_move, replace=False))] = next_id
    return event.community, next_id


def generate_sequence(
    model: PlantedModel, script: TemporalScript
) -> tuple[PeriodGraphSeries, tuple[Partition, ...], tuple[LineageEdge, ...]]:
    """Evolve the planted communities over ``script.periods`` periods.

    Memberships persist by default; churn relocates nodes to a uniformly
    random other community and scripted events split or merge communities.
    Edges are redrawn each period.  Returns the per-period graphs, the true
    partitions (labels compacted per period), and the true lineage edges in
    those per-period label spaces: a community alive in consecutive periods
    links to itself, and every event links its source to its result.
    """
    labels = _node_names("p", script.periods)
    red_m, blue_m = _planted_memberships(model)
    next_id = len(model.communities)
    periods, truths, lineage = [], [], []
    for t, label in enumerate(labels):
        moves = []
        if t > 0:
            red_m, blue_m = _apply_churn(
                red_m, blue_m, script.churn, generator(model.seed, STREAM_SYNTH_CHURN, t)
            )
            rng_events = generator(model.seed, STREAM_SYNTH_EVENTS, t)
            for event in script.events:
                if event.period == t:
                    moves.append(_apply_event(red_m, blue_m, event, next_id, rng_events))
                    next_id += isinstance(event, SplitEvent)
        alive = np.union1d(red_m, blue_m)
        graph = _draw_edges(model, red_m, blue_m, generator(model.seed, STREAM_SYNTH_EDGES, t))
        periods.append((label, graph))
        truths.append(Partition(
            graph.red_nodes, graph.blue_nodes,
            np.searchsorted(alive, red_m), np.searchsorted(alive, blue_m), len(alive),
        ))
        # stable community id -> label in this period
        now = {stable: i for i, stable in enumerate(alive.tolist())}
        if t > 0:
            pairs = {
                (prev[a], now[b])
                for a, b in [*((s, s) for s in now), *moves]
                if a in prev and b in now
            }
            lineage += [LineageEdge(labels[t - 1], i, label, j) for i, j in sorted(pairs)]
        prev = now
    return PeriodGraphSeries(tuple(periods)), tuple(truths), tuple(lineage)


def generate_graph(model: PlantedModel) -> tuple[BipartiteGraph, Partition]:
    """One graph drawn from the planted model, plus its true partition: period
    0 of a one-period sequence."""
    series, truths, _ = generate_sequence(model, TemporalScript(periods=1))
    return series[0][1], truths[0]


def check_plans(plans: Sequence[CategoryPlan]) -> None:
    """InputError unless the plans name distinct categories, none of them a
    fixed column of the enrichment report."""
    seen = set()
    for plan in plans:
        if plan.name in REPORT_COLUMNS:
            raise InputError(f"category {plan.name!r} names a column of the report")
        if plan.name in seen:
            raise InputError(f"category {plan.name!r} planned twice")
        seen.add(plan.name)


def check_plants(
    plants: Sequence[AttributePlant], plans: Sequence[CategoryPlan], n_communities: int
) -> None:
    """InputError unless every plant names a planned category and a community
    below ``n_communities``."""
    plan_names = {plan.name for plan in plans}
    for plant in plants:
        if plant.category not in plan_names:
            raise InputError(f"plant references unknown category {plant.category!r}")
        if not 0 <= plant.community < n_communities:
            raise InputError(
                f"plant references missing community {plant.community}"
            )


def generate_catalog(
    partition: Partition,
    plans: Sequence[CategoryPlan],
    seed: int = 0,
    plants: Sequence[AttributePlant] = (),
) -> AttributeCatalog:
    """Attributes for a partition's nodes: uniform background values per
    category, then planted values injected at the requested penetration."""
    check_plans(plans)
    check_plants(plants, plans, partition.n_communities)
    rows = []
    for index, plan in enumerate(plans):
        if plan.side == RED:
            nodes = partition.red_nodes
            node_labels = partition.red_labels
        else:
            nodes = partition.blue_nodes
            node_labels = partition.blue_labels
        rng = generator(seed, STREAM_SYNTH_CATALOG, index)
        pool = list(plan.values)
        assigned = [pool[i] for i in rng.integers(0, len(pool), size=len(nodes))]
        for plant in plants:
            if plant.category != plan.name:
                continue
            member_idx = np.flatnonzero(node_labels == plant.community)
            mask = rng.random(member_idx.size) < plant.penetration
            for i in member_idx[mask].tolist():
                assigned[i] = plant.value
        rows.extend(
            (node, plan.name, value) for node, value in zip(nodes, assigned)
        )
    return AttributeCatalog(rows)


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted-growth label tuples."""
    if n == 0:
        yield ()
        return
    labels = [0] * n
    while True:
        yield tuple(labels)
        # successor in restricted-growth order: bump the rightmost position
        # that can grow, reset everything after it to 0
        i = n - 1
        while i > 0:
            prefix_max = max(labels[:i])
            if labels[i] <= prefix_max:
                break
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        for j in range(i + 1, n):
            labels[j] = 0


def _partition_chunks(n: int) -> Iterator[np.ndarray]:
    partitions = set_partitions(n)
    while chunk := list(islice(partitions, 16384)):
        yield np.asarray(chunk, dtype=np.int64)


def exhaustive_modularity_oracle(graph: BipartiteGraph) -> tuple[float, Partition]:
    """Maximum bipartite modularity over all set partitions of the nodes.

    Enumerates every partition of at most ``ENUMERATION_CAP`` nodes (Bell-number
    growth) with exact integer scoring, so any heuristic's Q on the same graph
    is comparable to the returned optimum without tolerance.
    """
    n = graph.n_red + graph.n_blue
    if n > ENUMERATION_CAP:
        raise InputError(f"{n} nodes exceed the enumeration cap of {ENUMERATION_CAP}")
    if graph.n_edges == 0:
        raise InputError("modularity undefined for a graph with no edges")
    m = graph.n_edges
    edge_u = graph.edge_red
    edge_v = graph.edge_blue + graph.n_red
    degrees = np.concatenate([graph.red_degrees, graph.blue_degrees])
    red_slice = slice(0, graph.n_red)
    blue_slice = slice(graph.n_red, n)

    best_num = None
    best_labels = None
    for chunk in _partition_chunks(n):
        c = int(chunk.max()) + 1
        onehot = np.zeros((chunk.shape[0], n, c), dtype=np.int64)
        rows = np.arange(chunk.shape[0])[:, None]
        cols = np.arange(n)[None, :]
        onehot[rows, cols, chunk] = 1
        red_mass = np.einsum(
            "pnc,n->pc", onehot[:, red_slice, :], degrees[red_slice]
        )
        blue_mass = np.einsum(
            "pnc,n->pc", onehot[:, blue_slice, :], degrees[blue_slice]
        )
        null = np.einsum("pc,pc->p", red_mass, blue_mass)
        within = np.count_nonzero(
            chunk[:, edge_u] == chunk[:, edge_v], axis=1
        ).astype(np.int64)
        nums = within * m - null
        arg = int(np.argmax(nums))
        if best_num is None or nums[arg] > best_num:
            best_num = int(nums[arg])
            best_labels = chunk[arg]
    partition = Partition.from_arrays(
        graph.red_nodes,
        graph.blue_nodes,
        best_labels[: graph.n_red],
        best_labels[graph.n_red :],
    )
    return best_num / (m * m), partition


def write_ground_truth(truths, labels, path) -> None:
    """CSV `node_id,period,true_community` for every period."""
    nodes, periods, communities = [], [], []
    for label, truth in zip(labels, truths):
        nodes += truth.nodes
        periods += [label] * len(truth.nodes)
        communities += int_cells(truth.labels)
    write_rows(path, ["node_id", "period", "true_community"], zip(nodes, periods, communities))


def write_lineage(lineage: Sequence[LineageEdge], path) -> None:
    write_rows(path, LineageEdge._fields, lineage)


def write_synthetic_dataset(
    outdir,
    series: PeriodGraphSeries,
    truths: Sequence[Partition],
    lineage: Sequence[LineageEdge],
    catalog: AttributeCatalog | None = None,
) -> Path:
    """Write a complete loadable dataset; returns the manifest path.

    Emits the period series (edge and node lists and a manifest), ground
    truth and lineage CSVs, and the attribute catalog when given; without
    one, an ``attributes.csv`` left by an earlier dataset is deleted.
    """
    outdir = Path(outdir)
    manifest = write_period_series(series, outdir)
    write_ground_truth(truths, series.labels, outdir / "ground_truth.csv")
    write_lineage(lineage, outdir / "lineage.csv")
    if catalog is None:
        (outdir / "attributes.csv").unlink(missing_ok=True)
    else:
        write_attribute_catalog(catalog, outdir / "attributes.csv")
    return manifest
