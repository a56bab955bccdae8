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

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .brim import Partition
from .enrichment import AttributeCatalog
from .errors import InputError
from .graph import BLUE, RED, BipartiteGraph, PeriodGraphSeries, save_graph
from .seeding import (
    STREAM_SYNTH_CATALOG,
    STREAM_SYNTH_CHURN,
    STREAM_SYNTH_EDGES,
    STREAM_SYNTH_EVENTS,
    generator,
)
from .table import write_rows

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


@dataclass(frozen=True)
class LineageEdge:
    """True parent-child relation between communities of consecutive periods."""

    period_from: str
    community_from: int
    period_to: str
    community_to: int


def _node_names(prefix: str, count: int) -> tuple[str, ...]:
    width = max(2, len(str(max(count - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def _draw_edges(model, red_membership, blue_membership, rng) -> BipartiteGraph:
    same = red_membership[:, None] == blue_membership[None, :]
    probs = np.where(same, model.p_in, model.p_out)
    hits = rng.random(probs.shape) < probs
    red_names = _node_names("r", len(red_membership))
    blue_names = _node_names("b", len(blue_membership))
    ri, bi = np.nonzero(hits)
    edges = [(red_names[r], blue_names[b]) for r, b in zip(ri.tolist(), bi.tolist())]
    return BipartiteGraph(edges, red_nodes=red_names, blue_nodes=blue_names)


def _planted_memberships(model) -> tuple[np.ndarray, np.ndarray]:
    red = np.repeat(
        np.arange(len(model.communities)), [r for r, _ in model.communities]
    )
    blue = np.repeat(
        np.arange(len(model.communities)), [b for _, b in model.communities]
    )
    return red.astype(np.int64), blue.astype(np.int64)


def generate_graph(model: PlantedModel) -> tuple[BipartiteGraph, Partition]:
    """One graph drawn from the planted model, plus its true partition."""
    red_m, blue_m = _planted_memberships(model)
    rng = generator(model.seed, STREAM_SYNTH_EDGES, 0)
    graph = _draw_edges(model, red_m, blue_m, rng)
    truth = Partition.from_arrays(
        graph.red_nodes, graph.blue_nodes, red_m, blue_m, len(model.communities)
    )
    return graph, truth


def _period_labels(periods: int) -> list[str]:
    width = max(2, len(str(periods - 1)))
    return [f"p{t:0{width}d}" for t in range(periods)]


def _apply_churn(memberships, churn, alive, rng):
    red_m, blue_m = memberships
    if churn <= 0 or len(alive) < 2:
        return red_m, blue_m
    alive_arr = np.asarray(sorted(alive), dtype=np.int64)
    out = []
    for side in (red_m, blue_m):
        side = side.copy()
        mask = rng.random(len(side)) < churn
        idx = np.nonzero(mask)[0]
        if len(idx):
            # uniform over the other alive communities: draw an offset in
            # [1, n_alive) and rotate from the node's current community
            current_pos = np.searchsorted(alive_arr, side[idx])
            offsets = rng.integers(1, len(alive_arr), size=len(idx))
            side[idx] = alive_arr[(current_pos + offsets) % len(alive_arr)]
        out.append(side)
    return out[0], out[1]


def _apply_split(red_m, blue_m, event, next_id, rng):
    moved_any = False
    for side in (red_m, blue_m):
        members = np.nonzero(side == event.community)[0]
        if len(members) == 0:
            continue
        n_move = int(round(event.fraction * len(members)))
        if n_move == 0:
            continue
        chosen = rng.choice(members, size=n_move, replace=False)
        side[np.sort(chosen)] = next_id
        moved_any = True
    if not moved_any:
        raise InputError(
            f"split at period {event.period}: community {event.community} is empty"
        )


def generate_sequence(
    model: PlantedModel, script: TemporalScript
) -> tuple[PeriodGraphSeries, tuple[Partition, ...], tuple[LineageEdge, ...]]:
    """Evolve the planted communities over ``script.periods`` periods.

    Memberships persist by default; churn relocates nodes to a uniformly
    random other community and scripted events split or merge communities.
    Edges are redrawn each period.  Returns the per-period graphs, the true
    partitions (labels compacted per period), and the true lineage edges in
    those per-period label spaces.
    """
    labels = _period_labels(script.periods)
    red_m, blue_m = _planted_memberships(model)
    next_id = len(model.communities)

    periods = []
    truths = []
    lineage = []
    prev_dense: dict[int, int] = {}
    prev_label = None

    for t, label in enumerate(labels):
        split_targets: list[tuple[int, int]] = []
        merge_moves: list[tuple[int, int]] = []
        if t > 0:
            alive = set(red_m.tolist()) | set(blue_m.tolist())
            rng_churn = generator(model.seed, STREAM_SYNTH_CHURN, t)
            red_m, blue_m = _apply_churn((red_m, blue_m), script.churn, alive, rng_churn)
            rng_events = generator(model.seed, STREAM_SYNTH_EVENTS, t)
            for event in script.events:
                if event.period != t:
                    continue
                current = set(red_m.tolist()) | set(blue_m.tolist())
                if isinstance(event, SplitEvent):
                    if event.community not in current:
                        raise InputError(
                            f"split at period {t}: community {event.community} not alive"
                        )
                    _apply_split(red_m, blue_m, event, next_id, rng_events)
                    split_targets.append((event.community, next_id))
                    next_id += 1
                else:
                    if event.source not in current:
                        raise InputError(
                            f"merge at period {t}: source {event.source} not alive"
                        )
                    if event.target not in current:
                        raise InputError(
                            f"merge at period {t}: target {event.target} not alive"
                        )
                    red_m[red_m == event.source] = event.target
                    blue_m[blue_m == event.source] = event.target
                    merge_moves.append((event.source, event.target))

        alive_now = sorted(set(red_m.tolist()) | set(blue_m.tolist()))
        dense = {stable: i for i, stable in enumerate(alive_now)}
        red_dense = np.asarray([dense[g] for g in red_m.tolist()], dtype=np.int64)
        blue_dense = np.asarray([dense[g] for g in blue_m.tolist()], dtype=np.int64)

        rng_edges = generator(model.seed, STREAM_SYNTH_EDGES, t)
        graph = _draw_edges(model, red_m, blue_m, rng_edges)
        truth = Partition.from_arrays(
            graph.red_nodes, graph.blue_nodes, red_dense, blue_dense, len(alive_now)
        )
        periods.append((label, graph))
        truths.append(truth)

        if t > 0:
            raw_edges = set()
            for stable in alive_now:
                if stable in prev_dense:
                    raw_edges.add((prev_dense[stable], dense[stable]))
            for parent, child in split_targets:
                if parent in prev_dense and child in dense:
                    raw_edges.add((prev_dense[parent], dense[child]))
            for source, target in merge_moves:
                if source in prev_dense and target in dense:
                    raw_edges.add((prev_dense[source], dense[target]))
            for i, j in sorted(raw_edges):
                lineage.append(
                    LineageEdge(
                        period_from=prev_label,
                        community_from=i,
                        period_to=label,
                        community_to=j,
                    )
                )
        prev_dense, prev_label = dense, label

    return PeriodGraphSeries(tuple(periods)), tuple(truths), tuple(lineage)


def generate_catalog(
    partition: Partition,
    plans: Sequence[CategoryPlan],
    seed: int = 0,
    plants: Sequence[AttributePlant] = (),
) -> AttributeCatalog:
    """Attributes for a partition's nodes: uniform background values per
    category, then planted values injected at the requested penetration."""
    plan_names = {plan.name for plan in plans}
    for plant in plants:
        if plant.category not in plan_names:
            raise InputError(f"plant references unknown category {plant.category!r}")
        if not 0 <= plant.community < partition.n_communities:
            raise InputError(
                f"plant references missing community {plant.community}"
            )
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
            member_idx = [
                i for i, g in enumerate(node_labels) if g == plant.community
            ]
            mask = rng.random(len(member_idx)) < plant.penetration
            for i, hit in zip(member_idx, mask.tolist()):
                if hit:
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


def _partition_chunks(n: int, chunk_size: int = 16384) -> Iterator[np.ndarray]:
    chunk = []
    for labels in set_partitions(n):
        chunk.append(labels)
        if len(chunk) >= chunk_size:
            yield np.asarray(chunk, dtype=np.int64)
            chunk = []
    if chunk:
        yield np.asarray(chunk, dtype=np.int64)


def exhaustive_modularity_oracle(
    graph: BipartiteGraph, max_nodes: int = ENUMERATION_CAP
) -> tuple[float, Partition]:
    """Maximum bipartite modularity over all set partitions of the nodes.

    Enumerates every partition (Bell-number growth: capped at ``max_nodes``
    total nodes) with exact integer scoring, so any heuristic's Q on the
    same graph is comparable to the returned optimum without tolerance.
    """
    n = graph.n_red + graph.n_blue
    if n > max_nodes:
        raise InputError(
            f"{n} nodes exceed the enumeration cap of {max_nodes}"
        )
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
            best_labels = tuple(int(x) for x in chunk[arg])
    partition = Partition.from_arrays(
        graph.red_nodes,
        graph.blue_nodes,
        best_labels[: graph.n_red],
        best_labels[graph.n_red :],
    )
    return best_num / (m * m), partition


def write_ground_truth(truths, labels, path) -> None:
    """CSV `node_id,period,true_community` for every period."""
    write_rows(
        path,
        ["node_id", "period", "true_community"],
        (
            (node, label, community)
            for label, truth in zip(labels, truths)
            for node, community in zip(truth.nodes, truth.labels)
        ),
    )


def write_lineage(lineage: Sequence[LineageEdge], path) -> None:
    write_rows(
        path,
        ["period_from", "community_from", "period_to", "community_to"],
        (
            (edge.period_from, edge.community_from, edge.period_to, edge.community_to)
            for edge in lineage
        ),
    )


def write_synthetic_dataset(
    outdir,
    series: PeriodGraphSeries,
    truths: Sequence[Partition],
    lineage: Sequence[LineageEdge],
    catalog: AttributeCatalog | None = None,
) -> Path:
    """Write a complete loadable dataset; returns the manifest path.

    Emits per-period edge and node lists, a manifest, ground truth and
    lineage CSVs, and the attribute catalog when given.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for label, graph in series:
        edges_name = f"edges_{label}.csv"
        nodes_name = f"nodes_{label}.csv"
        save_graph(graph, outdir / edges_name, outdir / nodes_name)
        manifest_rows.append([label, edges_name, nodes_name])
    manifest_path = outdir / "manifest.csv"
    write_rows(manifest_path, ["period", "edges", "nodes"], manifest_rows)
    write_ground_truth(truths, list(series.labels), outdir / "ground_truth.csv")
    write_lineage(lineage, outdir / "lineage.csv")
    if catalog is not None:
        write_rows(
            outdir / "attributes.csv",
            None,
            (
                (node, category, value)
                for category in catalog.categories
                for node, value in sorted(catalog.assignments(category).items())
            ),
        )
    return manifest_path
