"""Unweighted bipartite graphs: construction, file ingestion, degrees, density.

Node identifiers are opaque strings.  Each side receives a dense integer
index in first-appearance order (explicitly declared nodes first, then edge
endpoints as encountered), which keeps every downstream computation
reproducible across runs and machines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import InputError
from .table import read_rows, write_rows

logger = logging.getLogger(__name__)

RED = "red"
BLUE = "blue"


class BipartiteGraph:
    """Immutable unweighted bipartite graph over two disjoint node sets.

    Edges are unique (red, blue) pairs; duplicates supplied to the
    constructor are collapsed and counted in ``duplicates_dropped``.
    Declared nodes that never appear in an edge are retained with degree 0.
    """

    __slots__ = (
        "red_nodes",
        "blue_nodes",
        "edge_red",
        "edge_blue",
        "red_degrees",
        "blue_degrees",
        "duplicates_dropped",
    )

    def __init__(self, edges, red_nodes=(), blue_nodes=()):
        red_index: dict[str, int] = {}
        blue_index: dict[str, int] = {}
        red_order: list[str] = []
        blue_order: list[str] = []

        def declare(node, index, order, side):
            node = str(node)
            if not node:
                raise InputError("empty node identifier")
            if node in index:
                raise InputError(f"node {node!r} declared twice on side {side}")
            index[node] = len(order)
            order.append(node)

        for node in red_nodes:
            declare(node, red_index, red_order, RED)
        for node in blue_nodes:
            declare(node, blue_index, blue_order, BLUE)
        both = red_index.keys() & blue_index.keys()
        if both:
            raise InputError(f"identifier(s) on both sides: {sorted(both)[:5]}")

        def intern(node, index, order, other_index):
            node = str(node)
            if not node:
                raise InputError("empty node identifier in edge")
            if node in other_index:
                raise InputError(f"identifier {node!r} appears on both sides")
            i = index.get(node)
            if i is None:
                i = len(order)
                index[node] = i
                order.append(node)
            return i

        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        dropped = 0
        for edge in edges:
            r, b = edge
            key = (
                intern(r, red_index, red_order, blue_index),
                intern(b, blue_index, blue_order, red_index),
            )
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            pairs.append(key)

        if not red_order and not blue_order:
            raise InputError("empty graph: no nodes and no edges")

        pairs.sort()
        arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        edge_red = np.ascontiguousarray(arr[:, 0])
        edge_blue = np.ascontiguousarray(arr[:, 1])
        red_deg = np.bincount(edge_red, minlength=len(red_order)).astype(np.int64)
        blue_deg = np.bincount(edge_blue, minlength=len(blue_order)).astype(np.int64)
        for a in (edge_red, edge_blue, red_deg, blue_deg):
            a.setflags(write=False)

        self.red_nodes = tuple(red_order)
        self.blue_nodes = tuple(blue_order)
        self.edge_red = edge_red
        self.edge_blue = edge_blue
        self.red_degrees = red_deg
        self.blue_degrees = blue_deg
        self.duplicates_dropped = dropped

    @property
    def n_red(self) -> int:
        return len(self.red_nodes)

    @property
    def n_blue(self) -> int:
        return len(self.blue_nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_red)

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as identifier pairs, ordered by internal indices."""
        return [
            (self.red_nodes[r], self.blue_nodes[b])
            for r, b in zip(self.edge_red.tolist(), self.edge_blue.tolist())
        ]

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.red_nodes == other.red_nodes
            and self.blue_nodes == other.blue_nodes
            and np.array_equal(self.edge_red, other.edge_red)
            and np.array_equal(self.edge_blue, other.edge_blue)
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"BipartiteGraph(n_red={self.n_red}, n_blue={self.n_blue}, "
            f"n_edges={self.n_edges})"
        )

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


def density(graph: BipartiteGraph) -> float:
    """Observed links over potential links, m / (n_red * n_blue)."""
    if graph.n_red == 0 or graph.n_blue == 0:
        raise InputError("density undefined: one node set is empty")
    return graph.n_edges / (graph.n_red * graph.n_blue)


def degree_sequences(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node degree arrays (red side, blue side); copies, safe to mutate."""
    return graph.red_degrees.copy(), graph.blue_degrees.copy()


def load_node_list(path, delimiter: str = ",", header: bool = False):
    """Read a `node_id,side` file; returns (red_ids, blue_ids) in file order."""
    red: list[str] = []
    blue: list[str] = []
    for lineno, cells in read_rows(path, delimiter, header):
        if len(cells) != 2:
            raise InputError(f"{path}:{lineno}: expected 2 fields, got {len(cells)}")
        node, side = cells
        side = side.lower()
        if side == RED:
            red.append(node)
        elif side == BLUE:
            blue.append(node)
        else:
            raise InputError(f"{path}:{lineno}: unknown side {side!r}")
    return red, blue


def load_edge_list(
    path,
    delimiter: str = ",",
    header: bool = False,
    node_list_path=None,
) -> BipartiteGraph:
    """Build a graph from a `red_id,blue_id` edge file.

    An optional node-list file (`node_id,side`) declares node ordering and
    isolated nodes.  Duplicate edges are collapsed; the count is logged and
    stored on the graph.  Raises InputError on malformed rows, identifiers
    appearing on both sides, or a graph with no nodes at all.
    """
    red_nodes: list[str] = []
    blue_nodes: list[str] = []
    if node_list_path is not None:
        red_nodes, blue_nodes = load_node_list(node_list_path, delimiter, header)

    edges = []
    for lineno, cells in read_rows(path, delimiter, header):
        if len(cells) != 2:
            raise InputError(f"{path}:{lineno}: expected 2 fields, got {len(cells)}")
        edges.append((cells[0], cells[1]))

    if not edges and not red_nodes and not blue_nodes:
        raise InputError(f"empty graph: {path} has no edges and no declared nodes")

    try:
        graph = BipartiteGraph(edges, red_nodes=red_nodes, blue_nodes=blue_nodes)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if graph.duplicates_dropped:
        logger.info(
            "%s: dropped %d duplicate edge(s)", path, graph.duplicates_dropped
        )
    return graph


def write_edge_list(graph: BipartiteGraph, path) -> None:
    write_rows(path, None, graph.edge_list())


def write_node_list(graph: BipartiteGraph, path) -> None:
    red = zip(graph.red_nodes, repeat(RED))
    blue = zip(graph.blue_nodes, repeat(BLUE))
    write_rows(path, None, chain(red, blue))


def save_graph(graph: BipartiteGraph, edges_path, nodes_path=None) -> None:
    """Serialize a graph; with a node list the round trip is exact (ordering
    and isolated nodes included)."""
    write_edge_list(graph, edges_path)
    if nodes_path is not None:
        write_node_list(graph, nodes_path)


@dataclass(frozen=True)
class PeriodGraphSeries:
    """Ordered sequence of (period label, graph) pairs.

    Labels must be unique and strictly increasing as strings, so numeric
    labels should be zero-padded ("p00", "p01", ...).
    """

    periods: tuple[tuple[str, BipartiteGraph], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.periods]
        for a, b in zip(labels, labels[1:]):
            if not a < b:
                raise InputError(
                    f"period labels must be strictly increasing: {a!r} >= {b!r}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.periods)

    def __len__(self):
        return len(self.periods)

    def __iter__(self):
        return iter(self.periods)

    def __getitem__(self, i):
        return self.periods[i]


def load_period_series(manifest_path) -> PeriodGraphSeries:
    """Load a period series from a manifest of `period,edges[,nodes]` rows.

    Relative paths resolve against the manifest's directory.  A first row
    whose first cell is exactly "period" is treated as a header.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    rows = list(read_rows(manifest_path))
    if rows and rows[0][1][0].lower() == "period":
        rows = rows[1:]
    if not rows:
        raise InputError(f"empty manifest: {manifest_path}")
    periods = []
    for lineno, cells in rows:
        if len(cells) not in (2, 3):
            raise InputError(
                f"{manifest_path}:{lineno}: expected 2 or 3 fields, got {len(cells)}"
            )
        label = cells[0]
        edges_path = base / cells[1]
        nodes_path = base / cells[2] if len(cells) == 3 and cells[2] else None
        graph = load_edge_list(edges_path, node_list_path=nodes_path)
        periods.append((label, graph))
    return PeriodGraphSeries(tuple(periods))
