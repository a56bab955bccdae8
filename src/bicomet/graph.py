"""Unweighted bipartite graphs: construction, file ingestion and degrees.

Node identifiers are opaque strings.  Each side receives a dense integer
index in first-appearance order (explicitly declared nodes first, then edge
endpoints as encountered), which keeps every downstream computation
reproducible across runs and machines.  Every graph is built from index
arrays by ``BipartiteGraph.from_indices``; the string constructor and the
edge-list loader only turn identifiers into those indices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress, count
from pathlib import Path

import numpy as np

from .errors import InputError, _RowError
from .table import gather, read_column_chunks, read_columns, read_rows, write_rows

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
        "_id_rank",
    )

    def __init__(self, edges, red_nodes=(), blue_nodes=()):
        pairs = [(str(r), str(b)) for r, b in edges]
        ids = list(map(list, zip(*pairs))) if pairs else [[], []]
        self._build(
            *_index_edges(
                lambda: [(range(len(pairs)), ids)],
                list(map(str, red_nodes)),
                list(map(str, blue_nodes)),
            )
        )

    @classmethod
    def from_indices(cls, red_nodes, blue_nodes, edge_red, edge_blue):
        """Graph over the given node ids, edge i joining red node
        ``edge_red[i]`` to blue node ``edge_blue[i]``.

        Node ids must be non-empty, unique on each side and on one side only;
        the index arrays must be of equal length and in range.  Duplicate
        edges are collapsed and counted; edges come out sorted by (red, blue).
        """
        graph = cls.__new__(cls)
        graph._build(red_nodes, blue_nodes, edge_red, edge_blue)
        return graph

    def _build(self, red_nodes, blue_nodes, edge_red, edge_blue):
        red_nodes = tuple(map(str, red_nodes))
        blue_nodes = tuple(map(str, blue_nodes))
        _check_nodes(red_nodes, blue_nodes)
        n_red, n_blue = len(red_nodes), len(blue_nodes)
        edge_red = _index_array(edge_red, RED, n_red)
        edge_blue = _index_array(edge_blue, BLUE, n_blue)
        if edge_red.size != edge_blue.size:
            raise InputError(
                f"edge index arrays differ in length: {edge_red.size} red, "
                f"{edge_blue.size} blue"
            )
        if not n_red and not n_blue:
            raise InputError("empty graph: no nodes and no edges")

        # sorted unique keys red * n_blue + blue: (red, blue) order, no duplicates
        keys = np.sort(edge_red * n_blue + edge_blue)
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        dropped = keys.size - int(fresh.sum())
        keys = keys[fresh]
        edge_red, edge_blue = np.divmod(keys, max(n_blue, 1))
        red_deg = np.bincount(edge_red, minlength=n_red).astype(np.int64)
        blue_deg = np.bincount(edge_blue, minlength=n_blue).astype(np.int64)
        for a in (edge_red, edge_blue, red_deg, blue_deg):
            a.setflags(write=False)

        self.red_nodes = red_nodes
        self.blue_nodes = blue_nodes
        self.edge_red = edge_red
        self.edge_blue = edge_blue
        self.red_degrees = red_deg
        self.blue_degrees = blue_deg
        self.duplicates_dropped = dropped
        self._id_rank = None

    @property
    def n_red(self) -> int:
        return len(self.red_nodes)

    @property
    def n_blue(self) -> int:
        return len(self.blue_nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_red)

    @property
    def id_rank(self) -> np.ndarray:
        """``rank_by_id`` of the red then the blue nodes, computed on first use."""
        if self._id_rank is None:
            self._id_rank = rank_by_id(self.red_nodes + self.blue_nodes)
        return self._id_rank

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

    def __setstate__(self, state):
        # pickled as (None, slots); unpickled arrays come back writeable
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            setattr(self, name, value)


def rank_by_id(nodes) -> np.ndarray:
    """Rank of every node of ``nodes`` by node id (read-only int64)."""
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[sorted(range(len(nodes)), key=nodes.__getitem__)] = np.arange(len(nodes))
    rank.setflags(write=False)
    return rank


def _first_bad_node(nodes, side):
    """The message for the first empty or repeated id among one side's
    declared ``nodes``, or None when there is none."""
    if "" not in nodes and len(set(nodes)) == len(nodes):
        return None
    seen = set()
    for node in nodes:
        if not node:
            return "empty node identifier"
        if node in seen:
            return f"node {node!r} declared twice on side {side}"
        seen.add(node)


def _check_nodes(red_nodes, blue_nodes) -> None:
    for nodes, side in ((red_nodes, RED), (blue_nodes, BLUE)):
        bad = _first_bad_node(nodes, side)
        if bad:
            raise InputError(bad)
    both = set(red_nodes).intersection(blue_nodes)
    if both:
        raise InputError(f"identifier(s) on both sides: {sorted(both)[:5]}")


def _index_array(values, side: str, n_nodes: int) -> np.ndarray:
    """One side's edge indices as int64, checked to lie in [0, n_nodes)."""
    values = np.asarray(values)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    if values.ndim != 1 or not np.issubdtype(values.dtype, np.integer):
        raise InputError(f"{side} edge indices must be a 1-d integer array")
    values = values.astype(np.int64, copy=False)
    outside = (values < 0) | (values >= n_nodes)
    if outside.any():
        raise InputError(
            f"{side} edge index {values[outside][0]} outside [0, {n_nodes})"
        )
    return values


class _Numbering(dict):
    """Node id -> index, an id it lacks given the next index when looked up."""

    def __missing__(self, node):
        self[node] = index = len(self)
        return index


def _index_edges(read, red_declared, blue_declared):
    """Node tuples and edge index arrays for ``from_indices`` of an edge list,
    declared ids first and every other id in first-appearance order.

    ``read()`` yields the edge list chunk by chunk as (keys, (red ids, blue
    ids)); only the index arrays of a chunk are kept.  Declared ids are
    checked as by ``from_indices``.  When an id is empty, or met on both
    sides, ``read()`` is read again and _RowError raised at the key of the
    first edge holding one, with each edge's red id read before its blue id
    and declared ids before every edge.
    """
    _check_nodes(red_declared, blue_declared)
    red = _Numbering(zip(red_declared, count()))
    blue = _Numbering(zip(blue_declared, count()))
    edge_red, edge_blue = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for _, (red_ids, blue_ids) in read():
        edge_red.append(np.fromiter(map(red.__getitem__, red_ids), np.int64, len(red_ids)))
        edge_blue.append(np.fromiter(map(blue.__getitem__, blue_ids), np.int64, len(blue_ids)))
    if "" in red or "" in blue or not red.keys().isdisjoint(blue):
        # the first faulty id, read in the order the docstring gives
        seen = (set(red_declared), set(blue_declared))
        for keys, ids in read():
            for key, pair in zip(keys, zip(*ids)):
                for side, node in enumerate(pair):
                    if not node:
                        raise _RowError(key, "empty node identifier in edge")
                    if node in seen[1 - side]:
                        raise _RowError(key, f"identifier {node!r} appears on both sides")
                    seen[side].add(node)
    return tuple(red), tuple(blue), np.concatenate(edge_red), np.concatenate(edge_blue)


def load_node_list(path):
    """Read a `node_id,side` file; returns (red_ids, blue_ids) in file order.

    Raises InputError at ``path:line`` on a row with an unknown side, an
    empty id, an id declared twice on one side or on both sides.
    """
    lines, (nodes, sides) = read_columns(path, 2)
    sides = list(map(str.lower, sides))
    is_red = np.fromiter(map(RED.__eq__, sides), bool, len(sides))
    is_blue = np.fromiter(map(BLUE.__eq__, sides), bool, len(sides))
    red, blue = list(compress(nodes, is_red)), list(compress(nodes, is_blue))
    if not (is_red | is_blue).all() or "" in nodes or len(set(nodes)) < len(nodes):
        # the first faulty row, its faults checked in the order a row is read
        seen = {RED: set(), BLUE: set()}
        for line, node, side in zip(lines.tolist(), nodes, sides):
            if side not in seen:
                raise InputError(f"{path}:{line}: unknown side {side!r}")
            if not node:
                raise InputError(f"{path}:{line}: empty node identifier")
            if node in seen[side]:
                raise InputError(
                    f"{path}:{line}: node {node!r} declared twice on side {side}"
                )
            if node in seen[BLUE if side == RED else RED]:
                both = sorted(set(red).intersection(blue))[:5]
                raise InputError(f"{path}:{line}: identifier(s) on both sides: {both}")
            seen[side].add(node)
    return red, blue


def load_edge_list(path, node_list_path=None) -> BipartiteGraph:
    """Build a graph from a `red_id,blue_id` edge file.

    An optional node-list file (`node_id,side`) declares node ordering and
    isolated nodes.  Duplicate edges are collapsed; the count is logged and
    stored on the graph.  Raises InputError at ``file:line`` on malformed
    rows and identifiers appearing on both sides, and on a graph with no
    nodes at all.
    """
    red_nodes: list[str] = []
    blue_nodes: list[str] = []
    if node_list_path is not None:
        red_nodes, blue_nodes = load_node_list(node_list_path)

    try:
        indexed = _index_edges(lambda: read_column_chunks(path, 2), red_nodes, blue_nodes)
    except _RowError as exc:  # keyed by line
        raise InputError(f"{path}:{exc.row}: {exc}") from exc
    if not indexed[2].size and not red_nodes and not blue_nodes:
        raise InputError(f"empty graph: {path} has no edges and no declared nodes")
    graph = BipartiteGraph.from_indices(*indexed)
    if graph.duplicates_dropped:
        logger.info(
            "%s: dropped %d duplicate edge(s)", path, graph.duplicates_dropped
        )
    return graph


def write_edge_list(graph: BipartiteGraph, path) -> None:
    write_rows(
        path,
        None,
        zip(gather(graph.red_nodes, graph.edge_red), gather(graph.blue_nodes, graph.edge_blue)),
    )


def write_node_list(graph: BipartiteGraph, path) -> None:
    sides = [RED] * graph.n_red + [BLUE] * graph.n_blue
    write_rows(path, None, zip(graph.red_nodes + graph.blue_nodes, sides))


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

    Relative paths resolve against the manifest's directory.  A first
    non-blank row whose first cell is "period", in any case, is a header.
    Every row is checked before any edge file is read: a row of another
    width, an empty period label, a label not above the one before it, or
    a file name that holds a NUL byte or names no file raises InputError at
    ``manifest:line``, and so does a period whose edge list holds no edge.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    rows = list(read_rows(manifest_path, header=("period",)))
    if not rows:
        raise InputError(f"empty manifest: {manifest_path}")
    previous = None
    for lineno, cells in rows:
        if len(cells) not in (2, 3):
            raise InputError(
                f"{manifest_path}:{lineno}: expected 2 or 3 fields, got {len(cells)}"
            )
        label = cells[0]
        if not label:
            raise InputError(f"{manifest_path}:{lineno}: empty period label")
        if previous is not None and not previous < label:
            raise InputError(
                f"{manifest_path}:{lineno}: period labels must be strictly "
                f"increasing: {previous!r} >= {label!r}"
            )
        previous = label
        # the edges cell, and the nodes cell unless it is blank
        for cell in cells[1:2] + list(filter(None, cells[2:])):
            if "\0" in cell:
                raise InputError(f"{manifest_path}:{lineno}: file name holds a NUL byte")
            if not (base / cell).is_file():
                raise InputError(f"{manifest_path}:{lineno}: no file {str(base / cell)!r}")
    periods = []
    for lineno, cells in rows:
        nodes_path = base / cells[2] if len(cells) == 3 and cells[2] else None
        graph = load_edge_list(base / cells[1], node_list_path=nodes_path)
        if not graph.n_edges:
            raise InputError(f"{manifest_path}:{lineno}: {base / cells[1]} holds no edge")
        periods.append((cells[0], graph))
    return PeriodGraphSeries(tuple(periods))


def write_period_series(series: PeriodGraphSeries, outdir) -> Path:
    """Write every period's edge and node lists, and a manifest naming them,
    into ``outdir`` (created when missing); returns the manifest path, from
    which ``load_period_series`` reads the same series back."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, graph in series:
        edges, nodes = f"edges_{label}.csv", f"nodes_{label}.csv"
        write_edge_list(graph, outdir / edges)
        write_node_list(graph, outdir / nodes)
        rows.append([label, edges, nodes])
    manifest = outdir / "manifest.csv"
    write_rows(manifest, ["period", "edges", "nodes"], rows)
    return manifest
