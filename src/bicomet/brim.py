"""Bipartite modularity and the alternating argmax community optimizer.

The fitness is Q = (1/m) sum_ij (A_ij - k_i d_j / m) delta(g_i, g_j) over
red-blue pairs, i.e. the within-community edge fraction minus its
expectation under a degree-preserving null model.  Because m * Q has an
integer numerator (m * within - sum_c K_c * D_c over m), everything here is
evaluated in exact integer arithmetic and divided once at the end: Q values
are exactly comparable, Q of the all-in-one partition is exactly 0.0, and
per-sweep monotonicity of the optimizer holds with no floating-point slack.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InputError
from .graph import BLUE, RED, BipartiteGraph
from .seeding import STREAM_BRIM_RUN, derive_seed
from .table import int_cells, read_columns, write_rows

MAX_SWEEPS = 200


class Partition:
    """Assignment of every node of a bipartite graph to a community.

    Labels are integers in [0, n_communities), held in one read-only int64
    array ``labels``, red nodes first; ``red_labels`` and ``blue_labels`` are
    views of it.  Communities may mix node sides.  Empty labels are tolerated
    transiently (mid-optimization); the optimizer renumbers its result to the
    canonical gap-free form.
    """

    __slots__ = ("red_nodes", "blue_nodes", "labels", "n_communities")

    def __init__(self, red_nodes, blue_nodes, red_labels, blue_labels, n_communities):
        self.red_nodes, self.blue_nodes = tuple(red_nodes), tuple(blue_nodes)
        red_labels = np.asarray(red_labels, dtype=np.int64)
        blue_labels = np.asarray(blue_labels, dtype=np.int64)
        if len(self.red_nodes) != red_labels.size:
            raise InputError("red node and label counts differ")
        if len(self.blue_nodes) != blue_labels.size:
            raise InputError("blue node and label counts differ")
        self.n_communities = n = int(n_communities)
        self.labels = np.concatenate((red_labels, blue_labels))
        outside = (self.labels < 0) | (self.labels >= n)
        if outside.any():
            raise InputError(f"label {self.labels[outside][0]} outside [0, {n})")
        self.labels.setflags(write=False)

    @classmethod
    def from_arrays(cls, red_nodes, blue_nodes, red_labels, blue_labels,
                    n_communities=None):
        """As the constructor; ``n_communities`` defaults to the largest label + 1."""
        if n_communities is None:
            n_communities = np.max(np.concatenate((red_labels, blue_labels)), initial=-1) + 1
        return cls(red_nodes, blue_nodes, red_labels, blue_labels, n_communities)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.red_nodes + self.blue_nodes

    @property
    def red_labels(self) -> np.ndarray:
        return self.labels[:len(self.red_nodes)]

    @property
    def blue_labels(self) -> np.ndarray:
        return self.labels[len(self.red_nodes):]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.red_nodes == other.red_nodes
            and self.blue_nodes == other.blue_nodes
            and self.n_communities == other.n_communities
            and np.array_equal(self.labels, other.labels)
        )

    __hash__ = None

    def __reduce__(self):
        # rebuilt through the constructor, so the labels stay read-only
        return Partition, (self.red_nodes, self.blue_nodes, self.red_labels,
                           self.blue_labels, self.n_communities)

    def positions_of(self, nodes) -> np.ndarray:
        """Index in ``self.nodes`` of every node of ``nodes`` (int64), -1 for a
        node this partition does not hold.

        The one alignment of a partition to a node sequence: run agreement,
        temporal overlaps, over-expression and graph alignment count on it.
        """
        nodes, mine = tuple(nodes), self.nodes
        if nodes == mine:
            return np.arange(len(mine), dtype=np.int64)
        index = {node: i for i, node in enumerate(mine)}
        return np.fromiter((index.get(n, -1) for n in nodes), dtype=np.int64, count=len(nodes))

    def shared_labels(self, other: "Partition") -> tuple[np.ndarray, np.ndarray]:
        """Labels here and in ``other`` of the nodes both hold, in this
        partition's node order (two int64 arrays)."""
        position = other.positions_of(self.nodes)
        shared = position >= 0
        return self.labels[shared], other.labels[position[shared]]

    def sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.labels, minlength=self.n_communities).tolist())


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer run: its best partition and diagnostics."""

    partition: Partition
    modularity: float
    run_id: int
    seed: int
    iterations: int


def _aligned_labels(graph: BipartiteGraph, partition: Partition):
    """Label arrays in graph node order; InputError on uncovered nodes."""
    nodes = graph.red_nodes + graph.blue_nodes
    position = partition.positions_of(nodes)
    missing = np.flatnonzero(position < 0)
    if missing.size:
        raise InputError(f"partition does not cover node {nodes[missing[0]]!r}")
    labels = partition.labels[position]
    return labels[:graph.n_red], labels[graph.n_red:]


def _community_mass(labels, degrees, n_communities):
    """Summed degree per community, exact (masses are at most m < 2**53)."""
    return np.bincount(labels, weights=degrees, minlength=n_communities).astype(np.int64)


def _modularity_numerator(graph, red_labels, blue_labels, n_communities) -> int:
    m = graph.n_edges
    within = int(
        np.count_nonzero(red_labels[graph.edge_red] == blue_labels[graph.edge_blue])
    )
    red_mass = _community_mass(red_labels, graph.red_degrees, n_communities)
    blue_mass = _community_mass(blue_labels, graph.blue_degrees, n_communities)
    null = int(np.dot(red_mass, blue_mass))
    return within * m - null


def bipartite_modularity(graph: BipartiteGraph, partition: Partition) -> float:
    """Modularity Q of a partition; exact 0.0 for the all-in-one partition."""
    if graph.n_edges == 0:
        raise InputError("modularity undefined for a graph with no edges")
    red_l, blue_l = _aligned_labels(graph, partition)
    num = _modularity_numerator(graph, red_l, blue_l, partition.n_communities)
    return num / (graph.n_edges * graph.n_edges)


# With s the bit length of c - 1 and mask its s low bits, the sparse step's
# keys node << s | (mask - label) are int32 while the moving side's node
# count << s stays below the first limit.  A score packed as
# score << s | (mask - label) stays exact while the largest score magnitude,
# max_degree * m, << s stays below the second; past it, each node's best
# score and lowest best label are found in two passes.
_INT32_KEYS = 2**31
_PACKED_SCORES = 2**62


class _Scratch:
    """What the half-steps of optimizer calls on ``graph`` reuse: the red end
    of every edge with the edges in (blue, red) order (``red_by_blue``), and
    buffers that a sweep writes some of its edge-sized arrays into.

    One is made per ``brim_multirun`` call, or per ``brim_converge`` call
    given none; it is never shared between threads.
    A copy sent to a worker process starts empty.
    """

    __slots__ = ("graph", "_red_by_blue", "_arrays")

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph
        self._red_by_blue = None
        self._arrays = {}

    @property
    def red_by_blue(self) -> np.ndarray:
        """The red end of every edge, the edges sorted stably by blue end, so
        that it lines up with ``np.repeat`` of per-blue-node values by
        ``blue_degrees`` as ``edge_blue`` does by ``red_degrees``; sorted on
        first use, which only a red step makes."""
        if self._red_by_blue is None:
            graph = self.graph
            self._red_by_blue = graph.edge_red[np.argsort(graph.edge_blue, kind="stable")]
        return self._red_by_blue

    def __reduce__(self):
        return _Scratch, (self.graph,)

    def array(self, name: str, size: int, dtype) -> np.ndarray:
        """The first ``size`` elements of the ``dtype`` buffer ``name``."""
        buffer = self._arrays.get((name, dtype))
        if buffer is None or buffer.size < size:
            buffer = self._arrays[name, dtype] = np.empty(size, dtype)
        return buffer[:size]


def _label_bits(c: int) -> tuple[int, int]:
    """(s, mask): the bit length of c - 1 and the mask of its s low bits."""
    s = (c - 1).bit_length()
    return s, (1 << s) - 1


def _packable(degrees, m: int, s: int) -> bool:
    """Whether every score << s, with its s label bits, fits in int64."""
    return int(degrees.max(initial=0)) * m << s < _PACKED_SCORES


def _best_labels(graph: BipartiteGraph, side: str, fixed_labels, n_communities,
                 scratch: _Scratch):
    """Best community of every node on ``side``, the other side's labels
    fixed, and the sum of the chosen scores.

    A node's score for community g is count * m - degree * fixed_mass[g],
    where count is its number of edges into g.  The argmax breaks ties by the
    lowest label, and degree-0 nodes (all scores 0) take label 0.  The sum of
    the chosen scores is m * within - sum_g mass_g * fixed_mass_g, the exact
    modularity numerator once ``side`` takes its new labels.  When the n x c
    table fits in 2m cells (c is small after the first sweep), the counts are
    one ``bincount`` into that dense table; otherwise only the (node,
    community) pairs that edges touch are scored.  Either way memory is
    O(m), not O(n * c).
    """
    c = n_communities
    m = graph.n_edges
    if side == RED:
        moving, degrees, fixed_degrees = scratch.red_by_blue, graph.red_degrees, graph.blue_degrees
    else:
        moving, degrees, fixed_degrees = graph.edge_blue, graph.blue_degrees, graph.red_degrees
    fixed_mass = _community_mass(fixed_labels, fixed_degrees, c)
    kernel = _dense_best_labels if len(degrees) * c <= 2 * m else _sparse_best_labels
    return kernel(moving, fixed_degrees, fixed_labels, degrees, fixed_mass, m, scratch)


# The kernels take the moving end of every edge with the edges grouped by
# their fixed end (``edge_blue`` as stored, or the scratch's
# ``red_by_blue``), so ``np.repeat(fixed_labels, fixed_degrees)`` gives the
# label at the fixed end of each.  Their gathers skip the bounds check
# (mode="clip"): the indices are in range by construction.


def _dense_best_labels(moving, fixed_degrees, fixed_labels, degrees, fixed_mass, m, scratch):
    """``_best_labels`` over the full c x n table of edge counts, label-major.

    Packed as score << s | (mask - label), one column max gives each node's
    best score and, among equal scores, its lowest label.
    """
    n, c = len(degrees), len(fixed_mass)
    s, mask = _label_bits(c)
    key = np.repeat(fixed_labels * n, fixed_degrees)
    key += moving
    table = np.bincount(key, minlength=c * n).reshape(c, n)
    packed = _packable(degrees, m, s)
    shift = s if packed else 0
    # count * m << shift - degree * fixed_mass << shift
    table *= m << shift
    mass = scratch.array("mass", c * n, np.int64).reshape(c, n)
    table -= np.multiply.outer(fixed_mass << shift, degrees, out=mass)
    if not packed:
        labels = table.argmax(axis=0)
        return labels, int(table[labels, np.arange(n)].sum())
    table += (mask - np.arange(c))[:, None]
    best = table.max(axis=0)
    return mask - (best & mask), int((best >> s).sum())


def _sparse_best_labels(moving, fixed_degrees, fixed_labels, degrees, fixed_mass, m, scratch):
    """``_best_labels`` over the (node, label) pairs that edges touch, found
    by sorting the edge keys node << s | (mask - label).

    A run of equal keys is one pair, and its length the pair's count.  A
    node's runs are adjacent, so one ``maximum.reduceat`` over the packed
    scores score << s | (mask - label) gives each node's best score and,
    among equal scores, its lowest label.  Every community no edge of a node
    reaches scores -degree * fixed_mass, so the best of them is the fallback
    community of least fixed mass (lowest label).
    """
    n, c = len(degrees), len(fixed_mass)
    s, mask = _label_bits(c)
    dtype = np.int32 if n << s < _INT32_KEYS else np.int64
    size = moving.size
    key = np.repeat(np.subtract(mask, fixed_labels, dtype=dtype), fixed_degrees)
    key |= np.left_shift(moving, s, out=scratch.array("shifted", size, dtype), casting="unsafe")
    key.sort()
    new = scratch.array("new", size, bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    start = np.flatnonzero(new)
    runs = start.size
    run_key = np.take(key, start, out=scratch.array("run_key", runs, dtype), mode="clip")
    low = np.bitwise_and(run_key, mask, out=scratch.array("low", runs, dtype))
    node = np.right_shift(run_key, s, out=run_key)

    packed = _packable(degrees, m, s)
    shift = s if packed else 0
    # count * m << shift - degree * fixed_mass << shift, per run
    score = scratch.array("score", runs, np.int64)
    np.subtract(start[1:], start[:-1], out=score[:-1])
    score[-1] = size - start[-1]
    score *= m << shift
    mass_by_low = np.zeros(mask + 1, dtype=np.int64)
    mass_by_low[mask - c + 1:] = fixed_mass[::-1] << shift
    mass = np.take(mass_by_low, low, out=scratch.array("mass", runs, np.int64), mode="clip")
    # the sorted keys are spent: their buffer takes each run's node degree
    mass *= np.take(degrees.astype(dtype), node, out=key[:runs], mode="clip")
    score -= mass

    present = np.flatnonzero(degrees)  # the nodes that have runs
    node_start = np.searchsorted(node, present.astype(dtype))
    fallback = int(np.argmin(fixed_mass))
    fallback_score = -degrees[present] * fixed_mass[fallback]
    labels = np.zeros(n, dtype=np.int64)
    if packed:
        score |= low
        best = np.maximum.reduceat(score, node_start)
        np.maximum(best, fallback_score * (1 << s) | (mask - fallback), out=best)
        labels[present] = mask - (best & mask)
        return labels, int((best >> s).sum())
    # two passes: each node's best score, then its lowest label at that score
    best = np.maximum.reduceat(score, node_start)
    at_best = score == np.repeat(best, np.diff(node_start, append=runs))
    best_label = mask - np.maximum.reduceat(np.where(at_best, low, -1), node_start)
    # best >= 0 >= fallback_score: the scores a node of degree d reaches sum to
    # d * (m - their masses) >= 0, so the fallback wins only a tie at 0
    wins = (best > fallback_score) | (best_label < fallback)
    labels[present] = np.where(wins, best_label, fallback)
    return labels, int(best.sum())


def brim_step(graph: BipartiteGraph, partition: Partition, side: str) -> Partition:
    """Reassign every node on ``side`` to its best community, holding the
    other side fixed.

    The per-node objective is the node's modularity contribution; scores are
    integers (count * m - degree * opposite_mass), so the argmax and its
    lowest-label tie-break are exact.  Modularity never decreases.
    """
    if side not in (RED, BLUE):
        raise ValueError(f"side must be {RED!r} or {BLUE!r}, got {side!r}")
    if graph.n_edges == 0:
        raise InputError("cannot optimize a graph with no edges")
    red_l, blue_l = _aligned_labels(graph, partition)
    c = partition.n_communities
    if side == RED:
        red_l, _ = _best_labels(graph, RED, blue_l, c, _Scratch(graph))
    else:
        blue_l, _ = _best_labels(graph, BLUE, red_l, c, _Scratch(graph))
    return Partition(graph.red_nodes, graph.blue_nodes, red_l, blue_l, c)


def _compact_labels(labels, rank):
    """Communities renumbered gap-free in the order of their smallest member
    id (``rank`` ranks the nodes by id); returns (labels, count)."""
    # each label's smallest member rank; labels.size marks a label no node has
    first = np.full(labels.max(initial=0) + 1, labels.size, dtype=np.int64)
    np.minimum.at(first, labels, rank)
    present = np.flatnonzero(first < labels.size)
    mapping = np.empty(first.size, dtype=np.int64)
    mapping[present[np.argsort(first[present])]] = np.arange(present.size)
    return mapping[labels], present.size


def brim_converge(
    graph: BipartiteGraph,
    initial_partition: Partition,
    run_id: int = 0,
    seed: int = 0,
    *,
    scratch: _Scratch | None = None,
) -> RunResult:
    """Alternate blue and red reassignment sweeps until a fixed point.

    A sweep is one blue step followed by one red step, then compaction of
    empty communities.  Stops when a sweep does not raise the exact integer
    modularity numerator (a sweep that changes no label cannot), or after
    ``MAX_SWEEPS`` sweeps.  The numerator is computed once, for the initial
    partition; after that it is the red step's sum of chosen scores, which
    compaction does not change.  The sweeps run on label arrays in graph
    node order, in the buffers of ``scratch`` (a fresh set when None); the
    result partition is the only ``Partition`` built.
    """
    if graph.n_edges == 0:
        raise InputError("modularity undefined for a graph with no edges")
    red, blue = _aligned_labels(graph, initial_partition)
    c = initial_partition.n_communities
    num = _modularity_numerator(graph, red, blue, c)
    if scratch is None:
        scratch = _Scratch(graph)
    elif scratch.graph is not graph:
        raise ValueError("scratch was made for another graph")
    sweeps = 0
    for _ in range(MAX_SWEEPS):
        blue, _ = _best_labels(graph, BLUE, red, c, scratch)
        red, num_new = _best_labels(graph, RED, blue, c, scratch)
        labels, c = _compact_labels(np.concatenate((red, blue)), graph.id_rank)
        red, blue = labels[:graph.n_red], labels[graph.n_red:]
        sweeps += 1
        if num_new < num:
            raise RuntimeError(
                f"modularity decreased during sweep: numerator {num} -> {num_new}"
            )
        if num_new == num:
            break
        num = num_new
    return RunResult(
        partition=Partition(graph.red_nodes, graph.blue_nodes, red, blue, c),
        modularity=num / (graph.n_edges * graph.n_edges),
        run_id=run_id,
        seed=seed,
        iterations=sweeps,
    )


def random_partition(
    graph: BipartiteGraph, n_communities: int, rng: np.random.Generator
) -> Partition:
    """Uniform independent label per node over [0, n_communities)."""
    if n_communities < 1:
        raise ValueError("need at least one community")
    red = rng.integers(0, n_communities, size=graph.n_red)
    blue = rng.integers(0, n_communities, size=graph.n_blue)
    return Partition(graph.red_nodes, graph.blue_nodes, red, blue, n_communities)


def _best_of_run(args):
    graph, run_id, restarts, schedule, master_seed, scratch = args
    best = None
    for restart in range(restarts):
        seed = derive_seed(master_seed, STREAM_BRIM_RUN, run_id, restart)
        rng = np.random.Generator(np.random.PCG64(seed))
        c0 = schedule[restart % len(schedule)]
        init = random_partition(graph, c0, rng)
        result = brim_converge(graph, init, run_id=run_id, seed=seed, scratch=scratch)
        if best is None or result.modularity > best.modularity:
            best = result
    return best


def brim_multirun(
    graph: BipartiteGraph,
    runs: int,
    restarts_per_run: int,
    module_count_schedule=None,
    master_seed: int = 0,
    workers: int = 1,
) -> list[RunResult]:
    """Independent runs of restarted optimization; one best result per run.

    Each run performs ``restarts_per_run`` restarts from independent uniform
    random initial assignments and keeps its best-Q result.  All seeds derive
    deterministically from ``master_seed``, so output is identical whether
    runs execute serially or in a worker pool.  Restart r of a run starts with
    the r-th count of ``module_count_schedule``, cycled; None means
    ``[max(1, min(n_red, n_blue))]``.  No count may exceed the graph's node
    count.  At most ``runs`` worker processes are started.
    """
    if runs < 1 or restarts_per_run < 1:
        raise ValueError("runs and restarts_per_run must be >= 1")
    if module_count_schedule is None:
        schedule = [max(1, min(graph.n_red, graph.n_blue))]
    else:
        schedule = list(module_count_schedule)
        if not schedule or min(schedule) < 1:
            raise ValueError(f"invalid module count schedule: {schedule}")
        if max(schedule) > graph.n_red + graph.n_blue:
            raise ValueError(
                f"module count {max(schedule)} exceeds the "
                f"{graph.n_red + graph.n_blue} nodes of the graph"
            )
    graph.id_rank  # rank the node ids before the jobs copy the graph to workers
    scratch = _Scratch(graph)
    jobs = [
        (graph, run_id, restarts_per_run, schedule, master_seed, scratch)
        for run_id in range(runs)
    ]
    # a pool forks all its workers at once; no more than there are runs
    workers = min(workers, runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_best_of_run, jobs))
        # each result comes back with its own unpickled copy of the node ids;
        # share the graph's tuples, as the serial runs do
        for result in results:
            result.partition.red_nodes = graph.red_nodes
            result.partition.blue_nodes = graph.blue_nodes
    else:
        results = [_best_of_run(job) for job in jobs]
    return results


def best_result(results: list[RunResult]) -> RunResult:
    """Highest-modularity result; ties resolve to the lowest run id."""
    if not results:
        raise ValueError("no results")
    return max(results, key=lambda r: (r.modularity, -r.run_id))


def write_partition_csv(partitions, names, path) -> None:
    """Write `node_id,side,<names...>` rows (red nodes first), with header:
    one label column per partition, named by ``names``.

    Every partition must hold the first one's nodes in its order.
    """
    first = partitions[0]
    if any(p.red_nodes != first.red_nodes or p.blue_nodes != first.blue_nodes
           for p in partitions):
        raise ValueError("partitions of one table must hold the same nodes in one order")
    sides = [RED] * len(first.red_nodes) + [BLUE] * len(first.blue_nodes)
    labels = [int_cells(p.labels) for p in partitions]
    write_rows(path, ["node_id", "side", *names], zip(first.nodes, sides, *labels))


def read_partition_csv(path, width: int) -> list[Partition]:
    """The partitions of the ``width`` label columns of a partition table, in
    column order; InputError with file:line on a malformed row.

    Every label must lie below the table's node count, as in any compact
    partition, so no table indexed by label outgrows the partition.  The
    partitions share one tuple of red and one of blue node ids.
    """
    lines, (nodes, sides, *columns) = read_columns(path, 2 + width, header=("node_id",))
    try:
        labels = [list(map(int, cells)) for cells in columns]
        faulty = min((min(column, default=0) for column in labels), default=0) < 0
    except ValueError:
        faulty = True
    if (
        faulty
        or "" in nodes
        or len(set(nodes)) < len(nodes)
        or not {RED, BLUE}.issuperset(sides)
    ):
        # the first faulty row, its faults checked in the order a row is read
        seen = set()
        for line, node, side, *cells in zip(lines.tolist(), nodes, sides, *columns):
            for cell in cells:
                try:
                    label = int(cell)
                except ValueError:
                    raise InputError(f"{path}:{line}: bad community {cell!r}") from None
                if label < 0:
                    raise InputError(f"{path}:{line}: negative community {label}")
            if not node:
                raise InputError(f"{path}:{line}: empty node identifier")
            if node in seen:
                raise InputError(f"{path}:{line}: node {node!r} listed twice")
            seen.add(node)
            if side not in (RED, BLUE):
                raise InputError(f"{path}:{line}: unknown side {side!r}")
    if not nodes:
        raise InputError(f"empty partition file: {path}")
    for column in labels:
        top = max(column)
        if top >= len(nodes):
            raise InputError(
                f"{path}:{lines[column.index(top)]}: community {top} is not below "
                f"the node count {len(nodes)}"
            )
    is_red = np.fromiter(map(RED.__eq__, sides), bool, len(sides))
    red, blue = tuple(compress(nodes, is_red)), tuple(compress(nodes, ~is_red))
    return [
        Partition(red, blue, column[is_red], column[~is_red], column.max() + 1)
        for column in np.array(labels, dtype=np.int64)
    ]


def run_summary(results: list[RunResult]) -> list[dict]:
    """JSON-ready per-run summary rows."""
    return [
        {
            "run_id": r.run_id,
            "seed": r.seed,
            "modularity": r.modularity,
            "iterations": r.iterations,
            "n_communities": r.partition.n_communities,
        }
        for r in results
    ]
