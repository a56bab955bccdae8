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
from itertools import chain, repeat

import numpy as np

from .errors import InputError
from .graph import BLUE, RED, BipartiteGraph
from .seeding import STREAM_BRIM_ADAPT, STREAM_BRIM_RUN, derive_seed
from .table import read_rows, write_rows

_Q_IMPROVEMENT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 200


@dataclass(frozen=True)
class Partition:
    """Assignment of every node of a bipartite graph to a community.

    Labels are integers in [0, n_communities); communities may mix node
    sides.  Empty labels are tolerated transiently (mid-optimization);
    ``compact()`` renumbers to the canonical gap-free form.
    """

    red_nodes: tuple[str, ...]
    blue_nodes: tuple[str, ...]
    red_labels: tuple[int, ...]
    blue_labels: tuple[int, ...]
    n_communities: int

    def __post_init__(self):
        if len(self.red_nodes) != len(self.red_labels):
            raise InputError("red node and label counts differ")
        if len(self.blue_nodes) != len(self.blue_labels):
            raise InputError("blue node and label counts differ")
        for label in self.red_labels + self.blue_labels:
            if not 0 <= label < self.n_communities:
                raise InputError(
                    f"label {label} outside [0, {self.n_communities})"
                )
        if (len(self.red_nodes) + len(self.blue_nodes)) > 0 and self.n_communities < 1:
            raise InputError("non-empty partition needs at least one community")

    @classmethod
    def from_arrays(cls, red_nodes, blue_nodes, red_labels, blue_labels,
                    n_communities=None):
        red_labels = tuple(int(x) for x in red_labels)
        blue_labels = tuple(int(x) for x in blue_labels)
        if n_communities is None:
            n_communities = max(red_labels + blue_labels, default=-1) + 1
        return cls(tuple(red_nodes), tuple(blue_nodes), red_labels, blue_labels,
                   int(n_communities))

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.red_nodes + self.blue_nodes

    @property
    def labels(self) -> tuple[int, ...]:
        return self.red_labels + self.blue_labels

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.nodes, self.labels))

    def members(self, community: int) -> frozenset[str]:
        return frozenset(
            n for n, g in zip(self.nodes, self.labels) if g == community
        )

    def red_members(self, community: int) -> frozenset[str]:
        return frozenset(
            n for n, g in zip(self.red_nodes, self.red_labels) if g == community
        )

    def blue_members(self, community: int) -> frozenset[str]:
        return frozenset(
            n for n, g in zip(self.blue_nodes, self.blue_labels) if g == community
        )

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.n_communities
        for g in self.labels:
            counts[g] += 1
        return tuple(counts)

    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @property
    def is_compact(self) -> bool:
        return all(c > 0 for c in self.sizes())

    def compact(self) -> "Partition":
        """Drop empty communities and renumber canonically.

        Communities are ordered by their lexicographically smallest member
        id, so the numbering does not depend on node input order: permuting
        the nodes of a graph yields byte-identical label assignments.
        """
        smallest: dict[int, str] = {}
        for node, g in zip(self.nodes, self.labels):
            if g not in smallest or node < smallest[g]:
                smallest[g] = node
        ordered = sorted(smallest, key=smallest.get)
        mapping = {g: i for i, g in enumerate(ordered)}
        red = tuple(mapping[g] for g in self.red_labels)
        blue = tuple(mapping[g] for g in self.blue_labels)
        return Partition(self.red_nodes, self.blue_nodes, red, blue, len(mapping))

    def restricted_to(self, node_ids) -> "Partition":
        """Sub-partition over ``node_ids``; labels and community count are kept
        (communities may become empty)."""
        keep = set(node_ids)
        red = [(n, g) for n, g in zip(self.red_nodes, self.red_labels) if n in keep]
        blue = [(n, g) for n, g in zip(self.blue_nodes, self.blue_labels) if n in keep]
        return Partition(
            tuple(n for n, _ in red),
            tuple(n for n, _ in blue),
            tuple(g for _, g in red),
            tuple(g for _, g in blue),
            self.n_communities,
        )


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
    mapping = partition.as_dict()
    try:
        red = np.fromiter(
            (mapping[n] for n in graph.red_nodes), dtype=np.int64, count=graph.n_red
        )
        blue = np.fromiter(
            (mapping[n] for n in graph.blue_nodes), dtype=np.int64, count=graph.n_blue
        )
    except KeyError as exc:
        raise InputError(f"partition does not cover node {exc.args[0]!r}") from exc
    return red, blue


def _modularity_numerator(graph, red_labels, blue_labels, n_communities) -> int:
    m = graph.n_edges
    within = int(
        np.count_nonzero(red_labels[graph.edge_red] == blue_labels[graph.edge_blue])
    )
    red_mass = np.zeros(n_communities, dtype=np.int64)
    blue_mass = np.zeros(n_communities, dtype=np.int64)
    np.add.at(red_mass, red_labels, graph.red_degrees)
    np.add.at(blue_mass, blue_labels, graph.blue_degrees)
    null = int(np.dot(red_mass, blue_mass))
    return within * m - null


def bipartite_modularity(graph: BipartiteGraph, partition: Partition) -> float:
    """Modularity Q of a partition; exact 0.0 for the all-in-one partition."""
    if graph.n_edges == 0:
        raise InputError("modularity undefined for a graph with no edges")
    red_l, blue_l = _aligned_labels(graph, partition)
    num = _modularity_numerator(graph, red_l, blue_l, partition.n_communities)
    return num / (graph.n_edges * graph.n_edges)


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
    m = graph.n_edges

    if side == RED:
        fixed_mass = np.zeros(c, dtype=np.int64)
        np.add.at(fixed_mass, blue_l, graph.blue_degrees)
        counts = np.zeros((graph.n_red, c), dtype=np.int64)
        np.add.at(counts, (graph.edge_red, blue_l[graph.edge_blue]), 1)
        scores = counts * m - graph.red_degrees[:, None] * fixed_mass[None, :]
        red_l = np.argmax(scores, axis=1)
    else:
        fixed_mass = np.zeros(c, dtype=np.int64)
        np.add.at(fixed_mass, red_l, graph.red_degrees)
        counts = np.zeros((graph.n_blue, c), dtype=np.int64)
        np.add.at(counts, (graph.edge_blue, red_l[graph.edge_red]), 1)
        scores = counts * m - graph.blue_degrees[:, None] * fixed_mass[None, :]
        blue_l = np.argmax(scores, axis=1)

    return Partition.from_arrays(
        graph.red_nodes, graph.blue_nodes, red_l, blue_l, c
    )


def brim_converge(
    graph: BipartiteGraph,
    initial_partition: Partition,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    run_id: int = 0,
    seed: int = 0,
) -> RunResult:
    """Alternate blue and red reassignment sweeps until a fixed point.

    A sweep is one blue step followed by one red step, then compaction of
    empty communities.  Stops when a sweep changes no label or improves Q by
    less than 1e-12, or after ``max_sweeps``.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    part = initial_partition
    q = bipartite_modularity(graph, part)
    canonical = part.compact()
    sweeps = 0
    for _ in range(max_sweeps):
        stepped = brim_step(graph, part, BLUE)
        stepped = brim_step(graph, stepped, RED)
        next_canonical = stepped.compact()
        q_new = bipartite_modularity(graph, next_canonical)
        sweeps += 1
        if q_new < q:
            raise RuntimeError(
                f"modularity decreased during sweep: {q} -> {q_new}"
            )
        changed = next_canonical != canonical
        improved = q_new - q
        part, canonical, q = next_canonical, next_canonical, q_new
        if not changed or improved < _Q_IMPROVEMENT_TOL:
            break
    return RunResult(
        partition=canonical,
        modularity=q,
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
    return Partition.from_arrays(
        graph.red_nodes, graph.blue_nodes, red, blue, n_communities
    )


def default_module_count(graph: BipartiteGraph) -> int:
    return max(1, min(graph.n_red, graph.n_blue))


def _normalize_schedule(schedule, graph):
    if schedule is None:
        return [default_module_count(graph)]
    if isinstance(schedule, int):
        schedule = [schedule]
    schedule = [int(c) for c in schedule]
    if not schedule or any(c < 1 for c in schedule):
        raise ValueError(f"invalid module count schedule: {schedule}")
    return schedule


def _best_of_run(args):
    graph, run_id, restarts, schedule, master_seed, max_sweeps = args
    best = None
    for restart in range(restarts):
        seed = derive_seed(master_seed, STREAM_BRIM_RUN, run_id, restart)
        rng = np.random.Generator(np.random.PCG64(seed))
        c0 = schedule[restart % len(schedule)]
        init = random_partition(graph, c0, rng)
        result = brim_converge(graph, init, max_sweeps, run_id=run_id, seed=seed)
        if best is None or result.modularity > best.modularity:
            best = result
    return best


def brim_multirun(
    graph: BipartiteGraph,
    runs: int,
    restarts_per_run: int,
    module_count_schedule=None,
    master_seed: int = 0,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    workers: int | None = None,
) -> list[RunResult]:
    """Independent runs of restarted optimization; one best result per run.

    Each run performs ``restarts_per_run`` restarts from independent uniform
    random initial assignments and keeps its best-Q result.  All seeds derive
    deterministically from ``master_seed``, so output is identical whether
    runs execute serially or in a worker pool.
    """
    if runs < 1 or restarts_per_run < 1:
        raise ValueError("runs and restarts_per_run must be >= 1")
    schedule = _normalize_schedule(module_count_schedule, graph)
    jobs = [
        (graph, run_id, restarts_per_run, schedule, master_seed, max_sweeps)
        for run_id in range(runs)
    ]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_best_of_run, jobs))
    else:
        results = [_best_of_run(job) for job in jobs]
    return results


def best_result(results: list[RunResult]) -> RunResult:
    """Highest-modularity result; ties resolve to the lowest run id."""
    if not results:
        raise ValueError("no results")
    return max(results, key=lambda r: (r.modularity, -r.run_id))


def adapt_module_count(
    graph: BipartiteGraph,
    seed: int = 0,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> RunResult:
    """Search the community count by geometric expansion then bisection.

    Candidate counts 2, 4, 8, ... are evaluated (one converged run from a
    fresh random start each) while the best Q keeps improving; a bisection
    between the last improving and first non-improving count refines the
    answer.  Returns the best result seen overall.
    """
    trials = 0

    def evaluate(c: int) -> RunResult:
        nonlocal trials
        child = derive_seed(seed, STREAM_BRIM_ADAPT, trials)
        rng = np.random.Generator(np.random.PCG64(child))
        init = random_partition(graph, c, rng)
        result = brim_converge(graph, init, max_sweeps, run_id=trials, seed=child)
        trials += 1
        return result

    c_max = graph.n_red + graph.n_blue
    best = evaluate(1)
    q_prev = best.modularity
    c_lo, c_hi = 1, None
    c = 2
    while c <= c_max:
        result = evaluate(c)
        if result.modularity > best.modularity:
            best = result
        if result.modularity > q_prev:
            c_lo, q_prev = c, result.modularity
            c *= 2
        else:
            c_hi = c
            break
    if c_hi is not None:
        lo, hi, q_lo = c_lo, c_hi, q_prev
        while hi - lo > 1:
            mid = (lo + hi) // 2
            result = evaluate(mid)
            if result.modularity > best.modularity:
                best = result
            if result.modularity > q_lo:
                lo, q_lo = mid, result.modularity
            else:
                hi = mid
    return best


def write_partition_csv(partition: Partition, path) -> None:
    """Write `node_id,side,community` rows (red nodes first), with header."""
    red = zip(partition.red_nodes, repeat(RED), partition.red_labels)
    blue = zip(partition.blue_nodes, repeat(BLUE), partition.blue_labels)
    write_rows(path, ["node_id", "side", "community"], chain(red, blue))


def read_partition_csv(path) -> Partition:
    """Read a partition file; InputError with file:line on a malformed row."""
    red_nodes, blue_nodes, red_labels, blue_labels = [], [], [], []
    seen = set()
    for lineno, cells in read_rows(path):
        if lineno == 1 and cells[0] == "node_id":
            continue
        if len(cells) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 fields")
        node, side, label = cells
        try:
            label = int(label)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad community {label!r}") from None
        if label < 0:
            raise InputError(f"{path}:{lineno}: negative community {label}")
        if node in seen:
            raise InputError(f"{path}:{lineno}: node {node!r} listed twice")
        seen.add(node)
        if side == RED:
            red_nodes.append(node)
            red_labels.append(label)
        elif side == BLUE:
            blue_nodes.append(node)
            blue_labels.append(label)
        else:
            raise InputError(f"{path}:{lineno}: unknown side {side!r}")
    if not red_nodes and not blue_nodes:
        raise InputError(f"empty partition file: {path}")
    return Partition.from_arrays(red_nodes, blue_nodes, red_labels, blue_labels)


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
