"""Call spans around the public functions of bicomet's layer modules.

The benchmark wraps functions from outside the package; nothing under
``src/`` is changed.  Each call records one span (name, start, end, parent
span) in memory; the spans are written out once, when the process ends.
A span's self time is its duration minus the durations of its child spans.

Functions imported by name into another layer (``overlap_pvalue`` into
``tracker`` and ``enrichment``, ``load_period_series`` into ``cli``, ...) are
wrapped at each import site too, under the name ``layer.func@site``, so the
calling layer stays visible.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("synth", "graph", "brim", "metrics", "stats", "tracker", "enrichment", "cli")
# stage commands of `bicomet pipeline`; the only spans of an untraced run
STAGES = ("cmd_detect", "cmd_ari", "cmd_track", "cmd_enrich")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def wrap(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def keep_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    def arrays(self):
        """Spans as parallel arrays: name id, start, end, parent index."""
        table = np.asarray(self.spans, dtype=np.float64).reshape(len(self.spans), 4)
        return (
            table[:, 0].astype(np.int64),
            table[:, 1],
            table[:, 2],
            table[:, 3].astype(np.int64),
        )

    def aggregate(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        name_id, start, end, parent = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        k = len(self.names)
        counts = np.bincount(name_id, minlength=k)
        totals = np.bincount(name_id, weights=duration, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: {"calls": int(counts[i]), "total_s": float(totals[i]),
                   "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
            if counts[i]
        }

    def durations(self, prefix: str) -> dict[str, list[float]]:
        """Seconds of every call, per span name after ``prefix``."""
        out: dict[str, list[float]] = {}
        for name_id, start, end, _ in self.spans:
            name = self.names[name_id]
            if name.startswith(prefix):
                out.setdefault(name[len(prefix):], []).append(end - start)
        return out

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 start=start, end=end, parent=parent)


# Counters recorded at layer boundaries, from each call's arguments and result.

def _converge(tracer, args, result):
    tracer.counters["brim.sweeps"] += result.iterations


def _step(tracer, args, result):
    graph, side = args["graph"], args["side"]
    rows = graph.n_red if side == "red" else graph.n_blue
    # computed, not measured: the int64 counts matrix brim_step allocates
    tracer.keep_max("brim.counts_bytes", rows * args["partition"].n_communities * 8)


def _pvalue(tracer, args, result):
    # pmf terms overlap_pvalue sums, from the same branch rule it applies
    x, params = args["n_overlap"], args["params"]
    lo, hi = params.support()
    if x <= lo:
        return
    if x > params.draws * params.successes / params.population:
        tracer.counters["stats.tail_terms"] += hi - x + 1
    else:
        tracer.counters["stats.tail_terms"] += x - lo


def _load_edges(tracer, args, result):
    tracer.counters["graph.edges"] += result.n_edges


def _ari(tracer, args, result):
    tracer.counters["metrics.ari_pairs"] += result[2]


def _links(tracer, args, result):
    links = args["links"]
    tracer.counters["tracker.tests"] += len(links)
    tracer.counters["tracker.validated"] += sum(1 for link in links if link.validated)
    tracer.counters["tracker.nonzero_pairs"] += sum(1 for link in links if link.overlap)


def _records(tracer, args, result):
    records = args["records"]
    tracer.counters["enrichment.tests"] += len(records)
    tracer.counters["enrichment.validated"] += sum(1 for r in records if r.validated)


def _sequence(tracer, args, result):
    model = args["model"]
    # computed, not measured: the float64 probability matrix of _draw_edges
    tracer.keep_max("synth.prob_matrix_bytes", model.n_red * model.n_blue * 8)


HOOKS = {
    "brim.brim_converge": _converge,
    "brim.brim_step": _step,
    "stats.overlap_pvalue": _pvalue,
    "graph.load_edge_list": _load_edges,
    "metrics.all_pairs_ari": _ari,
    "tracker.write_link_table": _links,
    "enrichment.write_enrichment_records": _records,
    "synth.generate_sequence": _sequence,
}


def install(tracer: Tracer, package, full: bool) -> None:
    """Replace layer functions by span-recording wrappers.

    ``full`` wraps every public function of every layer at every site that
    names it; otherwise only the four pipeline stage commands are timed.
    """
    layers = {layer: getattr(package, layer) for layer in LAYERS}
    home = {module.__name__: layer for layer, module in layers.items()}
    if not full:
        cli = layers["cli"]
        for stage in STAGES:
            setattr(cli, stage, tracer.wrap(f"cli.{stage}", getattr(cli, stage)))
        return
    for site, module in layers.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            layer = home.get(fn.__module__)
            if layer is None:
                continue
            base = f"{layer}.{fn.__name__}"
            name = base if layer == site else f"{base}@{site}"
            setattr(module, attr, tracer.wrap(name, fn, HOOKS.get(base)))
