"""End-to-end benchmark of `bicomet synth` + `bicomet pipeline`.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-detect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

One run generates the workload's synthetic dataset from ``--seed`` several
times (``setup_s`` is the median), then runs ``bicomet pipeline`` on it again
and again, each time in a fresh process, until ``--seconds`` have passed.
Every output tree is checked and hashed; every run of one seed must produce
the same bytes.

``--trace 0`` reports the end-to-end metrics (medians over the run's
samples), and prints the ari, track and enrich stage times without gating
them.  ``--trace 1`` interleaves untraced and traced pipelines and
reports the per-layer metrics from the traced ones, after checking that
every count repeats exactly between them.  The human-readable report comes
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs, tree_digest
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUPS = 3  # dataset generations per untraced run; setup_s is their median
TRACED_SETUPS = 2  # traced generations per traced run, to compare counts
MIN_PIPELINES = 3  # pipelines per untraced run, however short --seconds is
MIN_TRACED_PAIRS = 2  # untraced + traced pipeline pairs per traced run
CHILD_TIMEOUT_S = 60
DEADLINE_S = 100  # no new child process is started after this many seconds

END_TO_END = (
    ("pipeline_s", "s"),
    ("detect_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("best_q", "Q"),
    ("truth_ari", "ARI"),
)
# Stages after detect: printed, and per-layer metrics of the traced run, but
# not end-to-end metrics.  Some take 0.1 s, and their run medians moved by
# 25-50 % between runs on a shared 2-core VM, more than any bound allows.
LATER_STAGES = ("ari", "track", "enrich")


ADDR_NO_RANDOMIZE = 0x0040000  # linux/personality.h


class ChildFailed(Exception):
    pass


def _fix_child_layout() -> bool:
    """Turn off address-space randomization for the processes started from now on.

    With randomization on, one command took either about 0.10 s or about
    0.17 s on a 2-core VM, in about equal shares of processes, always the
    same within a process: run medians jumped between the two. A fixed
    layout keeps every process in one mode.  Returns whether it took effect.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


def _child(command: str, config: Path, traced: bool, spans: Path) -> dict:
    """Run one bicomet command in a fresh single-threaded process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), command, str(config),
             "1" if traced else "0", str(spans)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{command}: no exit within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{command}: process exit {proc.returncode}: {tail}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(f"{command}: no result line: {lines[-1][:200]!r}") from None
    if report["exit"] != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{command}: bicomet exit {report['exit']}: {tail}")
    return report


def _write_config(path: Path, workload, seed: int, data: Path, out: Path) -> None:
    params = workload.params(seed)
    synth = dict(params["synth"], output_dir=data)
    pipeline = dict(params["pipeline"], manifest=data / "manifest.csv",
                    attributes=data / "attributes.csv", output_dir=out)
    lines = ["[synth]", *(f"{k} = {v}" for k, v in synth.items()), "",
             "[pipeline]", *(f"{k} = {v}" for k, v in pipeline.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git checkout)"


def _environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        # identifies the code where the checkout is not a git repository
        "source_digest": tree_digest(ROOT / "src", "*.py"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _median(values):
    """Median; a sample value itself when all are counts, so counts stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _total(spans: dict, base: str, key: str = "total_s") -> float:
    """Sum over a function's spans at every site (``base`` and ``base@site``)."""
    return sum(v[key] for name, v in spans.items()
               if name == base or name.startswith(base + "@"))


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, {}).get("calls", 0)


def _layer_metrics(pipe: dict, setup: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced pipeline and one traced set-up."""
    s, c, mx = pipe["spans"], pipe["counters"], pipe["maxima"]
    tracker_calls = _calls(s, "stats.overlap_pvalue@tracker")
    ari_csv = (_total(s, "metrics.all_pairs_ari") + _total(s, "brim.write_partition_csv")
               + _total(s, "brim.read_partition_csv"))
    m = {
        "graph.load_s": (_total(s, "graph.load_period_series"), "s"),
        "graph.edges": (c.get("graph.edges", 0), "count"),
        "brim.restarts": (_calls(s, "brim.brim_converge"), "count"),
        "brim.sweeps": (c.get("brim.sweeps", 0), "count"),
        "brim.step_calls": (_calls(s, "brim.brim_step"), "count"),
        "brim.step_s": (_total(s, "brim.brim_step"), "s"),
        "brim.modularity_s": (_total(s, "brim.bipartite_modularity"), "s"),
        "brim.converge_self_s": (_total(s, "brim.brim_converge", "self_s"), "s"),
        "brim.restart_s": (_total(s, "brim.brim_converge"), "s"),
        "brim.counts_bytes": (mx.get("brim.counts_bytes", 0), "B_computed"),
        "brim.csv_write_s": (_total(s, "brim.write_partition_csv"), "s"),
        "brim.csv_read_s": (_total(s, "brim.read_partition_csv"), "s"),
        "brim.csv_writes": (_calls(s, "brim.write_partition_csv"), "count"),
        "brim.csv_reads": (_calls(s, "brim.read_partition_csv"), "count"),
        "metrics.ari_pairs": (c.get("metrics.ari_pairs", 0), "count"),
        "metrics.ari_s": (_total(s, "metrics.all_pairs_ari"), "s"),
        "stats.pvalue_calls.tracker": (tracker_calls, "count"),
        "stats.pvalue_calls.enrichment": (
            _calls(s, "stats.overlap_pvalue@enrichment"), "count"),
        "stats.pvalue_s": (_total(s, "stats.overlap_pvalue"), "s"),
        "stats.tail_terms": (c.get("stats.tail_terms", 0), "count"),
        "stats.log_binomial_calls": (_calls(s, "stats.log_binomial"), "count"),
        "tracker.tests": (c.get("tracker.tests", 0), "count"),
        "tracker.validated": (c.get("tracker.validated", 0), "count"),
        "tracker.track_s": (_total(s, "tracker.track_sequence"), "s"),
        "tracker.dag_s": (_total(s, "tracker.build_evolution_graph", "self_s"), "s"),
        "tracker.export_s": (_total(s, "tracker.export_evolution")
                             + _total(s, "tracker.write_link_table"), "s"),
        "tracker.pvalue_calls_per_test": (
            tracker_calls / max(c.get("tracker.nonzero_pairs", 0), 1), "ratio"),
        "enrichment.tests": (c.get("enrichment.tests", 0), "count"),
        "enrichment.validated": (c.get("enrichment.validated", 0), "count"),
        "enrichment.test_s": (_total(s, "enrichment.test_overexpression"), "s"),
        "enrichment.report_s": (_total(s, "enrichment.community_report"), "s"),
        "enrichment.write_s": (_total(s, "enrichment.write_enrichment_records")
                               + _total(s, "enrichment.write_enrichment_report"), "s"),
        "synth.generate_s": (_total(setup["spans"], "synth.generate_sequence"), "s"),
        "synth.catalog_s": (_total(setup["spans"], "synth.generate_catalog"), "s"),
        "synth.write_s": (_total(setup["spans"], "synth.write_synthetic_dataset"), "s"),
        "synth.prob_matrix_bytes": (
            setup["maxima"].get("synth.prob_matrix_bytes", 0), "B_computed"),
        "ari_csv_share": (ari_csv / pipe["wall_s"], "fraction"),
        "trace.overhead_s": (pipe["wall_s"] - untraced_wall, "s"),
    }
    for layer in ("graph", "brim", "metrics", "stats", "tracker", "enrichment", "cli"):
        m[f"{layer}.self_s"] = (
            sum(v["self_s"] for name, v in s.items() if name.startswith(layer + ".")), "s")
    m["synth.self_s"] = (
        sum(v["self_s"] for name, v in setup["spans"].items()
            if name.startswith("synth.")), "s")
    return m


def _counts(run: dict) -> dict:
    """Everything in a traced report that must repeat exactly."""
    return {
        "calls": {name: v["calls"] for name, v in run["spans"].items()},
        "counters": run["counters"],
        "maxima": run["maxima"],
    }


def _self_table(spans: dict, top: int = 12) -> list[str]:
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    lines = [f"  {'span':44s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s}"]
    for name, v in ranked:
        lines.append(f"  {name:44s} {v['calls']:8d} {v['total_s']:9.4f} {v['self_s']:9.4f}")
    return lines


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 environment: dict) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, out, config = work / "data", work / "out", work / "config.ini"
    _write_config(config, workload, seed, data, out)
    began = time.perf_counter()
    problems: list[str] = []
    attempted = failed = 0

    def elapsed() -> float:
        return time.perf_counter() - began

    # set-up: generate the dataset several times; every copy must be identical
    setups, data_digests = [], set()
    for i in range(TRACED_SETUPS if traced else SETUPS):
        shutil.rmtree(data, ignore_errors=True)
        attempted += 1
        try:
            setups.append(_child("synth", config, traced, work / f"spans_synth_{i}.npz"))
        except ChildFailed as exc:
            failed += 1
            problems.append(str(exc))
            continue
        data_digests.add(tree_digest(data))
    if not setups or len(data_digests) != 1:
        raise ChildFailed(f"set-up failed or not repeatable: {problems}")

    # load: a closed loop of fresh processes, one at a time
    untraced, traced_runs = [], []
    digests, quality = set(), set()
    index = 0

    def attempt(command: str, with_spans: bool):
        """One checked child; its report, or None when there is nothing to time."""
        nonlocal attempted, failed, index
        attempted += 1
        index += 1
        try:
            report = _child(command, config, with_spans, work / f"spans_{index}.npz")
            found, best_q, truth_ari = check_outputs(out, data, workload.runs, workload.periods)
        except (ChildFailed, OSError, ValueError, KeyError, IndexError) as exc:
            failed += 1
            problems.append(f"{command} {index}: {exc!r}")
            return None
        digest = tree_digest(out)
        if digests and digest not in digests:
            found.append(f"output tree {digest} differs from {sorted(digests)[0]}")
        if found:
            failed += 1
            problems.extend(f"{command} {index}: {p}" for p in found)
        digests.add(digest)
        quality.add((best_q, truth_ari))
        return report

    minimum = MIN_TRACED_PAIRS if traced else MIN_PIPELINES
    while (len(untraced) < minimum or elapsed() < seconds) and elapsed() < DEADLINE_S:
        shutil.rmtree(out, ignore_errors=True)
        report = attempt("pipeline", False)
        if report is None:
            continue
        untraced.append(report)
        if traced:
            shutil.rmtree(out, ignore_errors=True)
            report = attempt("pipeline", True)
            if report is not None:
                traced_runs.append(report)
    if not untraced or (traced and not traced_runs):
        raise ChildFailed(f"no pipeline succeeded: {problems}")

    result = {
        "workload": name,
        "params": workload.params(seed),
        "environment": environment,
        "output_digest": sorted(digests),
        "dataset_digest": sorted(data_digests),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    untraced_wall = _median([r["wall_s"] for r in untraced])
    later = {f"{stage}_s": [r["stages"][stage][0] for r in untraced] for stage in LATER_STAGES}
    result["later_stages"] = {key: {"value": _median(v), "unit": "s", "samples": len(v)}
                              for key, v in later.items()}
    if traced:
        repeats = [_counts(r) for r in traced_runs]
        if any(c != repeats[0] for c in repeats) or any(
            _counts(s) != _counts(setups[0]) for s in setups
        ):
            problems.append("a count differs between two traced runs")
        per_run = [_layer_metrics(r, setups[i % len(setups)], untraced_wall)
                   for i, r in enumerate(traced_runs)]
        metrics = {
            key: (_median([m[key][0] for m in per_run]), unit, len(per_run))
            for key, (_, unit) in per_run[0].items()
        }
        for key, v in later.items():
            metrics[f"cli.{key}"] = (_median(v), "s", len(v))
        result["self_time_table"] = _self_table(traced_runs[0]["spans"])
    else:
        best_q, truth_ari = sorted(quality)[0]
        samples = {
            "pipeline_s": [r["wall_s"] for r in untraced],
            "setup_s": [r["wall_s"] for r in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "best_q": [best_q],
            "truth_ari": [truth_ari],
        }
        samples["detect_s"] = [r["stages"]["detect"][0] for r in untraced]
        samples.update(later)
        metrics = {
            key: (_median(samples[key]), unit, len(samples[key]))
            for key, unit in END_TO_END
        }
        result["samples"] = samples
    result["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    result["correct"] = not problems and len(quality) == 1
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def _print_report(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  (git {env['git_sha']}, "
          f"src sha256 {env['source_digest'][:16]}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"fixed address layout {env['fixed_address_layout']})")
    print(f"   params: {json.dumps(result['params'], sort_keys=True)}")
    for key, m in result["metrics"].items():
        note = "  (computed, not measured)" if m["unit"] == "B_computed" else ""
        print(f"   {key:32s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}{note}")
    if "samples" in result:
        for key, m in result["later_stages"].items():
            print(f"   {key:32s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}"
                  "  (stage inside the pipeline; not gated)")
    failed_ops = result["failed"] / result["attempted"]
    print(f"   {'failed_ops':32s} {failed_ops:>16.6g} {'share':10s} "
          f"n={result['attempted']}")
    for line in result.get("self_time_table", []):
        print(line)
    print(f"   output digest: {' '.join(result['output_digest'])}")
    print(f"   correct: {result['correct']}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bicomet" / "__init__.py").is_file():
        print(f"error: no bicomet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    environment = dict(_environment(), fixed_address_layout=_fix_child_layout())
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        environment))
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_report(results[-1])
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
            for r in results for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
