"""Output checks and quality figures computed from a pipeline's output tree.

Nothing here imports bicomet: the checks read the files a user would read,
and the adjusted Rand index against the planted truth is computed
independently of ``bicomet.metrics``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path


def tree_digest(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of every file matching
    ``pattern`` under ``root``, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _best_partition(path: Path) -> dict[str, int]:
    return {node: int(community) for node, _, community in _rows(path)[1:]}


def _comb2(values) -> int:
    return sum(v * (v - 1) // 2 for v in values)


def ari(labels_a: dict, labels_b: dict) -> float:
    """Adjusted Rand index over the nodes both labelings cover."""
    common = labels_a.keys() & labels_b.keys()
    cells = Counter((labels_a[n], labels_b[n]) for n in common)
    rows, cols = Counter(), Counter()
    for (a, b), count in cells.items():
        rows[a] += count
        cols[b] += count
    together = _comb2(cells.values())
    sum_a, sum_b = _comb2(rows.values()), _comb2(cols.values())
    expected = sum_a * sum_b / _comb2([len(common)])
    top = (sum_a + sum_b) / 2
    if top == expected:
        return 1.0
    return (together - expected) / (top - expected)


def _catalog_values(data_dir: Path) -> dict[str, dict[str, str]]:
    by_category: dict[str, dict[str, str]] = defaultdict(dict)
    for node, category, value in _rows(data_dir / "attributes.csv"):
        by_category[category][node] = value
    return by_category


def check_outputs(out: Path, data_dir: Path, runs: int, periods: int):
    """Problems found in one pipeline output tree, and its quality figures.

    Returns (problems, best_q, truth_ari).
    """
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    labels = sorted(summary)
    expect(len(labels) == periods, f"run_summary.json has {len(labels)} periods")
    entries = sum(len(summary[p]["runs"]) for p in labels)
    expect(entries == runs * periods,
           f"run_summary.json lists {entries} runs, expected {runs} x {periods}")

    best = {p: _best_partition(out / "partitions" / p / "best.csv") for p in labels}
    sizes = [len(set(best[p].values())) for p in labels]
    expected_links = sum(a * b for a, b in zip(sizes, sizes[1:]))
    links = _rows(out / "links.csv")[1:]
    expect(len(links) == expected_links,
           f"links.csv has {len(links)} rows, expected {expected_links}")

    catalog = _catalog_values(data_dir)
    expected_records = 0
    for p, size in zip(labels, sizes):
        values = sum(
            len({v for node, v in assigned.items() if node in best[p]})
            for assigned in catalog.values()
        )
        expected_records += values * size
    records = _rows(out / "enrichment_records.csv")[1:]
    expect(len(records) == expected_records,
           f"enrichment_records.csv has {len(records)} rows, expected {expected_records}")

    pvalues = [float(row[5]) for row in links] + [float(row[8]) for row in records]
    dag = json.loads((out / "evolution.json").read_text(encoding="utf-8"))
    pvalues += [edge["p_value"] for edge in dag["edges"]]
    bad = [p for p in pvalues if not 0.0 <= p <= 1.0]
    expect(not bad, f"{len(bad)} p-values outside [0, 1], e.g. {bad[:3]}")

    truth = defaultdict(dict)
    for node, period, community in _rows(data_dir / "ground_truth.csv")[1:]:
        truth[period][node] = int(community)
    best_q = math.fsum(summary[p]["best_modularity"] for p in labels) / len(labels)
    truth_ari = math.fsum(ari(best[p], truth[p]) for p in labels) / len(labels)
    return problems, best_q, truth_ari
