"""Partition comparison: contingency tables and the adjusted Rand index.

The ARI is evaluated in exact integer arithmetic (all terms are binomial
counts scaled by a common denominator), so identical partitions score
exactly 1.0 and hand-checkable cases come out as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .brim import Partition
from .errors import InputError


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of two partitions over their shared nodes.

    ``counts[i][j]`` is the number of shared nodes in community
    ``row_labels[i]`` of the first partition and ``col_labels[j]`` of the
    second.  Nodes exclusive to one partition are counted, not tabulated.
    """

    counts: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]
    n: int
    exclusive_a: int
    exclusive_b: int


def contingency(partition_a: Partition, partition_b: Partition) -> ContingencyTable:
    """Contingency table over the intersection of the two node sets.

    The shared nodes are counted by one ``bincount`` over the row and column
    labels that occur, so memory is that of the table, never c_a x c_b.
    """
    labels_a, labels_b = partition_a.shared_labels(partition_b)
    n = labels_a.size
    if n == 0:
        raise InputError("partitions share no nodes")
    row_labels, col_labels = np.unique(labels_a), np.unique(labels_b)
    rows = np.searchsorted(row_labels, labels_a)
    cols = np.searchsorted(col_labels, labels_b)
    shape = (row_labels.size, col_labels.size)
    table = np.bincount(
        rows * shape[1] + cols, minlength=shape[0] * shape[1]
    ).reshape(shape)
    counts = tuple(map(tuple, table.tolist()))
    return ContingencyTable(
        counts=counts,
        row_labels=tuple(row_labels.tolist()),
        col_labels=tuple(col_labels.tolist()),
        row_sums=tuple(map(sum, counts)),
        col_sums=tuple(map(sum, zip(*counts))),
        n=n,
        exclusive_a=len(partition_a.nodes) - n,
        exclusive_b=len(partition_b.nodes) - n,
    )


def _is_identity(table: ContingencyTable) -> bool:
    nonzero = sum(1 for row in table.counts for v in row if v)
    return nonzero == len(table.row_labels) == len(table.col_labels)


def adjusted_rand_index(partition_a: Partition, partition_b: Partition) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    Computed on the shared nodes; 1 for identical partitions, about 0 for
    independent ones, possibly negative.  Requires at least 2 shared nodes.
    """
    table = contingency(partition_a, partition_b)
    n = table.n
    if n < 2:
        raise InputError("adjusted Rand index needs at least 2 shared nodes")
    together = sum(math.comb(v, 2) for row in table.counts for v in row)
    sum_a = sum(math.comb(a, 2) for a in table.row_sums)
    sum_b = sum(math.comb(b, 2) for b in table.col_sums)
    pairs = math.comb(n, 2)
    numerator = 2 * (together * pairs - sum_a * sum_b)
    denominator = (sum_a + sum_b) * pairs - 2 * sum_a * sum_b
    if denominator == 0:
        return 1.0 if _is_identity(table) else 0.0
    return numerator / denominator


def all_pairs_ari(partitions: list[Partition]) -> tuple[float, float, int]:
    """Mean, sample standard deviation, and count over all distinct pairs.

    With 20 partitions that is 190 pairs.  The standard deviation uses the
    n-1 denominator and is 0.0 when only one pair exists.
    """
    if len(partitions) < 2:
        raise InputError("need at least 2 partitions to compare")
    values = [
        adjusted_rand_index(a, b) for a, b in combinations(partitions, 2)
    ]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std, len(values)
