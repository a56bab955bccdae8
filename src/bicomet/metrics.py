"""Partition comparison: the adjusted Rand index.

The ARI is evaluated in exact integer arithmetic (all terms are binomial
counts scaled by a common denominator), so identical partitions score
exactly 1.0 and hand-checkable cases come out as exact rationals.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .brim import Partition
from .errors import InputError


def _codes(labels):
    """The labels that occur, ascending, and every label's index among them.

    Labels are non-negative and below the community count, so one
    ``bincount`` finds them and a lookup array numbers them.
    """
    sizes = np.bincount(labels)
    present = np.flatnonzero(sizes)
    lookup = np.zeros(sizes.size, dtype=np.int64)
    lookup[present] = np.arange(present.size)
    return present, lookup[labels]


def _shared_codes(partition_a: Partition, partition_b: Partition):
    """``_codes`` of both partitions' labels over their shared nodes."""
    labels_a, labels_b = partition_a.shared_labels(partition_b)
    if labels_a.size == 0:
        raise InputError("partitions share no nodes")
    return _codes(labels_a), _codes(labels_b)


def _pair_count(sizes) -> int:
    """Sum of C(size, 2) over an int array of group sizes, exact."""
    return int(np.dot(sizes, sizes - 1)) // 2


def _together(codes_a, n_a: int, codes_b, n_b: int) -> int:
    """Node pairs in one community of both partitions, from every node's
    community codes (below ``n_a`` and ``n_b``): the sum of C(count, 2) over
    the cells of their contingency table.

    The cells are one ``bincount`` while the n_a x n_b table fits in 2n
    cells, and otherwise the runs of the sorted cell keys, so memory is
    O(n), never n_a x n_b.
    """
    key = codes_a * n_b + codes_b
    if n_a * n_b <= 2 * key.size:
        return _pair_count(np.bincount(key))
    key.sort()
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    return _pair_count(np.diff(bounds))


def _ari(together: int, sum_a: int, sum_b: int, n: int) -> float:
    """The ARI from exact pair counts: ``together`` node pairs share a
    community in both partitions, ``sum_a`` and ``sum_b`` in each one."""
    pairs = n * (n - 1) // 2
    numerator = 2 * (together * pairs - sum_a * sum_b)
    denominator = (sum_a + sum_b) * pairs - 2 * sum_a * sum_b
    if denominator == 0:
        # the denominator is sum_a * (pairs - sum_b) + sum_b * (pairs - sum_a),
        # zero only when both partitions are all singletons or both one
        # block: they agree exactly
        return 1.0
    return numerator / denominator


def adjusted_rand_index(partition_a: Partition, partition_b: Partition) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    Computed on the shared nodes; 1 for identical partitions, about 0 for
    independent ones, possibly negative.  Requires at least 2 shared nodes.
    """
    (row_labels, rows), (col_labels, cols) = _shared_codes(partition_a, partition_b)
    n = rows.size
    if n < 2:
        raise InputError("adjusted Rand index needs at least 2 shared nodes")
    together = _together(rows, row_labels.size, cols, col_labels.size)
    sum_a, sum_b = _pair_count(np.bincount(rows)), _pair_count(np.bincount(cols))
    return _ari(together, sum_a, sum_b, n)


def all_pairs_ari(partitions: list[Partition]) -> tuple[float, float, int]:
    """Mean, sample standard deviation, and count over all distinct pairs.

    With 20 partitions that is 190 pairs.  Every partition must cover the
    first one's node set (InputError otherwise); each is aligned to its node
    order once, and each pair is counted by ``_together``.  The values equal
    ``adjusted_rand_index`` of every pair.  The standard deviation uses the
    n-1 denominator and is 0.0 when only one pair exists.
    """
    if len(partitions) < 2:
        raise InputError("need at least 2 partitions to compare")
    nodes = partitions[0].nodes
    n = len(nodes)
    if n < 2:
        raise InputError("adjusted Rand index needs at least 2 shared nodes")
    aligned, n_labels, pair_sums = [], [], []
    for partition in partitions:
        position = partition.positions_of(nodes)
        if partition.labels.size != n or (position < 0).any():
            raise InputError("partitions to compare cover different node sets")
        present, code = _codes(partition.labels[position])
        aligned.append(code)
        n_labels.append(present.size)
        pair_sums.append(_pair_count(np.bincount(code)))
    codes = np.stack(aligned)
    values = [
        _ari(_together(codes[i], n_labels[i], codes[j], n_labels[j]),
             pair_sums[i], pair_sums[j], n)
        for i, j in combinations(range(len(partitions)), 2)
    ]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std, len(values)
