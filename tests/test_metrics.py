import math
from itertools import combinations, compress

import numpy as np
import pytest

from bicomet.brim import Partition
from bicomet.errors import InputError
from bicomet.metrics import adjusted_rand_index, all_pairs_ari


def blue_partition(labels, names=None):
    names = names or [str(i + 1) for i in range(len(labels))]
    return Partition.from_arrays((), tuple(names), (), list(labels))


def pair_counting_ari(labels_a, labels_b):
    """Independent oracle: classify every node pair as together/apart."""
    n = len(labels_a)
    ss = sd = ds = dd = 0
    for i, j in combinations(range(n), 2):
        same_a = labels_a[i] == labels_a[j]
        same_b = labels_b[i] == labels_b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    num = 2 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if den == 0:
        return 1.0
    return num / den


class TestAdjustedRandIndex:
    def test_identical_is_exactly_one(self):
        a = blue_partition([0, 0, 1, 1, 2])
        assert adjusted_rand_index(a, a) == 1.0

    def test_crossing_two_by_two(self):
        a = blue_partition([0, 0, 1, 1])
        b = blue_partition([0, 1, 0, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            a = blue_partition(rng.integers(0, 4, size=n).tolist())
            b = blue_partition(rng.integers(0, 4, size=n).tolist())
            assert adjusted_rand_index(a, b) == pytest.approx(
                adjusted_rand_index(b, a), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            labels = rng.integers(0, 4, size=n).tolist()
            other = rng.integers(0, 4, size=n).tolist()
            k = max(labels) + 1
            perm = rng.permutation(k).tolist()
            relabeled = [perm[g] for g in labels]
            a, a2 = blue_partition(labels), blue_partition(relabeled)
            b = blue_partition(other)
            assert adjusted_rand_index(a, b) == adjusted_rand_index(a2, b)

    def test_degenerate_cases(self):
        singletons = blue_partition([0, 1, 2])
        oneblock = blue_partition([0, 0, 0])
        assert adjusted_rand_index(singletons, singletons) == 1.0
        assert adjusted_rand_index(oneblock, oneblock) == 1.0
        # non-degenerate despite one side being degenerate
        assert adjusted_rand_index(singletons, oneblock) == 0.0

    def test_single_shared_node_rejected(self):
        a = blue_partition([0, 0], names=["1", "2"])
        b = blue_partition([0, 0], names=["2", "3"])
        with pytest.raises(InputError, match="2 shared"):
            adjusted_rand_index(a, b)

    def test_matches_pair_counting_oracle_small(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            la = rng.integers(0, n, size=n).tolist()
            lb = rng.integers(0, n, size=n).tolist()
            got = adjusted_rand_index(blue_partition(la), blue_partition(lb))
            assert got == pytest.approx(pair_counting_ari(la, lb), abs=1e-12)

    def test_random_shuffles_average_near_zero(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 10, size=200).tolist()
        base = blue_partition(labels)
        values = []
        for _ in range(1000):
            shuffled = blue_partition(rng.permutation(labels).tolist())
            values.append(adjusted_rand_index(base, shuffled))
        assert abs(float(np.mean(values))) < 0.05


class TestAllPairsAri:
    def test_twenty_partitions_give_190_pairs(self):
        rng = np.random.default_rng(4)
        partitions = [
            blue_partition(rng.integers(0, 3, size=12).tolist()) for _ in range(20)
        ]
        _, _, pairs = all_pairs_ari(partitions)
        assert pairs == 190

    def test_identical_partitions_mean_one_std_zero(self):
        part = blue_partition([0, 0, 1, 1])
        mean, std, pairs = all_pairs_ari([part] * 20)
        assert mean == 1.0
        assert std == 0.0
        assert pairs == 190

    def test_mixed_triple_means_zero(self):
        a = blue_partition([0, 0, 1, 1])
        b = blue_partition([0, 0, 1, 1])
        c = blue_partition([0, 1, 0, 1])
        mean, std, pairs = all_pairs_ari([a, b, c])
        assert pairs == 3
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_sample_std_denominator(self):
        a = blue_partition([0, 0, 1, 1])
        c = blue_partition([0, 1, 0, 1])
        values = [1.0, -0.5, -0.5]
        mean, std, _ = all_pairs_ari([a, a, c])
        assert std == pytest.approx(float(np.std(values, ddof=1)), abs=1e-12)

    def test_single_pair_std_zero(self):
        a = blue_partition([0, 0, 1, 1])
        c = blue_partition([0, 1, 0, 1])
        _, std, pairs = all_pairs_ari([a, c])
        assert pairs == 1
        assert std == 0.0

    def test_fewer_than_two_rejected(self):
        with pytest.raises(InputError):
            all_pairs_ari([blue_partition([0, 1])])


def dict_cross_table(partition_a, partition_b):
    """Reference oracle: the dict-of-cells cross-tabulation of two partitions
    over their shared nodes, as (rows of cell counts, shared node count)."""
    map_a = dict(zip(partition_a.nodes, partition_a.labels.tolist()))
    map_b = dict(zip(partition_b.nodes, partition_b.labels.tolist()))
    common = map_a.keys() & map_b.keys()
    if not common:
        raise InputError("partitions share no nodes")
    cells = {}
    for node in common:
        key = (map_a[node], map_b[node])
        cells[key] = cells.get(key, 0) + 1
    row_labels = tuple(sorted({i for i, _ in cells}))
    col_labels = tuple(sorted({j for _, j in cells}))
    row_pos = {g: i for i, g in enumerate(row_labels)}
    col_pos = {g: j for j, g in enumerate(col_labels)}
    table = [[0] * len(col_labels) for _ in row_labels]
    for (gi, gj), count in cells.items():
        table[row_pos[gi]][col_pos[gj]] = count
    return table, len(common)


def dict_ari(partition_a, partition_b):
    """Reference oracle: the exact ARI computed from ``dict_cross_table``."""
    table, n = dict_cross_table(partition_a, partition_b)
    together = sum(math.comb(v, 2) for row in table for v in row)
    sum_a = sum(math.comb(sum(row), 2) for row in table)
    sum_b = sum(math.comb(sum(col), 2) for col in zip(*table))
    pairs = math.comb(n, 2)
    numerator = 2 * (together * pairs - sum_a * sum_b)
    denominator = (sum_a + sum_b) * pairs - 2 * sum_a * sum_b
    if denominator == 0:
        nonzero = sum(1 for row in table for v in row if v)
        identity = nonzero == len(table) == len(table[0])
        return 1.0 if identity else 0.0
    return numerator / denominator


def random_partition(rng, names):
    """Random sides, shuffled node order and labels in [0, c), some unused."""
    names = [str(n) for n in rng.permutation(names)]
    n_red = int(rng.integers(0, len(names) + 1))
    c = int(rng.integers(1, len(names) + 3))
    labels = rng.integers(0, c, size=len(names)).tolist()
    return Partition.from_arrays(
        names[:n_red], names[n_red:], labels[:n_red], labels[n_red:], c
    )


def random_pairs(seed, count):
    """Partition pairs over equal, equally ordered, partially overlapping,
    restricted (empty communities) and disjoint node sets."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        pool = [f"n{k}" for k in range(int(rng.integers(2, 40)))]
        a = random_partition(rng, pool)
        kind = i % 5
        if kind == 0:
            b = random_partition(rng, pool)
        elif kind == 1:
            labels = rng.integers(0, 4, size=len(pool)).tolist()
            n_red = len(a.red_nodes)
            b = Partition.from_arrays(
                a.red_nodes, a.blue_nodes, labels[:n_red], labels[n_red:], 4
            )
        elif kind == 2:
            keep = rng.random(len(pool)) < 0.6
            extra = [f"x{k}" for k in range(int(rng.integers(0, 10)))]
            b = random_partition(rng, [n for n, k in zip(pool, keep) if k] + extra)
        elif kind == 3:
            b = random_partition(rng, pool)
            kept = {n for n in pool if rng.random() < 0.5}
            red = [node in kept for node in b.red_nodes]
            blue = [node in kept for node in b.blue_nodes]
            b = Partition.from_arrays(
                compress(b.red_nodes, red), compress(b.blue_nodes, blue),
                b.red_labels[red], b.blue_labels[blue], b.n_communities,
            )
        else:
            half = len(pool) // 2
            a = random_partition(rng, pool[:half])
            b = random_partition(rng, pool[half:])
        yield a, b


class TestCrossTabulationMatchesDictOracle:
    def test_ari_is_exactly_equal_on_random_pairs(self):
        compared = 0
        for a, b in random_pairs(seed=6, count=300):
            if len(set(a.nodes) & set(b.nodes)) < 2:
                continue
            assert adjusted_rand_index(a, b) == dict_ari(a, b)
            assert adjusted_rand_index(b, a) == dict_ari(b, a)
            compared += 1
        assert compared > 200

    def test_empty_partition_shares_no_nodes(self):
        a = blue_partition([0, 1])
        empty = Partition.from_arrays((), (), [], [], a.n_communities)
        with pytest.raises(InputError, match="share no nodes"):
            adjusted_rand_index(empty, a)


def assert_matches_per_pair(partitions):
    """``all_pairs_ari`` equals the per-pair loop bit for bit: every single
    pair, and the mean and deviation of the whole set."""
    values = [adjusted_rand_index(a, b) for a, b in combinations(partitions, 2)]
    for (a, b), value in zip(combinations(partitions, 2), values):
        assert all_pairs_ari([a, b]) == (value, 0.0, 1)
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    assert all_pairs_ari(partitions) == (float(np.mean(values)), std, len(values))


class TestBatchedAllPairsMatchesPerPair:
    def test_random_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            c = int(rng.integers(1, 8))
            runs = [
                blue_partition(rng.integers(0, c, size=n).tolist())
                for _ in range(int(rng.integers(2, 7)))
            ]
            assert_matches_per_pair(runs)

    def test_permuted_node_orders_and_sides(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pool = [f"n{k}" for k in range(int(rng.integers(2, 40)))]
            runs = [random_partition(rng, pool) for _ in range(int(rng.integers(2, 6)))]
            assert_matches_per_pair(runs)

    @pytest.mark.parametrize(
        "labels_a, labels_b, expected",
        [
            ([0, 1, 2, 3], [3, 0, 2, 1], 1.0),  # singletons vs singletons
            ([0, 0, 0, 0], [2, 2, 2, 2], 1.0),  # one block vs one block
            ([0, 1, 2, 3], [0, 0, 0, 0], 0.0),  # singletons vs one block
        ],
    )
    def test_degenerate_partitions(self, labels_a, labels_b, expected):
        a, b = blue_partition(labels_a), blue_partition(labels_b)
        assert adjusted_rand_index(a, b) == dict_ari(a, b) == expected
        assert_matches_per_pair([a, b, a, b])

    @pytest.mark.parametrize(
        "names",
        [
            ["1", "2", "3", "5"],  # one node swapped
            ["1", "2", "3"],  # a subset
            ["1", "2", "3", "4", "5"],  # a superset
        ],
    )
    def test_different_node_sets_rejected(self, names):
        a = blue_partition([0, 0, 1, 1])
        b = blue_partition([0] * len(names), names=names)
        with pytest.raises(InputError, match="different node sets"):
            all_pairs_ari([a, a, b])


class TestPairCountBound:
    # sorted cell keys count the pairs once c_a * c_b > 2n; a dense table below
    @pytest.mark.parametrize("n, c", [(60, 3), (60, 11), (400, 200), (40, 40)])
    def test_both_sides_match_the_per_pair_values(self, n, c):
        rng = np.random.default_rng(n + c)
        runs = [blue_partition(rng.integers(0, c, size=n).tolist()) for _ in range(4)]
        for a, b in combinations(runs, 2):
            assert adjusted_rand_index(a, b) == dict_ari(a, b)
        assert_matches_per_pair(runs)

    def test_two_node_communities_use_the_sorted_keys(self, monkeypatch):
        rng = np.random.default_rng(4)
        runs = [blue_partition(rng.permutation(4000) // 2) for _ in range(6)]
        table_sizes = []
        bincount = np.bincount
        monkeypatch.setattr(
            np, "bincount",
            lambda x, *args, **kwargs: table_sizes.append(x.max() + 1) or bincount(x, *args, **kwargs),
        )
        assert all_pairs_ari(runs)[2] == 15
        adjusted_rand_index(runs[0], runs[1])
        # only the per-run codes and community sizes are counted densely,
        # never a 2000 x 2000 table
        assert max(table_sizes) <= 4000
        monkeypatch.undo()
        assert_matches_per_pair(runs)
