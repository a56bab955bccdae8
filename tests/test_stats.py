import math
import tracemalloc
import types

import numpy as np
import pytest

from bicomet import stats
from bicomet.stats import (
    HypergeomParams,
    bonferroni_threshold,
    hypergeom_pmf,
    log_binomial,
    overlap_pvalue,
)


def exact_pmf(x, n, m, k):
    """Big-integer rational oracle, independent of the log-space route."""
    return math.comb(m, x) * math.comb(n - m, k - x) / math.comb(n, k)


def tolerance(n, k):
    """Relative gate for a tail against its exact value.

    1e-12 while ``log_binomial`` takes every coefficient of the pmf anchor as
    the log of an exact big integer (min(k, n-k) <= 1024); otherwise the
    anchor comes from log-gamma and the large-population gate 1e-10 applies.
    """
    return 1e-12 if min(k, n - k) <= 1024 else 1e-10


def exact_tail(x, n, m, k):
    """P(X >= x) as an exact fraction (numerator, C(n, k)).

    Sums exact integer terms C(m, v) C(n-m, k-v) on the side of x with fewer
    of them, each from its neighbour by exact integer division; the last term
    is checked against math.comb.
    """
    lo, hi = HypergeomParams(n, m, k).support()
    total = math.comb(n, k)
    upper = hi - x + 1 <= x - lo
    first, last = (x, hi) if upper else (lo, x - 1)
    if first > last:  # x <= lo: nothing below x
        return total, total
    term = math.comb(m, first) * math.comb(n - m, k - first)
    numerator = term
    for v in range(first, last):
        term = term * (m - v) * (k - v) // ((v + 1) * (n - m - k + v + 1))
        numerator += term
    assert term == math.comb(m, last) * math.comb(n - m, k - last)
    return (numerator if upper else total - numerator), total


class TestLogBinomial:
    def test_edge_value(self):
        assert log_binomial(5, 0) == 0.0
        assert log_binomial(5, 5) == 0.0

    def test_small_exact_values(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10), rel=1e-14)
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-14)

    @pytest.mark.parametrize("n,k", [(5, -1), (5, 6), (0, 1)])
    def test_rejects_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            log_binomial(n, k)

    def test_accuracy_up_to_1e6(self):
        def reference(n, k):
            # exact integer binomial where affordable, else a compensated
            # sum of logs (absolute error ~1e-9, far below the tolerance)
            kk = min(k, n - k)
            if kk <= 4000:
                return math.log(math.comb(n, kk))
            return math.fsum(
                math.log(n - i) - math.log(i + 1) for i in range(kk)
            )

        rng = np.random.default_rng(0)
        for n in [10, 1000, 10**4, 10**5, 10**6]:
            ks = {1, 2, 3, n // 2, n - 1}
            ks.update(int(v) for v in rng.integers(1, n, size=8))
            for k in ks:
                assert log_binomial(n, k) == pytest.approx(reference(n, k), rel=1e-12)


class TestHypergeomParams:
    @pytest.mark.parametrize(
        "n,m,k", [(5, 6, 2), (5, 2, 6), (-1, 0, 0), (5, -1, 2), (5, 2, -1)]
    )
    def test_rejects_invalid(self, n, m, k):
        with pytest.raises(ValueError):
            HypergeomParams(n, m, k)

    def test_support(self):
        assert HypergeomParams(10, 4, 3).support() == (0, 3)
        assert HypergeomParams(10, 8, 7).support() == (5, 7)


class TestPmf:
    def test_known_values(self):
        assert hypergeom_pmf(1, HypergeomParams(5, 2, 2)) == pytest.approx(0.6, rel=1e-12)
        assert hypergeom_pmf(2, HypergeomParams(4, 2, 2)) == pytest.approx(1 / 6, rel=1e-12)

    def test_no_successes_in_population(self):
        assert hypergeom_pmf(0, HypergeomParams(10, 0, 5)) == 1.0

    def test_outside_support_is_zero(self):
        params = HypergeomParams(10, 4, 3)
        assert hypergeom_pmf(4, params) == 0.0
        assert hypergeom_pmf(-1, params) == 0.0
        low = HypergeomParams(10, 8, 7)
        assert hypergeom_pmf(4, low) == 0.0

    def test_sums_to_one_on_random_grid(self):
        rng = np.random.default_rng(1)
        cases = [
            (int(rng.integers(1, 1500)), None, None) for _ in range(200)
        ] + [(int(rng.integers(5000, 10**4 + 1)), None, None) for _ in range(8)]
        for n, _, _ in cases:
            m = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            params = HypergeomParams(n, m, k)
            lo, hi = params.support()
            total = math.fsum(hypergeom_pmf(x, params) for x in range(lo, hi + 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_exact_rationals_sampled(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 61))
            m = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            params = HypergeomParams(n, m, k)
            lo, hi = params.support()
            x = int(rng.integers(lo, hi + 1))
            expected = exact_pmf(x, n, m, k)
            assert hypergeom_pmf(x, params) == pytest.approx(expected, rel=1e-12)


class TestOverlapPvalue:
    def test_zero_overlap_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            m = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            assert overlap_pvalue(0, HypergeomParams(n, m, k)) == 1.0

    def test_known_values(self):
        assert overlap_pvalue(2, HypergeomParams(4, 2, 2)) == pytest.approx(1 / 6, rel=1e-12)
        assert overlap_pvalue(1, HypergeomParams(5, 2, 2)) == pytest.approx(0.7, rel=1e-12)

    def test_rejects_out_of_range_overlap(self):
        with pytest.raises(ValueError):
            overlap_pvalue(3, HypergeomParams(5, 2, 2))
        with pytest.raises(ValueError):
            overlap_pvalue(-1, HypergeomParams(5, 2, 2))

    def test_non_increasing_in_overlap(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            params = HypergeomParams(n, m, k)
            values = [overlap_pvalue(x, params) for x in range(0, min(m, k) + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_complementarity_with_lower_sum(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            n = int(rng.integers(1, 800 if trial < 290 else 2000))
            m = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            params = HypergeomParams(n, m, k)
            lo, _ = params.support()
            x = int(rng.integers(0, min(m, k) + 1)) if min(m, k) > 0 else 0
            lower = math.fsum(hypergeom_pmf(v, params) for v in range(lo, x))
            assert overlap_pvalue(x, params) + lower == pytest.approx(1.0, abs=1e-10)

    def test_deep_tail_does_not_underflow_to_garbage(self):
        # exact copy of a 50-node community inside 1000 nodes
        p = overlap_pvalue(50, HypergeomParams(1000, 50, 50))
        assert 0.0 < p < 1e-50
        expected = 1.0 / math.comb(1000, 50)
        assert p == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "n,m,k,x",
        [
            # overlaps far above the mean but below the support midpoint:
            # a tail-by-length rule would cancel these against 1 and lose
            # 20+ orders of magnitude
            (4707, 435, 948, 210),
            (3709, 252, 179, 73),
            (1889, 102, 94, 43),
        ],
    )
    def test_mid_support_deep_tails_match_exact_rationals(self, n, m, k, x):
        params = HypergeomParams(n, m, k)
        lo, hi = params.support()
        numerator = sum(
            math.comb(m, v) * math.comb(n - m, k - v) for v in range(x, hi + 1)
        )
        exact = numerator / math.comb(n, k)
        assert exact < 1e-30
        assert overlap_pvalue(x, params) == pytest.approx(exact, rel=1e-12)

    def test_long_tails_match_exact_rationals(self):
        # more than 300 terms on the summed side, so the sum stops at the
        # 1e-18 cut long before the end of the support
        rng = np.random.default_rng(7)
        cases = dict.fromkeys(
            [(side, exact) for side in ("upper", "lower") for exact in (True, False)], 0
        )
        while min(cases.values()) < 6:
            n = int(rng.integers(1000, 5001))
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            params = HypergeomParams(n, m, k)
            lo, hi = params.support()
            x = int(rng.integers(lo + 1, hi + 1)) if hi > lo else lo
            side = "upper" if x * n > k * m else "lower"
            key = (side, tolerance(n, k) == 1e-12)
            if (hi - x + 1 if side == "upper" else x - lo) <= 300 or cases[key] >= 6:
                continue
            cases[key] += 1
            numerator, total = exact_tail(x, n, m, k)
            assert overlap_pvalue(x, params) == pytest.approx(
                numerator / total, rel=tolerance(n, k)
            ), (n, m, k, x)

    def test_tails_at_the_mean_match_exact_rationals(self):
        # x = floor(mean) sums the lower side; x = ceil(mean) sums the upper
        # side unless the mean is an integer
        rng = np.random.default_rng(8)
        cases = [(100, 20, 50), (3000, 1500, 1000)]
        cases += [
            (n, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
            for n in (int(v) for v in rng.integers(2, 3001, size=150))
        ]
        for n, m, k in cases:
            params = HypergeomParams(n, m, k)
            for x in {k * m // n, -(-k * m // n)}:
                numerator, total = exact_tail(x, n, m, k)
                assert overlap_pvalue(x, params) == pytest.approx(
                    numerator / total, rel=tolerance(n, k)
                ), (n, m, k, x)

    def test_big_integer_work_is_one_anchor_per_call(self, monkeypatch):
        counts = {"log_binomial": 0, "comb": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            stats, "log_binomial", counted("log_binomial", stats.log_binomial)
        )
        monkeypatch.setattr(
            stats,
            "math",
            types.SimpleNamespace(**{**vars(math), "comb": counted("comb", math.comb)}),
        )
        # long tails on both sides of the mean, with exact and log-gamma
        # coefficients
        cases = [
            (4707, 435, 948, 210),
            (5000, 2000, 2500, 950),
            (5000, 2000, 2500, 1050),
            (20000, 8000, 6000, 2300),
            (20000, 8000, 6000, 2500),
        ]
        for n, m, k, x in cases:
            counts.update(log_binomial=0, comb=0)
            p = overlap_pvalue(x, HypergeomParams(n, m, k))
            assert 0.0 < p < 1.0
            assert counts["log_binomial"] <= 3, (n, m, k, x, counts)
            assert counts["comb"] <= 3, (n, m, k, x, counts)

    def test_random_large_populations_match_exact_rationals(self):
        # integer arithmetic is exact, so the oracle may sum whichever side
        # has fewer terms and complement against the full count
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 3000))
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            params = HypergeomParams(n, m, k)
            lo, hi = params.support()
            x = int(rng.integers(lo, hi + 1))
            total = math.comb(n, k)
            if hi - x <= x - lo:
                numerator = sum(
                    math.comb(m, v) * math.comb(n - m, k - v)
                    for v in range(x, hi + 1)
                )
            else:
                numerator = total - sum(
                    math.comb(m, v) * math.comb(n - m, k - v)
                    for v in range(lo, x)
                )
            exact = numerator / total
            assert overlap_pvalue(x, params) == pytest.approx(exact, rel=1e-10)


class TestOverlapTests:
    def test_cells_equal_the_per_cell_kernel(self, monkeypatch):
        calls = []

        def counted(x, params):
            calls.append((x, params))
            return overlap_pvalue(x, params)

        monkeypatch.setattr(stats, "overlap_pvalue", counted)
        rng = np.random.default_rng(20)
        for _ in range(40):
            n_rows, n_cols = (int(v) for v in rng.integers(1, 7, size=2))
            n_items = int(rng.integers(0, 60))
            rows = rng.integers(0, n_rows, size=n_items)
            cols = rng.integers(0, n_cols, size=n_items)
            marked = np.bincount(rows, minlength=n_rows).tolist()
            drawn = np.bincount(cols, minlength=n_cols).tolist()
            population = n_items + int(rng.integers(0, 20))
            calls.clear()
            overlaps, p_values = stats.overlap_tests(
                rows, cols, marked, drawn, population
            )
            expected = [[0] * n_cols for _ in range(n_rows)]
            for i, j in zip(rows.tolist(), cols.tolist()):
                expected[i][j] += 1
            assert overlaps == expected
            for i in range(n_rows):
                for j in range(n_cols):
                    x = expected[i][j]
                    p = overlap_pvalue(
                        x, HypergeomParams(population, marked[i], drawn[j])
                    )
                    assert p_values[i][j] == p, (i, j)
                    if not x:
                        assert p_values[i][j] == 1.0
            # the cells are walked as arrays, with no per-cell kernel call
            assert calls == []


def walk(x, n, m, k):
    """(side, terms) of the tail ``overlap_pvalue`` sums for P(X >= x): its
    side of the mean and the number of terms, the first included; (None, 0)
    when x lies at or below the support floor and p is 1."""
    lo, hi = HypergeomParams(n, m, k).support()
    if x <= lo:
        return None, 0
    upper = x * n > k * m
    v = x if upper else x - 1
    term, terms = 1.0, 1
    while v < hi if upper else v > lo:
        if upper:
            term *= (m - v) * (k - v) / ((v + 1) * (n - m - k + v + 1))
        else:
            term *= v * (n - m - k + v) / ((m - v + 1) * (k - v + 1))
        if term < stats._TAIL_STOP:
            break
        terms += 1
        v += 1 if upper else -1
    return ("upper" if upper else "lower"), terms


def crosstab(rng, n):
    """Row and column labels of ``n`` items, the row and column sizes with a
    label of size 0 on each side, and the population: ``n`` or more."""
    n_rows, n_cols = (int(v) for v in rng.integers(2, 7, size=2))
    rows = rng.choice(n_rows, size=n, p=rng.dirichlet(np.ones(n_rows)))
    cols = rng.choice(n_cols, size=n, p=rng.dirichlet(np.ones(n_cols)))
    # items that share their labels lift some cells far above the mean
    shared = rng.random(n) < rng.uniform(0.0, 0.8)
    cols[shared] = rows[shared] % n_cols
    # column n_cols lies whole in row 0: a cell at the top of its support
    whole = rng.random(n) < 0.02
    rows[whole], cols[whole] = 0, n_cols
    floor = rng.random() < 0.3
    if floor:
        # column 0 takes every item outside row 0, so cell (0, 0) sits at
        # its support floor max(0, m + k - N)
        cols[rows != 0] = 0
    marked = np.bincount(rows, minlength=n_rows + 1).tolist()
    drawn = np.bincount(cols, minlength=n_cols + 2).tolist()
    population = n if floor else n + int(rng.integers(0, n // 2))
    return rows, cols, marked, drawn, population


class TestOverlapTestsKernel:
    def test_long_walks_equal_the_per_cell_kernel(self):
        # walks longer than a block on both sides of the mean, cells at and
        # below a support floor above 0, cells at the top of their support,
        # and rows and columns of size 0, for N from 1000 to 5000
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(40):
            rows, cols, marked, drawn, population = crosstab(
                rng, int(rng.integers(1000, 5001))
            )
            overlaps, p_values = stats.overlap_tests(rows, cols, marked, drawn, population)
            for i, (m, row) in enumerate(zip(marked, overlaps)):
                for j, (k, x) in enumerate(zip(drawn, row)):
                    params = HypergeomParams(population, m, k)
                    assert p_values[i][j] == overlap_pvalue(x, params), (i, j)
                    side, terms = walk(x, population, m, k)
                    lo, hi = params.support()
                    seen.add((side, terms > 2 * stats._BLOCK))
                    seen.update(
                        name for name, hit in (
                            ("empty row", m == 0), ("empty column", k == 0),
                            ("x <= lo > 0", 0 < x <= lo),
                            ("x > lo > 0", x > lo > 0), ("x == hi", x == hi > lo),
                        ) if hit
                    )
        assert seen >= {
            ("upper", True), ("lower", True), "empty row", "empty column",
            "x <= lo > 0", "x > lo > 0", "x == hi",
        }

    @pytest.mark.parametrize(
        "marked,drawn,population",
        [
            ([3, 11], [7, 5], 10),   # successes above the population
            ([3, 9], [-1, 5], 10),   # negative draws
            ([3, 1], [2, 2], 12),    # overlap above min(successes, draws)
            ([3, 9], [7, 5], -1),    # negative population
        ],
    )
    def test_invalid_sizes_raise_at_the_first_faulty_cell(self, marked, drawn, population):
        rows = np.array([0, 0, 1, 1, 1, 1])
        cols = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError) as raised:
            stats.overlap_tests(rows, cols, marked, drawn, population)
        # the message of the per-cell call at the first faulty non-empty
        # cell in row-major order
        for i, j, x in ((0, 0, 2), (1, 0, 1), (1, 1, 3)):
            try:
                overlap_pvalue(x, HypergeomParams(population, marked[i], drawn[j]))
            except ValueError as exc:
                assert str(raised.value) == str(exc)
                break
        else:
            pytest.fail("no cell is faulty")

    def test_memory_holds_one_block_of_steps_per_cell(self):
        # 1 + 20 row and column communities of 5000 items: the large pair
        # walks for over a hundred terms where its support allows over a
        # thousand steps, the small ones for a few.  No walk's length is known
        # before it is taken, so a float64 array of every step the supports
        # allow would take 8 bytes per step for every walking cell; the whole
        # call holds less than that one array
        rng = np.random.default_rng(22)
        sizes = [2500] + [125] * 20
        rows = rng.permutation(np.repeat(np.arange(21), sizes))
        cols = rng.permutation(np.repeat(np.arange(21), sizes))
        stats.overlap_tests(rows, cols, sizes, sizes, 5000)
        tracemalloc.start()
        try:
            overlaps, _ = stats.overlap_tests(rows, cols, sizes, sizes, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        walks, steps = [], []
        for m, row in zip(sizes, overlaps):
            for k, x in zip(sizes, row):
                side, terms = walk(x, 5000, m, k)
                lo, hi = HypergeomParams(5000, m, k).support()
                if side is not None:
                    walks.append(terms)
                    steps.append(hi - x if side == "upper" else x - 1 - lo)
        assert max(walks) > 12 * stats._BLOCK
        assert max(steps) > 1000
        assert peak < len(steps) * max(steps) * 8, (peak, len(steps), max(steps))


class TestBonferroni:
    def test_basic_division(self):
        assert bonferroni_threshold(0.01, 1) == 0.01
        assert bonferroni_threshold(0.01, 100) == pytest.approx(1e-4, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bonferroni_threshold(0.01, 0)
        with pytest.raises(ValueError):
            bonferroni_threshold(0.0, 10)
        with pytest.raises(ValueError):
            bonferroni_threshold(1.5, 10)
