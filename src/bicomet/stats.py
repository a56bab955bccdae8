"""Numerically stable combinatorics and hypergeometric tail probabilities.

The temporal tracker and the attribute enrichment test both reduce to upper
tails of a hypergeometric distribution, and both run them through
``overlap_tests`` over one cross-tabulation.  Those tails routinely sit far below
the Bonferroni thresholds they are compared against (1e-7 and smaller).  A
tail is one log-space pmf anchor at its first term times a sum of terms
relative to that anchor, each obtained from the previous one by the pmf
ratio, so the only big-integer work per test is the anchor's three binomial
coefficients.  The sum is taken on the light side of the distribution mean,
which avoids catastrophic cancellation.

``overlap_pvalue`` is the one test; ``overlap_tests`` gives the same bits for
every cell of a cross-tabulation without calling it.  It walks the terms of
all cells together as numpy arrays, a block of steps at a time, takes each
binomial coefficient once per call from a memo, and finishes each tail with
the same ``math`` calls, which holds while the population is below 9.4e7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this cutoff for min(k, n-k) the binomial coefficient is evaluated
# exactly as a big integer; math.log of an int is correctly rounded, so the
# result is accurate to a few ulp.  Above it, the log-gamma route is within
# ~2e-13 relative error (the cancellation that ruins log-gamma for tiny k no
# longer bites once ln C(n,k) is a few thousand).
_EXACT_K_MAX = 1024


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k).

    Accurate to better than 1e-12 relative error for n up to 1e6.
    Raises ValueError unless 0 <= k <= n.
    """
    if k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    kk = min(k, n - k)
    if kk == 0:
        return 0.0
    if kk <= _EXACT_K_MAX:
        return math.log(math.comb(n, kk))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class HypergeomParams:
    """Parameters of a hypergeometric draw.

    ``population`` items total, of which ``successes`` are marked; ``draws``
    items are taken without replacement.
    """

    population: int
    successes: int
    draws: int

    def __post_init__(self):
        n, m, k = self.population, self.successes, self.draws
        if n < 0 or m < 0 or k < 0:
            raise ValueError(f"negative hypergeometric parameter: {self}")
        if m > n:
            raise ValueError(f"successes {m} exceed population {n}")
        if k > n:
            raise ValueError(f"draws {k} exceed population {n}")

    def support(self) -> tuple[int, int]:
        """Inclusive range of attainable success counts."""
        lo = max(0, self.draws + self.successes - self.population)
        hi = min(self.successes, self.draws)
        return lo, hi


def _log_pmf(x: int, params: HypergeomParams) -> float:
    n, m, k = params.population, params.successes, params.draws
    return (
        log_binomial(m, x)
        + log_binomial(n - m, k - x)
        - log_binomial(n, k)
    )


def hypergeom_pmf(x: int, params: HypergeomParams) -> float:
    """P(X = x) for X hypergeometric with ``params``; 0 outside the support."""
    lo, hi = params.support()
    if x < lo or x > hi:
        return 0.0
    return min(math.exp(_log_pmf(x, params)), 1.0)


# Tail terms below this fraction of the first term are dropped.  The pmf is
# log-concave, so the terms after that shrink at least geometrically and sum
# to far less than the rounding error of the result.
_TAIL_STOP = 1e-18


def _check_overlap(n_overlap: int, params: HypergeomParams) -> None:
    if n_overlap < 0 or n_overlap > min(params.successes, params.draws):
        raise ValueError(
            f"overlap {n_overlap} outside [0, min(successes, draws)] for {params}"
        )


def overlap_pvalue(n_overlap: int, params: HypergeomParams) -> float:
    """Upper-tail probability P(X >= n_overlap).

    Above the distribution mean the upper tail is summed directly, from
    ``n_overlap`` upwards; at or below it the result is one minus the lower
    sum, from ``n_overlap - 1`` downwards, which is accurate because it is of
    order 1.  Either sum starts from one log-space anchor, the log pmf of its
    first term, and steps by the exact ratio
    P(x+1)/P(x) = (m-x)(k-x) / ((x+1)(N-m-k+x+1)), or its inverse, summing
    the terms relative to the anchor with ``math.fsum`` until one falls below
    1e-18 of the first.  The anchor is applied last, in log space, so tiny
    p-values keep full relative precision instead of underflowing.
    """
    _check_overlap(n_overlap, params)
    lo, hi = params.support()
    if n_overlap <= lo:
        return 1.0
    n, m, k = params.population, params.successes, params.draws
    upper = n_overlap * n > k * m
    x = n_overlap if upper else n_overlap - 1
    anchor = _log_pmf(x, params)
    terms = [1.0]
    term = 1.0
    if upper:
        while x < hi:
            term *= (m - x) * (k - x) / ((x + 1) * (n - m - k + x + 1))
            if term < _TAIL_STOP:
                break
            terms.append(term)
            x += 1
    else:
        while x > lo:
            term *= x * (n - m - k + x) / ((m - x + 1) * (k - x + 1))
            if term < _TAIL_STOP:
                break
            terms.append(term)
            x -= 1
    tail = math.exp(anchor + math.log(math.fsum(terms)))
    p = tail if upper else 1.0 - tail
    return min(max(p, 0.0), 1.0)


# steps of the tail walk that one block takes for every cell still walking
_BLOCK = 8


def overlap_tests(rows, cols, marked, drawn, population: int):
    """(overlaps, p_values) of the cross-tabulation of ``rows`` against
    ``cols``, two int arrays of one label per item, as ``len(marked)`` by
    ``len(drawn)`` nested lists.

    Cell (i, j) counts the items labelled i and j; its p-value is
    ``overlap_pvalue`` of that count in a population of ``population`` items
    with ``marked[i]`` marked and ``drawn[j]`` drawn, bit for bit.  An empty
    cell gets exactly 1.  A non-empty cell that ``overlap_pvalue`` would
    reject raises its ValueError, the first such cell in row-major order.

    The non-empty cells are walked together, without ``overlap_pvalue``:
    each picks its side of the mean by the integer test ``x·N > k·m`` and
    steps by the pmf ratio ``_BLOCK`` steps at a time, each block one
    ``np.multiply.accumulate`` from the last term of the block before, until
    its first term below ``_TAIL_STOP`` or the end of its support.  Only the
    cells still walking take the next block.  A ratio's numerator and
    denominator are integers below N², so its float quotient is Python's
    correctly rounded ``int / int`` while N < 9.4e7 (N² < 2**53).  Each
    anchor is ``(a + b) - c`` of three ``log_binomial`` values, looked up in
    a memo that lives for this call, and each tail goes through
    ``math.fsum``, ``math.log`` and ``math.exp`` as in ``overlap_pvalue``.
    """
    n_rows, n_cols = len(marked), len(drawn)
    counts = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    overlaps = counts.reshape(n_rows, n_cols).tolist()
    flat = [1.0] * counts.size
    cells = np.flatnonzero(counts)
    if cells.size:
        row, col = np.divmod(cells, n_cols)
        x = counts[cells]
        m = np.asarray(marked, dtype=np.int64)[row]
        k = np.asarray(drawn, dtype=np.int64)[col]
        n = population
        bad = (n < 0) | (m < 0) | (k < 0) | (m > n) | (k > n) | (x > np.minimum(m, k))
        if bad.any():
            i, j = row[bad][0], col[bad][0]
            _check_overlap(overlaps[i][j], HypergeomParams(n, marked[i], drawn[j]))
        for cell, p in zip(cells.tolist(), _tails(x, m, k, n)):
            flat[cell] = p
    return overlaps, [flat[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]


class _LogBinomials(dict):
    """``log_binomial`` by (n, k), each computed on its first lookup."""

    def __missing__(self, key):
        value = self[key] = log_binomial(*key)
        return value


def _tails(x, m, k, n: int) -> list[float]:
    """``overlap_pvalue`` of each valid cell (x, m, k) in population ``n``."""
    lo = np.maximum(k + m - n, 0)
    upper = x * n > k * m
    start = np.where(upper, x, x - 1)
    tested = x > lo
    p = [1.0] * x.size
    index = np.flatnonzero(tested)
    if not index.size:
        return p
    m, k, lo, upper, start = (a[tested] for a in (m, k, lo, upper, start))
    steps = np.where(upper, np.minimum(m, k) - start, start - lo)
    # y steps from y0 by ±1: the ratio at step y is a(y) / b(y) upwards and
    # b(y) / a(y) downwards, a(y) = (m-y)(k-y) and b(y) = (y+1)(N-m-k+y+1);
    # as floats, all of these integers are exact
    y0 = np.where(upper, start, start - 1).astype(np.float64)
    dy = np.where(upper, 1.0, -1.0)
    mf, kf = m.astype(np.float64), k.astype(np.float64)
    cf = n - mf - kf + 1.0
    cell = np.arange(index.size)
    kept_cells, kept_terms = [cell], [np.ones(index.size)]
    walking = cell[steps > 0]
    term = np.ones(walking.size)
    step = np.arange(_BLOCK, dtype=np.float64)
    done = 0
    while walking.size:
        w = walking[:, None]
        at = step + done
        y = y0[w] + dy[w] * at
        a = (mf[w] - y) * (kf[w] - y)
        b = (y + 1.0) * (cf[w] + y)
        up = upper[w]
        # a step past the end of the support is a ratio of 0, so a cell's
        # walk stops at its first term below _TAIL_STOP either way
        ratio = np.divide(
            np.where(up, a, b), np.where(up, b, a),
            out=np.zeros(a.shape), where=at < steps[w],
        )
        del y, a, b
        ratio[:, 0] *= term
        np.multiply.accumulate(ratio, axis=1, out=ratio)
        keep = np.logical_and.accumulate(ratio >= _TAIL_STOP, axis=1)
        kept_terms.append(ratio[keep])
        kept_cells.append(np.broadcast_to(w, keep.shape)[keep])
        going = keep[:, -1]
        walking, term = walking[going], ratio[going, -1]
        done += _BLOCK
    cell = np.concatenate(kept_cells)
    order = np.argsort(cell, kind="stable")
    terms = np.concatenate(kept_terms)[order].tolist()
    ends = np.cumsum(np.bincount(cell, minlength=index.size)).tolist()
    memo = _LogBinomials()
    begin = 0
    for i, end, mi, ki, s, up in zip(
        index.tolist(), ends, m.tolist(), k.tolist(), start.tolist(), upper.tolist()
    ):
        anchor = memo[mi, s] + memo[n - mi, ki - s] - memo[n, ki]
        tail = math.exp(anchor + math.log(math.fsum(terms[begin:end])))
        begin = end
        p[i] = min(max(tail if up else 1.0 - tail, 0.0), 1.0)
    return p


def bonferroni_threshold(p_univariate: float, n_tests: int) -> float:
    """Family-wise threshold: the univariate threshold divided by the test count."""
    if not 0.0 < p_univariate <= 1.0:
        raise ValueError(f"univariate threshold must be in (0, 1], got {p_univariate}")
    if n_tests < 1:
        raise ValueError(f"number of tests must be >= 1, got {n_tests}")
    return p_univariate / n_tests
