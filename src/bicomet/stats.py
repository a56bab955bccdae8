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
    lo, hi = params.support()
    if n_overlap < 0 or n_overlap > min(params.successes, params.draws):
        raise ValueError(
            f"overlap {n_overlap} outside [0, min(successes, draws)] for {params}"
        )
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


def overlap_tests(rows, cols, marked, drawn, population: int):
    """(overlaps, p_values) of the cross-tabulation of ``rows`` against
    ``cols``, two int arrays of one label per item, as ``len(marked)`` by
    ``len(drawn)`` nested lists.

    Cell (i, j) counts the items labelled i and j; its p-value is
    ``overlap_pvalue`` of that count in a population of ``population`` items
    with ``marked[i]`` marked and ``drawn[j]`` drawn.  An empty cell gets
    exactly 1, with no kernel call.
    """
    n_rows, n_cols = len(marked), len(drawn)
    overlaps = np.bincount(
        rows * n_cols + cols, minlength=n_rows * n_cols
    ).reshape(n_rows, n_cols).tolist()
    p_values = [
        [
            overlap_pvalue(x, HypergeomParams(population, m, k)) if x else 1.0
            for x, k in zip(row, drawn)
        ]
        for row, m in zip(overlaps, marked)
    ]
    return overlaps, p_values


def bonferroni_threshold(p_univariate: float, n_tests: int) -> float:
    """Family-wise threshold: the univariate threshold divided by the test count."""
    if not 0.0 < p_univariate <= 1.0:
        raise ValueError(f"univariate threshold must be in (0, 1], got {p_univariate}")
    if n_tests < 1:
        raise ValueError(f"number of tests must be >= 1, got {n_tests}")
    return p_univariate / n_tests
