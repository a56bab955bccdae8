"""Deterministic derivation of independent random streams from one master seed.

Every stochastic component of the package draws from a generator keyed by
``derive_seed(master_seed, *path)`` where the path is a short tuple of small
integers naming the consumer (stream kind, period index, run index, ...).
Identical master seeds therefore reproduce identical results regardless of
execution order or parallelism.
"""

from __future__ import annotations

import numpy as np

# Stream-kind constants.  These are part of the reproducibility contract:
# changing them changes every derived stream.
STREAM_BRIM_RUN = 1
# 2 is retired; never reuse it
STREAM_SYNTH_EDGES = 3
STREAM_SYNTH_CHURN = 4
STREAM_SYNTH_EVENTS = 5
STREAM_SYNTH_CATALOG = 6
STREAM_DETECT_PERIOD = 7


def derive_seed(master_seed: int, *path: int) -> int:
    """Return the 64-bit child seed for the stream addressed by ``path``.

    Uses ``numpy.random.SeedSequence`` spawn keys, so distinct paths give
    statistically independent streams and the mapping is stable across
    processes and platforms.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0])


def generator(master_seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator (Philox) for the stream addressed by ``path``."""
    return np.random.Generator(np.random.Philox(key=derive_seed(master_seed, *path)))
