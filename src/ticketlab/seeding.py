"""Deterministic RNG streams, keyed by (seed, purpose).

Each run derives independent generators for initialization, batch
shuffling, stochastic mask sampling, and evaluation-time sampling from a
single user seed. Streams with the same (seed, purpose) reproduce the same
sequence in any run, which is what lets a masked run and its dense
counterpart share initial weights and batch order exactly. Generators are
never shared between concurrently executing runs; each run constructs its
own.
"""
from __future__ import annotations

import numpy as np

STREAM_DATA = 101
STREAM_INIT = 202
STREAM_SHUFFLE = 303
STREAM_MASK = 404
STREAM_EVAL = 505


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))

