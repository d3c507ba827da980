"""Deterministic RNG derivation.

Every random draw in the package flows from a single root seed through
`derive_rng(root, *tags)`.  Tags are small ints naming the consumer (one
constant per purpose, plus things like a camera index), so parallel or
reordered evaluation of views cannot change results.
"""

from __future__ import annotations

import numpy as np

# Purpose tags.  Never reuse a value; append only.
TAG_SCENE = 1
TAG_SCORES = 2
TAG_MASKS = 3
TAG_FEATURES = 4
TAG_EMBEDDINGS = 5
TAG_MODEL = 6
TAG_SHUFFLE = 7
TAG_SOURCE = 8
TAG_PALETTE = 9
TAG_DESCRIPTOR = 10
TAG_GRADCHECK = 11
# 12 (TAG_SUITE, which no stream used) is retired.

# Root seeds must lie in [0, SEED_BOUND): derive_rng keys its streams by
# the low 32 bits, so a seed outside would alias an in-range one.
SEED_BOUND = 2 ** 32


def derive_rng(root_seed: int, *tags: int) -> np.random.Generator:
    """Return a PCG64 generator keyed by (root_seed, *tags)."""
    entropy = [int(root_seed) & 0xFFFFFFFF] + [int(t) & 0xFFFFFFFF for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
