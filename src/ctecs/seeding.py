"""Deterministic RNG stream derivation.

One 64-bit master seed drives every run.  Submodule streams are derived by
labeled splitting: ``derive_rng(seed, label, index)`` builds a generator
from ``SeedSequence(seed, spawn_key=(label, index))``, so any stream can be
reconstructed independently of execution order.

Label registry (stable; new labels append only):
    0  instance generation
    1  coefficient estimation / table construction
    2  output sampling
    3  noise post-processing (model-B bit flips)
    4  verification suites
"""

from __future__ import annotations

import numpy as np

LABEL_GENERATE = 0
LABEL_TABLE = 1
LABEL_SAMPLE = 2
LABEL_NOISE = 3
LABEL_VERIFY = 4


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))
