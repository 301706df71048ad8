"""Deterministic named RNG sub-streams.

Every source of randomness in a run hangs off the single master seed through
a stable string key, so adding or removing draws in one consumer never
perturbs any other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator keyed by (master_seed, sha256(name)); stable across runs,
    platforms, and processes."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), key]))


@dataclass(frozen=True)
class RngStreams:
    """The named sub-streams one training run consumes, keyed by field name."""

    data: np.random.Generator          # dataset / problem generation
    theta_init: np.random.Generator    # initial parameter draw
    train_order: np.random.Generator   # training batch shuffles
    val_order: np.random.Generator     # validation batch shuffles
    line_search: np.random.Generator   # step-size sampling on lines
    cv: np.random.Generator            # cross-validation fold shuffles


def rng_streams(master_seed: int) -> RngStreams:
    """Each RngStreams field's generator, keyed by the field's name."""
    return RngStreams(**{f.name: substream(master_seed, f.name) for f in fields(RngStreams)})
