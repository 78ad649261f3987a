"""Deterministic RNG substreams derived from one user-facing seed.

Every stochastic component draws from a stream keyed by (seed, purpose
tags) so a single --seed reproduces whole pipelines bit for bit and
components stay independent of each other's draw counts.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _tag_word(tag) -> int:
    # A numpy integer names the stream of the equal Python int; its repr
    # differs from the int's and between numpy versions.
    tag = int(tag) if isinstance(tag, np.integer) else tag
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit seed for the substream named by tags."""
    h = hashlib.sha256()
    h.update((int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    for tag in tags:
        h.update(_tag_word(tag).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little")


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator for the substream named by tags."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(seed, *tags)))
