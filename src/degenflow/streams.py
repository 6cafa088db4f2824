"""Deterministic named random substreams.

All randomness in the toolkit flows from one root seed through named
substreams so that every experiment (and every path block inside one) is
individually reproducible.  A substream is addressed by a dotted path such
as ``"bismut.gradient.0"``; the name is hashed into the spawn key of a
``SeedSequence``, which makes the derivation stable across platforms and
process boundaries.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *path: str) -> np.random.Generator:
    """Return a generator for the substream named by ``path`` under ``seed``.

    The same (seed, path) pair always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    name = "/".join(path)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=words))
