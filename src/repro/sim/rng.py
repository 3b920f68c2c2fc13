"""Named, seeded random streams.

Every stochastic component seeds its own stream from a single experiment
seed and the stream's name, so adding a new random consumer never perturbs
the draws of existing ones — a standard reproducibility idiom for simulation
studies.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator

import numpy as np

#: doubles one ``uniform_stream`` draws per numpy call
UNIFORM_BLOCK = 256


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def uniform_stream(seed: int) -> Iterator[float]:
    """The doubles of ``np.random.default_rng(seed).uniform()`` called once
    per ``next``, drawn :data:`UNIFORM_BLOCK` at a time.

    ``Generator.random(n)`` yields the same doubles as ``n`` scalar
    ``uniform()`` calls and leaves the generator in the same state, so the
    stream is the scalar one at a list step per draw instead of a numpy
    call. The generator is private to the stream: nothing else may draw from
    it, because the stream runs up to one block ahead of its reader."""
    rng = np.random.default_rng(seed)
    return itertools.chain.from_iterable(
        iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
    )
