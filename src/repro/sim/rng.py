"""Named, seeded random streams.

Every stochastic component seeds its own stream from a single experiment
seed and the stream's name, so adding a new random consumer never perturbs
the draws of existing ones — a standard reproducibility idiom for simulation
studies.
"""

from __future__ import annotations

import hashlib


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
