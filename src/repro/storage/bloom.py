"""Bloom filter over byte keys.

Each SSTable carries one so that point reads skip tables that cannot contain
the key — the same role RocksDB's per-file bloom filters play. The table
builds it on the first point read whose key falls in its key range, not at
flush: a range scan never consults a filter, and the grouped and interleaved
edge layouts read by scan only. The filter is a plain Python ``bytearray``
bitset with double hashing (Kirsch–Mitzenmacher), which is plenty fast at
the scales the simulation runs at.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable


def _hash_pair(key: bytes) -> tuple[int, int]:
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full period
    return h1, h2


class BloomFilter:
    """Fixed-size bloom filter sized for ``expected_items`` at ``fp_rate``."""

    __slots__ = ("nbits", "nhashes", "_bits", "count", "probes", "negatives")

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not (0.0 < fp_rate < 1.0):
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        ln2 = math.log(2.0)
        nbits = max(8, int(-expected_items * math.log(fp_rate) / (ln2 * ln2)))
        self.nbits = nbits
        self.nhashes = max(1, round(nbits / expected_items * ln2))
        self._bits = bytearray((nbits + 7) // 8)
        self.count = 0
        #: membership probes answered, and how many said "definitely absent"
        #: (the I/O the filter saved; probes - negatives - true hits = FPs,
        #: which the LSM store counts when the table probe comes up empty).
        self.probes = 0
        self.negatives = 0

    def add(self, key: bytes) -> None:
        h1, h2 = _hash_pair(key)
        for i in range(self.nhashes):
            bit = (h1 + i * h2) % self.nbits
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def update(self, keys: Iterable[bytes]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: bytes) -> bool:
        self.probes += 1
        h1, h2 = _hash_pair(key)
        for i in range(self.nhashes):
            bit = (h1 + i * h2) % self.nbits
            if not self._bits[bit >> 3] & (1 << (bit & 7)):
                self.negatives += 1
                return False
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)
