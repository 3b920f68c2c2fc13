"""Immutable sorted string tables (SSTables).

An SSTable is a frozen, key-ordered run of entries with a bloom filter and a
byte-offset index. It is "on disk" for accounting purposes: the LSM store
charges seeks and block reads for every access, using each entry's byte
extent to determine which blocks it spans — exactly the property the paper's
layout exploits (same-label edges adjacent → sequential block reads).

The bloom filter is built by the first probe that reaches it: only point
``get``s probe, so a table that is only ever scanned never pays for one.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Optional, Sequence

from repro.errors import StorageError
from repro.storage.bloom import BloomFilter
from repro.storage.memtable import TOMBSTONE

_table_ids = itertools.count(1)

#: target false-positive rate of every table's bloom filter
BLOOM_FP_RATE = 0.01


class SSTable:
    """One immutable sorted run.

    ``entries`` must be sorted by key and may contain TOMBSTONE values (kept
    so newer tables can mask older ones; dropped by full compaction).
    """

    __slots__ = (
        "table_id", "keys", "values", "offsets", "bloom", "size_bytes",
        "has_tombstones", "__weakref__",
    )

    def __init__(self, entries: Iterable[tuple[bytes, object]]):
        keys: list[bytes] = []
        values: list[object] = []
        offsets: list[int] = [0]
        #: False lets a scan that touches only this table skip the merge
        self.has_tombstones = False
        pos = 0
        prev: Optional[bytes] = None
        for key, value in entries:
            if prev is not None and key <= prev:
                raise StorageError("SSTable entries must be strictly sorted")
            prev = key
            keys.append(key)
            values.append(value)
            if value is TOMBSTONE:
                vlen = 0
                self.has_tombstones = True
            else:
                vlen = len(value)  # type: ignore[arg-type]
            pos += len(key) + vlen + 16  # 16 bytes of per-entry framing
            offsets.append(pos)
        self.table_id = next(_table_ids)
        self.keys = keys
        self.values = values
        self.offsets = offsets
        self.size_bytes = pos
        #: built over ``keys`` by the first in-range :meth:`may_contain`
        self.bloom: Optional[BloomFilter] = None

    def __len__(self) -> int:
        return len(self.keys)

    def may_contain(self, key: bytes) -> bool:
        """Bloom + key-range check; False means definitely absent."""
        keys = self.keys
        if not keys or key < keys[0] or key > keys[-1]:
            return False
        bloom = self.bloom
        if bloom is None:
            bloom = self.bloom = BloomFilter(len(keys), BLOOM_FP_RATE)
            bloom.update(keys)
        return key in bloom

    def find(self, key: bytes) -> Optional[int]:
        """Index of ``key`` or None."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return i
        return None

    def entry_extent(self, index: int) -> tuple[int, int]:
        """Byte range [start, end) of entry ``index`` inside the table file."""
        return self.offsets[index], self.offsets[index + 1]

    def range_indices(self, start: bytes, end: bytes) -> tuple[int, int]:
        """Entry index range [lo, hi) with start <= key < end."""
        lo = bisect.bisect_left(self.keys, start)
        hi = bisect.bisect_left(self.keys, end)
        return lo, hi

    def overlaps(self, start: bytes, end: bytes) -> bool:
        if not self.keys:
            return False
        return self.keys[0] < end and start <= self.keys[-1]


def merge_runs(
    runs: Sequence[Iterable[tuple[bytes, object]]], drop_tombstones: bool
) -> list[tuple[bytes, object]]:
    """Merge runs of ``(key, value)`` pairs, newest first; newer entries win
    on key ties. Returns the unique keys in order.

    One dict fold from the oldest run to the newest (a later write replaces
    an earlier one), then one sort of the unique keys. With
    ``drop_tombstones`` the merged output omits deleted keys entirely (safe
    only for a *full* merge where no older run survives).
    """
    latest: dict[bytes, object] = {}
    for run in reversed(runs):
        latest.update(run)
    if drop_tombstones:
        return [
            (key, value)
            for key in sorted(latest)
            if (value := latest[key]) is not TOMBSTONE
        ]
    return [(key, latest[key]) for key in sorted(latest)]
