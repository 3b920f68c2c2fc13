"""In-memory write buffer (memtable) for the LSM store.

Writes land here first; when the buffered byte size passes a threshold the
LSM store flushes the memtable into an immutable SSTable. Deletes are
recorded as tombstones so they can mask older SSTable entries.

The buffer keeps its key order once it has one: the first range scan after a
clear sorts the keys, and every later new key is inserted in place with
``bisect.insort``. Live ingest interleaves puts with reads of the buffer (a
traversal between two ingest batches), so without that each read after a put
would re-sort the whole buffer. A live edge insert itself does not read the
buffer: it numbers its record from the run count the graph store keeps, and
the read it is charged for (see ``LSMStore.charge_scan``) skips the memtable,
which costs nothing.
"""

from __future__ import annotations

import bisect
from typing import Optional

#: Sentinel stored for deleted keys until compaction drops them.
TOMBSTONE = object()


class Memtable:
    """Hash-indexed write buffer that keeps its key order.

    Point lookups are O(1). The sorted key list is built by the first range
    scan (or flush) after a clear and maintained from then on: a new key is
    inserted into it, an overwrite leaves it as is. This matches the access
    pattern of the traversal workload: bulk loading goes straight to
    SSTables, so the memtable only holds live updates and stays small.
    """

    def __init__(self):
        self._data: dict[bytes, object] = {}
        self._sorted_keys: Optional[list[bytes]] = None
        self.size_bytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key: bytes, value: bytes) -> None:
        old = self._data.get(key)
        if old is None:
            self.size_bytes += len(key) + len(value)
            if self._sorted_keys is not None:
                bisect.insort(self._sorted_keys, key)
        else:
            self.size_bytes += len(value) - (0 if old is TOMBSTONE else len(old))
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        old = self._data.get(key)
        if old is None:
            self.size_bytes += len(key)
            if self._sorted_keys is not None:
                bisect.insort(self._sorted_keys, key)
        elif old is not TOMBSTONE:
            self.size_bytes -= len(old)
        self._data[key] = TOMBSTONE

    def get(self, key: bytes) -> object:
        """Value bytes, TOMBSTONE, or None if absent."""
        return self._data.get(key)

    def _ensure_sorted(self) -> list[bytes]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._data)
        return self._sorted_keys

    def scan(self, start: bytes, end: bytes) -> list[tuple[bytes, object]]:
        """(key, value-or-TOMBSTONE) for start <= key < end, in order."""
        keys = self._ensure_sorted()
        lo = bisect.bisect_left(keys, start)
        hi = bisect.bisect_left(keys, end, lo)
        data = self._data
        return [(key, data[key]) for key in keys[lo:hi]]

    def items_sorted(self) -> list[tuple[bytes, object]]:
        """All entries in key order (used by flush)."""
        data = self._data
        return [(k, data[k]) for k in self._ensure_sorted()]

    def clear(self) -> None:
        self._data.clear()
        self._sorted_keys = None
        self.size_bytes = 0
