"""LRU block cache shared by all SSTables of one server's store.

Blocks are identified by ``(table_id, block_no)``. The cache does not hold
real bytes — the SSTables are already in process memory — it exists to decide
whether an access *would* have hit the OS page cache, which is what the cost
model charges for. The paper's evaluations run from a cold start "to force
disk access"; :meth:`clear` provides exactly that.
"""

from __future__ import annotations

from collections import OrderedDict


class BlockCache:
    """Fixed-capacity LRU set of block ids.

    ``capacity_blocks=0`` disables caching (every access is a miss), which is
    how cold-start experiments keep revisits honest.
    """

    def __init__(self, capacity_blocks: int = 0):
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be >= 0")
        self.capacity = capacity_blocks
        self._blocks: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, table_id: int, block_no: int) -> bool:
        """Record an access; True if it was a cache hit."""
        if self.capacity == 0:
            self.misses += 1
            return False
        key = (table_id, block_no)
        if key in self._blocks:
            self._blocks.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._blocks[key] = None
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
            self.evictions += 1
        return False

    def invalidate_table(self, table_id: int) -> None:
        """Drop all blocks of one table (after compaction retires it)."""
        stale = [k for k in self._blocks if k[0] == table_id]
        for k in stale:
            del self._blocks[k]

    def clear(self) -> None:
        """Cold start: empty the cache but keep hit/miss counters."""
        self._blocks.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats_dict(self) -> dict[str, int]:
        """Counter snapshot for the observability registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_blocks": len(self._blocks),
        }
