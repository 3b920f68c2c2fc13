"""The traversal-affiliate cache (paper §V-A).

Per-server cache of served requests keyed by the
``{travel-id, current-step, vertex-id}`` triple. A hit means the identical
request was already served on this server, so the new one can be safely
abandoned — no disk I/O, no downstream dispatch.

Two extensions over the paper's description, both correctness-driven:

* entries remember the rtn *anchor sets* already propagated, so a duplicate
  carrying anchors not seen before is treated as new work instead of being
  dropped (dropping it would lose returns — see DESIGN.md);
* ``travel`` keys include the restart attempt, so a restarted traversal does
  not see its failed predecessor's entries.

Eviction follows the paper's time-based policy: when full, the triples with
the smallest step id of the inserting traversal go first, because a larger
in-flight step id implies the oldest steps are already finished.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.engine.frontier import anchors_union
from repro.ids import VertexId
from repro.net.message import Anchors

TravelKey = Hashable  # (travel_id, attempt)


class TraversalAffiliateCache:
    """Bounded map ``(travel, level, vid) -> anchors already propagated``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # travel -> level -> {vid: anchors}
        self._data: dict[TravelKey, dict[int, dict[VertexId, Anchors]]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._size

    def lookup(self, travel: TravelKey, level: int, vid: VertexId) -> Optional[Anchors]:
        """Anchors already propagated for the triple, or None on miss."""
        levels = self._data.get(travel)
        if levels is None:
            self.misses += 1
            return None
        bucket = levels.get(level)
        if bucket is None or vid not in bucket:
            self.misses += 1
            return None
        self.hits += 1
        return bucket[vid]

    def insert(
        self, travel: TravelKey, level: int, vid: VertexId, anchors: Anchors
    ) -> None:
        """Record that (travel, level, vid) was served with ``anchors``.

        Merges anchors on re-insertion (anchor replay). Evicts when full.
        """
        existing = self._data.get(travel, {}).get(level, {})
        if vid in existing:
            existing[vid] = anchors_union(existing[vid], anchors)
            return
        if self._size >= self.capacity:
            self._evict(travel)
        self._data.setdefault(travel, {}).setdefault(level, {})[vid] = anchors
        self._size += 1

    def _evict(self, inserting_travel: TravelKey) -> None:
        """Drop one triple: smallest step of the inserting traversal, else
        the smallest step of any traversal (arbitrary but deterministic)."""
        victim_travel = None
        levels = self._data.get(inserting_travel)
        if levels:
            victim_travel = inserting_travel
        else:
            for t, lv in self._data.items():
                if lv:
                    victim_travel = t
                    break
        if victim_travel is None:  # pragma: no cover - cache empty yet full
            return
        levels = self._data[victim_travel]
        smallest = min(levels)
        bucket = levels[smallest]
        bucket.pop(next(iter(bucket)))
        if not bucket:
            del levels[smallest]
        if not levels:
            del self._data[victim_travel]
        self._size -= 1
        self.evictions += 1

    def forget_travel(self, travel: TravelKey) -> None:
        """Release everything a finished traversal cached."""
        levels = self._data.pop(travel, None)
        if levels is not None:
            self._size -= sum(len(b) for b in levels.values())

    def forget_travel_prefix(self, travel_id) -> None:
        """Release all attempts of one travel id (keys are (id, attempt))."""
        for key in [k for k in self._data if isinstance(k, tuple) and k[0] == travel_id]:
            self.forget_travel(key)
