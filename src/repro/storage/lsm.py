"""Log-structured merge (LSM) key-value store with I/O cost accounting.

This is the per-server storage engine standing in for RocksDB (paper §VI):
a memtable absorbs writes, immutable SSTables hold flushed data, point reads
consult bloom filters newest-table-first, range scans merge all overlapping
runs, and a full compaction keeps the table count bounded.

Every read operation returns ``(result, IOCost)``; the simulated runtime
turns the cost into virtual disk time. The store itself is real — values put
in come back out — so the traversal engines' correctness is tested against
actual data movement, not a mock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.storage.blockcache import BlockCache
from repro.storage.costmodel import DiskCostModel, GPFS, IOCost
from repro.storage.encoding import prefix_end
from repro.storage.memtable import Memtable, TOMBSTONE
from repro.storage.sstable import SSTable, merge_runs


@dataclass
class LSMStats:
    """Operation counters for one store instance."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    bloom_false_positives: int = 0
    entries_scanned: int = 0
    #: entries dropped by a predicate-aware scan before surfacing (pushdown)
    entries_filtered: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class LSMConfig:
    """Tuning knobs for :class:`LSMStore`."""

    memtable_flush_bytes: int = 4 * 1024 * 1024
    max_sstables: int = 8
    block_cache_blocks: int = 0  # cold by default, per the paper's evaluation
    cost_model: DiskCostModel = field(default_factory=lambda: GPFS)


class LSMStore:
    """An embedded ordered KV store: put/get/delete/scan + bulk load."""

    def __init__(self, config: Optional[LSMConfig] = None):
        self.config = config or LSMConfig()
        self.memtable = Memtable()
        self.sstables: list[SSTable] = []  # newest first
        self.cache = BlockCache(self.config.block_cache_blocks)
        self.stats = LSMStats()
        #: write version: bumped by every write that can change what a scan
        #: returns or which extents it charges (put, delete, flush, bulk
        #: load, compaction, a restored table), so a reader can tell that
        #: the store is unchanged since it last read
        self.version = 0

    # -- internal cost helpers ------------------------------------------

    def _charge_extent(self, cost: IOCost, table_id: int, start: int, end: int) -> None:
        """Add to ``cost`` the cost of reading bytes [start, end) from table
        ``table_id``: its blocks, cache-aware, plus one seek if any missed."""
        block_size = self.config.cost_model.block_size
        first_block = start // block_size
        last_block = max(first_block, (end - 1) // block_size) if end > start else first_block
        cost.bytes += end - start
        access = self.cache.access
        any_miss = False
        for block_no in range(first_block, last_block + 1):
            if access(table_id, block_no):
                cost.cache_hits += 1
            else:
                cost.blocks += 1
                any_miss = True
        if any_miss:
            cost.seeks += 1

    # -- writes -----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("keys and values must be bytes")
        self.stats.puts += 1
        self.version += 1
        self.memtable.put(key, value)
        if self.memtable.size_bytes >= self.config.memtable_flush_bytes:
            self.flush()

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        self.version += 1
        self.memtable.delete(key)
        if self.memtable.size_bytes >= self.config.memtable_flush_bytes:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new SSTable (newest-first position)."""
        if len(self.memtable) == 0:
            return
        table = SSTable(self.memtable.items_sorted())
        self.sstables.insert(0, table)
        self.memtable.clear()
        self.version += 1
        self.stats.flushes += 1
        if len(self.sstables) > self.config.max_sstables:
            self.compact()

    def bulk_load(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        """Build one SSTable directly from pre-sorted unique items.

        The fast path for loading a partitioned graph; equivalent to
        RocksDB's SST ingestion.
        """
        entries = list(items)
        if any(not isinstance(k, bytes) or not isinstance(v, bytes) for k, v in entries):
            raise StorageError("bulk_load requires bytes keys and values")
        self.add_table(SSTable(entries), newest=True)

    def add_table(self, table: SSTable, newest: bool) -> None:
        """Place an already built table as the newest (a bulk load) or the
        oldest (a restore, which rebuilds tables newest first)."""
        self.sstables.insert(0 if newest else len(self.sstables), table)
        self.version += 1

    def compact(self) -> None:
        """Full compaction: merge every SSTable into one, dropping tombstones."""
        if not self.sstables:
            return
        runs = [zip(t.keys, t.values) for t in self.sstables]
        merged = merge_runs(runs, drop_tombstones=True)
        for table in self.sstables:
            self.cache.invalidate_table(table.table_id)
        self.sstables = [SSTable(merged)] if merged else []
        self.version += 1
        self.stats.compactions += 1

    # -- reads ------------------------------------------------------------

    def get(self, key: bytes) -> tuple[Optional[bytes], IOCost]:
        """Point lookup. Returns (value or None, cost)."""
        self.stats.gets += 1
        cost = IOCost()
        hit = self.memtable.get(key)
        if hit is not None:
            return (None if hit is TOMBSTONE else hit), cost  # in-memory, free
        for table in self.sstables:
            if not table.may_contain(key):
                continue
            idx = table.find(key)
            if idx is None:
                # Bloom false positive: we paid a probe into the table.
                self.stats.bloom_false_positives += 1
                start, _ = table.entry_extent(0) if len(table) else (0, 0)
                self._charge_extent(cost, table.table_id, start, start + 1)
                continue
            start, end = table.entry_extent(idx)
            self._charge_extent(cost, table.table_id, start, end)
            value = table.values[idx]
            return (None if value is TOMBSTONE else value), cost  # type: ignore[return-value]
        return None, cost

    def scan(
        self, start: bytes, end: bytes, extents: Optional[list] = None
    ) -> tuple[list[tuple[bytes, bytes]], IOCost]:
        """Range scan [start, end): merged view across memtable and tables.

        Cost: per overlapping SSTable, one seek plus the sequential blocks
        the in-range extent spans (cache-aware). The memtable is free.
        Given ``extents``, the scan appends each extent it charged as
        ``(table_id, start, end)`` byte offsets, in charge order: what
        :meth:`replay_scan` needs to charge the same read again.
        """
        self.stats.scans += 1
        cost = IOCost()
        buffered = self.memtable.scan(start, end) if len(self.memtable) else []
        runs: list[list[tuple[bytes, object]]] = [buffered] if buffered else []
        tombstones = bool(buffered)  # a memtable run may hold one: never skip it
        for table, lo, hi in self._scan_extents(start, end, cost, extents):
            runs.append(list(zip(table.keys[lo:hi], table.values[lo:hi])))
            tombstones = tombstones or table.has_tombstones
        if not runs:
            merged = []  # no run overlaps the range
        elif len(runs) == 1 and not tombstones:
            merged = runs[0]  # its own merge: the state of every bulk-loaded store
        else:
            merged = merge_runs(runs, drop_tombstones=True)
        self.stats.entries_scanned += len(merged)
        return merged, cost  # type: ignore[return-value]

    def charge_scan(self, start: bytes, end: bytes, entries: int) -> IOCost:
        """Account a :meth:`scan` of [start, end) without reading it, for a
        caller that already knows the range holds ``entries`` live entries:
        the same ``scans`` / ``entries_scanned`` counts, the same block-cache
        accesses in the same order, the same cost."""
        self.stats.scans += 1
        cost = IOCost()
        for _ in self._scan_extents(start, end, cost, None):
            pass
        self.stats.entries_scanned += entries
        return cost

    def replay_scan(self, extents: Iterable[tuple[int, int, int]], entries: int) -> IOCost:
        """Account a :meth:`scan` again from the ``extents`` it reported,
        for a caller holding its ``entries`` results while :attr:`version`
        is unchanged: the counts, block-cache accesses and cost of
        :meth:`charge_scan`, without searching the tables."""
        self.stats.scans += 1
        cost = IOCost()
        for table_id, start, end in extents:
            self._charge_extent(cost, table_id, start, end)
        self.stats.entries_scanned += entries
        return cost

    def _scan_extents(
        self, start: bytes, end: bytes, cost: IOCost, extents: Optional[list]
    ) -> Iterator[tuple[SSTable, int, int]]:
        """The SSTable part of a scan of [start, end), newest table first:
        charge each table's in-range extent to ``cost`` (one seek plus its
        blocks, cache-aware) and append it to ``extents`` if given, then
        yield ``(table, lo, hi)``, its in-range entry indices. Tables
        holding no key in the range cost nothing."""
        for table in self.sstables:
            if not table.overlaps(start, end):
                continue
            lo, hi = table.range_indices(start, end)
            if lo == hi:
                continue
            offsets = table.offsets
            extent = (table.table_id, offsets[lo], offsets[hi])
            self._charge_extent(cost, *extent)
            if extents is not None:
                extents.append(extent)
            yield table, lo, hi

    def scan_prefix(self, prefix: bytes) -> tuple[list[tuple[bytes, bytes]], IOCost]:
        return self.scan(prefix, prefix_end(prefix))

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        """Number of live keys (exact; walks the merged view)."""
        items, _ = self.scan(b"", b"\xff" * 64)
        return len(items)

    @property
    def table_count(self) -> int:
        return len(self.sstables)

    def metrics_snapshot(self) -> dict[str, int]:
        """Flat counter map for the observability registry.

        Deliberately excludes SSTable ids: those come from a process-global
        counter, so including them would break byte-identical snapshots
        across cluster builds within one process.
        """
        out = {f"lsm.{k}": v for k, v in self.stats.as_dict().items()}
        for k, v in self.cache.stats_dict().items():
            out[f"blockcache.{k}"] = v
        # a filter no probe has built yet has answered nothing
        blooms = [t.bloom for t in self.sstables if t.bloom is not None]
        out["bloom.probes"] = sum(b.probes for b in blooms)
        out["bloom.negatives"] = sum(b.negatives for b in blooms)
        out["lsm.table_count"] = len(self.sstables)
        return out
