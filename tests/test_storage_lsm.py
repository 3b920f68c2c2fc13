"""Unit tests for the LSM store, memtable, SSTables, bloom filter, cache."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    BlockCache,
    BloomFilter,
    GPFS,
    IOCost,
    LSMConfig,
    LSMStore,
    Memtable,
    SSTable,
    TOMBSTONE,
    merge_runs,
)


# -- bloom -------------------------------------------------------------------

def test_bloom_no_false_negatives():
    bloom = BloomFilter(1000, 0.01)
    keys = [f"key-{i}".encode() for i in range(1000)]
    bloom.update(keys)
    assert all(k in bloom for k in keys)


def test_bloom_false_positive_rate_reasonable():
    bloom = BloomFilter(1000, 0.01)
    bloom.update(f"key-{i}".encode() for i in range(1000))
    fps = sum(f"other-{i}".encode() in bloom for i in range(10_000))
    assert fps / 10_000 < 0.05  # generous bound over the 1% target


def test_bloom_rejects_bad_fp_rate():
    with pytest.raises(ValueError):
        BloomFilter(10, 1.5)


def test_bloom_sizes_scale_with_items():
    small = BloomFilter(10)
    large = BloomFilter(10_000)
    assert large.size_bytes > small.size_bytes


# -- memtable -----------------------------------------------------------------

def test_memtable_put_get():
    mt = Memtable()
    mt.put(b"a", b"1")
    assert mt.get(b"a") == b"1"
    assert mt.get(b"b") is None


def test_memtable_delete_is_tombstone():
    mt = Memtable()
    mt.put(b"a", b"1")
    mt.delete(b"a")
    assert mt.get(b"a") is TOMBSTONE


def test_memtable_scan_sorted_range():
    mt = Memtable()
    for k in (b"c", b"a", b"b", b"e"):
        mt.put(k, k.upper())
    assert [k for k, _ in mt.scan(b"a", b"c")] == [b"a", b"b"]


def test_memtable_keeps_key_order_across_writes():
    mt = Memtable()
    mt.put(b"b", b"1")
    mt.scan(b"", b"z")  # sorts the keys once
    mt.put(b"d", b"2")
    mt.put(b"a", b"3")
    mt.delete(b"c")  # a new key as a tombstone
    mt.put(b"b", b"4")  # an overwrite adds no second copy
    mt.delete(b"d")
    assert [k for k, _ in mt.scan(b"", b"z")] == [b"a", b"b", b"c", b"d"]
    assert mt.scan(b"b", b"d") == [(b"b", b"4"), (b"c", TOMBSTONE)]
    assert [k for k, _ in mt.items_sorted()] == [b"a", b"b", b"c", b"d"]


def test_memtable_size_tracks_updates():
    mt = Memtable()
    mt.put(b"k", b"12345")
    size1 = mt.size_bytes
    mt.put(b"k", b"1")
    assert mt.size_bytes == size1 - 4


def test_memtable_clear():
    mt = Memtable()
    mt.put(b"a", b"1")
    mt.clear()
    assert len(mt) == 0 and mt.size_bytes == 0


# -- sstable ---------------------------------------------------------------------

def test_sstable_find_and_extent():
    table = SSTable([(b"a", b"1"), (b"b", b"22"), (b"c", b"333")])
    assert table.find(b"b") == 1
    assert table.find(b"zz") is None
    start, end = table.entry_extent(1)
    assert end - start == 1 + 2 + 16


def test_sstable_requires_strict_sorting():
    with pytest.raises(StorageError):
        SSTable([(b"b", b"1"), (b"a", b"2")])
    with pytest.raises(StorageError):
        SSTable([(b"a", b"1"), (b"a", b"2")])


def test_sstable_scan_range():
    table = SSTable([(bytes([i]), b"v") for i in range(10)])
    lo, hi = table.range_indices(bytes([3]), bytes([6]))
    assert table.keys[lo:hi] == [bytes([3]), bytes([4]), bytes([5])]


def test_sstable_may_contain_uses_key_range():
    table = SSTable([(b"m", b"1")])
    assert not table.may_contain(b"a")
    assert not table.may_contain(b"z")
    assert table.may_contain(b"m")


def test_sstable_builds_its_bloom_filter_on_the_first_in_range_probe():
    keys = [f"k{i:02d}".encode() for i in range(0, 40, 2)]
    table = SSTable([(k, b"v") for k in keys])
    assert table.bloom is None  # a flush or compaction builds none
    assert not table.may_contain(b"a") and not table.may_contain(b"z")
    assert table.bloom is None  # the key-range check answered alone
    assert table.may_contain(b"k04")
    eager = BloomFilter(len(keys), 0.01)
    eager.update(keys)
    assert table.bloom.nbits == eager.nbits
    assert table.bloom.nhashes == eager.nhashes
    assert table.bloom._bits == eager._bits
    assert (table.bloom.probes, table.bloom.negatives) == (1, 0)


def test_sstable_overlaps():
    table = SSTable([(b"c", b"1"), (b"f", b"2")])
    assert table.overlaps(b"a", b"d")
    assert table.overlaps(b"f", b"g")
    assert not table.overlaps(b"g", b"z")
    assert not table.overlaps(b"a", b"c")  # end exclusive


def test_merge_runs_newest_wins():
    newest = [(b"a", b"new")]
    oldest = [(b"a", b"old"), (b"b", b"keep")]
    merged = merge_runs([newest, oldest], drop_tombstones=False)
    assert merged == [(b"a", b"new"), (b"b", b"keep")]


def test_merge_runs_drops_tombstones():
    runs = [[(b"a", TOMBSTONE)], [(b"a", b"old"), (b"b", b"v")]]
    merged = merge_runs(runs, drop_tombstones=True)
    assert merged == [(b"b", b"v")]


# -- LSM store ---------------------------------------------------------------------

def make_store(**kwargs) -> LSMStore:
    return LSMStore(LSMConfig(**kwargs))


def test_lsm_put_get_roundtrip():
    store = make_store()
    store.put(b"k", b"v")
    value, cost = store.get(b"k")
    assert value == b"v"
    assert cost.is_zero  # memtable hit is free


def test_lsm_get_after_flush_charges_io():
    store = make_store()
    store.put(b"k", b"v" * 100)
    store.flush()
    value, cost = store.get(b"k")
    assert value == b"v" * 100
    assert cost.seeks >= 1 and cost.blocks >= 1


def test_lsm_missing_key():
    store = make_store()
    assert store.get(b"nope")[0] is None


def test_lsm_delete_masks_flushed_value():
    store = make_store()
    store.put(b"k", b"v")
    store.flush()
    store.delete(b"k")
    assert store.get(b"k")[0] is None
    store.flush()
    assert store.get(b"k")[0] is None


def test_lsm_newest_table_wins():
    store = make_store()
    store.put(b"k", b"old")
    store.flush()
    store.put(b"k", b"new")
    store.flush()
    assert store.get(b"k")[0] == b"new"


def test_lsm_scan_merges_memtable_and_tables():
    store = make_store()
    store.put(b"a", b"1")
    store.flush()
    store.put(b"b", b"2")
    items, _ = store.scan(b"a", b"c")
    assert items == [(b"a", b"1"), (b"b", b"2")]


def test_lsm_scan_respects_tombstones():
    store = make_store()
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    store.flush()
    store.delete(b"a")
    items, _ = store.scan(b"", b"z")
    assert items == [(b"b", b"2")]


def test_lsm_scan_prefix():
    store = make_store()
    store.put(b"x|1", b"a")
    store.put(b"x|2", b"b")
    store.put(b"y|1", b"c")
    items, _ = store.scan_prefix(b"x|")
    assert [k for k, _ in items] == [b"x|1", b"x|2"]


def test_lsm_auto_flush_on_threshold():
    store = make_store(memtable_flush_bytes=64)
    for i in range(20):
        store.put(f"key-{i}".encode(), b"x" * 16)
    assert store.stats.flushes >= 1
    assert store.table_count >= 1


def test_lsm_compaction_bounds_table_count():
    store = make_store(max_sstables=2)
    for i in range(6):
        store.put(f"k{i}".encode(), b"v")
        store.flush()
    assert store.table_count <= 2
    assert store.stats.compactions >= 1
    for i in range(6):
        assert store.get(f"k{i}".encode())[0] == b"v"


def test_lsm_compaction_drops_tombstones():
    store = make_store()
    store.put(b"a", b"1")
    store.flush()
    store.delete(b"a")
    store.flush()
    store.compact()
    assert len(store) == 0


def test_lsm_bulk_load_and_len():
    store = make_store()
    store.bulk_load([(f"k{i:03d}".encode(), b"v") for i in range(50)])
    assert len(store) == 50
    assert store.get(b"k025")[0] == b"v"


def test_lsm_bulk_load_type_check():
    store = make_store()
    with pytest.raises(StorageError):
        store.bulk_load([("str-key", b"v")])


def test_lsm_put_type_check():
    store = make_store()
    with pytest.raises(StorageError):
        store.put("k", b"v")


def test_lsm_scan_cost_counts_overlapping_tables():
    store = make_store()
    store.bulk_load([(b"a", b"1"), (b"c", b"3")])
    store.bulk_load([(b"b", b"2")])
    items, cost = store.scan(b"a", b"d")
    assert [k for k, _ in items] == [b"a", b"b", b"c"]
    assert cost.seeks >= 2  # both tables touched


def test_lsm_block_cache_reduces_cost():
    store = make_store(block_cache_blocks=64)
    store.put(b"k", b"v" * 50)
    store.flush()
    _, cold = store.get(b"k")
    _, warm = store.get(b"k")
    assert cold.blocks >= 1
    assert warm.blocks == 0 and warm.cache_hits >= 1
    assert GPFS.time(warm) < GPFS.time(cold)


def test_lsm_get_builds_only_the_filters_it_probes():
    store = make_store()
    for run in ((b"a", b"b", b"c"), (b"d", b"e", b"f"), (b"g", b"h", b"i")):
        store.bulk_load([(k, k) for k in run])
    store.scan(b"", b"z")
    assert [t.bloom for t in store.sstables] == [None, None, None]
    assert store.get(b"e")[0] == b"e"  # newest first: g..i is out of range
    assert [t.bloom is not None for t in store.sstables] == [False, True, False]
    snap = store.metrics_snapshot()
    assert (snap["bloom.probes"], snap["bloom.negatives"]) == (1, 0)


def test_lsm_overwrite_visible_through_scan():
    store = make_store()
    store.put(b"k", b"old")
    store.flush()
    store.put(b"k", b"new")
    items, _ = store.scan(b"", b"z")
    assert items == [(b"k", b"new")]


# -- cost model / block cache ---------------------------------------------------------

def test_iocost_addition():
    total = IOCost(seeks=1, blocks=2) + IOCost(blocks=3, cache_hits=1)
    assert (total.seeks, total.blocks, total.cache_hits) == (1, 5, 1)


def test_iocost_time_monotonic_in_blocks():
    assert GPFS.time(IOCost(seeks=1, blocks=10)) > GPFS.time(IOCost(seeks=1, blocks=1))


def test_block_cache_lru_eviction():
    cache = BlockCache(2)
    assert not cache.access(1, 0)
    assert not cache.access(1, 1)
    assert cache.access(1, 0)  # hit, refresh
    assert not cache.access(1, 2)  # evicts (1,1)
    assert not cache.access(1, 1)  # miss again
    assert cache.hits == 1


def test_block_cache_disabled():
    cache = BlockCache(0)
    assert not cache.access(1, 0)
    assert not cache.access(1, 0)
    assert cache.misses == 2


def test_block_cache_invalidate_table():
    cache = BlockCache(10)
    cache.access(1, 0)
    cache.access(2, 0)
    cache.invalidate_table(1)
    assert not cache.access(1, 0)
    assert cache.access(2, 0)


def test_block_cache_clear_keeps_stats():
    cache = BlockCache(10)
    cache.access(1, 0)
    cache.clear()
    assert cache.misses == 1
    assert not cache.access(1, 0)


# -- columnar blocks through the LSM lifecycle --------------------------------


def _columnar_store_with_edges(nedges=40):
    from repro.graph import GraphBuilder
    from repro.storage import GraphStore

    b = GraphBuilder()
    v = b.vertex("T")
    for t in [b.vertex("T") for _ in range(nedges)]:
        b.edge(v, t, "link")
    gstore = GraphStore(LSMConfig(memtable_flush_bytes=256), edge_layout="columnar")
    gstore.load_partition(b.build(), [v])
    return gstore, v


def test_columnar_blocks_survive_flush_and_compaction():
    """Delta-packed adjacency blocks are ordinary LSM values: flushing them
    to SSTables and compacting the runs must not disturb a single edge."""
    gstore, v = _columnar_store_with_edges()
    before, _ = gstore.edges(v, "link")
    gstore.kv.flush()
    gstore.kv.compact()
    after, _ = gstore.edges(v, "link")
    assert sorted(after) == sorted(before)
    assert len(gstore.kv.sstables) >= 1


def test_columnar_accounting_rebuild_after_flush():
    """rebuild_edge_accounting sees blocks in SSTables (not just the
    memtable) and reproduces the same bytes/edge gauge."""
    gstore, v = _columnar_store_with_edges()
    snap_live = gstore.metrics_snapshot()
    gstore.kv.flush()
    gstore.rebuild_edge_accounting()
    snap_rebuilt = gstore.metrics_snapshot()
    assert snap_rebuilt["edge_count"] == snap_live["edge_count"]
    assert snap_rebuilt["edge_bytes"] == snap_live["edge_bytes"]
    assert snap_rebuilt["bytes_per_edge"] == snap_live["bytes_per_edge"]


def _counting_blooms(monkeypatch) -> list:
    """Record every bloom filter an SSTable builds from now on."""
    from repro.storage import sstable

    built = []

    class CountingBloom(BloomFilter):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(sstable, "BloomFilter", CountingBloom)
    return built


def _write_path_cluster(layout: str):
    """A loaded 2-server cluster that traverses, ingests, flushes past
    ``max_sstables`` (so every server compacts) and traverses again."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.workloads import paper_rmat1, pick_start_vertex, rmat_graph, rmat_kstep_query

    config = paper_rmat1(scale=7, seed=3)
    cluster = Cluster.build(
        rmat_graph(config), ClusterConfig(nservers=2, edge_layout=layout)
    )
    query = rmat_kstep_query(pick_start_vertex(config), 3)
    assert cluster.traverse(query).result.vertices
    n = config.num_vertices
    for i in range(10):
        for server in cluster.servers:  # every server writes every round
            src = sorted(server.store.local_vertices())[i]
            cluster.ingest_edge(src, (7 * i + 1) % n, "link", {"w": i})
        for server in cluster.servers:
            server.store.kv.flush()
    assert all(s.store.kv.stats.compactions for s in cluster.servers)
    assert cluster.traverse(query).result.vertices
    return cluster


def test_grouped_cluster_builds_no_bloom_filter(monkeypatch):
    built = _counting_blooms(monkeypatch)
    cluster = _write_path_cluster("grouped")
    assert built == []
    assert all(t.bloom is None for s in cluster.servers for t in s.store.kv.sstables)
    assert sum(s.storage_metrics()["bloom.probes"] for s in cluster.servers) == 0


def test_columnar_cluster_builds_only_the_probed_filters(monkeypatch):
    built = _counting_blooms(monkeypatch)
    cluster = _write_path_cluster("columnar")
    tables = [t for s in cluster.servers for t in s.store.kv.sstables]
    live = [t.bloom for t in tables if t.bloom is not None]
    assert live and len(live) < len(tables)  # some tables were never probed
    assert all(b.probes > 0 for b in built)
    assert sum(s.storage_metrics()["bloom.probes"] for s in cluster.servers) == sum(
        b.probes for b in live
    )


def test_corrupt_block_value_raises_typed_error():
    """A bit-flipped block value read back through the graph store raises
    the codec's typed error — never silently wrong adjacency."""
    from repro.errors import CorruptAdjacencyBlock
    from repro.storage import encoding as enc

    gstore, v = _columnar_store_with_edges(nedges=8)
    ns = gstore.namespace_of(v)
    key = enc.edge_block_key(ns, v, "link")
    value = bytearray(gstore.kv.get(key)[0])
    value[len(value) // 2] ^= 0x10
    gstore.kv.put(key, bytes(value))
    with pytest.raises(CorruptAdjacencyBlock):
        gstore.edges(v, "link")
