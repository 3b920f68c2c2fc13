"""A keys-only read of a label-grouped or ``~label`` edge run is scanned once
per write version of the store: :class:`~repro.storage.layout.GraphStore`
memoizes the run's records and the extents the scan charged, and a re-read
replays that charge (``LSMStore.replay_scan``) without scanning.

Generative check, under a fixed derandomized hypothesis profile: random
sequences of keys-only reads of every forward and ``~label`` run, forward,
``~label`` and vertex inserts, vertex deletes, single-record deletes,
flushes, compactions, bulk loads, migrations, cold starts,
checkpoint/restore and an in-place swap of a store's ``kv`` run on two
stores side by side with a twin pair whose memo is emptied before every
read, in all three layouts; explicit examples put each write between two
reads. The cache's LRU order is compared after every read, so a replay
that charged the right blocks in another order would show. Every read must return the twin's records
and ``IOCost``, and after every step the stored bytes, the ``lsm.*``
counters, the block-cache counters and the block cache's LRU order must
equal the twin's.
"""

from __future__ import annotations

import gc
import tempfile
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.builder import PropertyGraph
from repro.storage import encoding as enc
from repro.storage.layout import GraphStore, load_partitions
from repro.storage.lsm import LSMConfig
from repro.storage.persist import (
    checkpoint_graph_store,
    restore_graph_store,
    restore_store,
)

MEMO_FIXED = settings(derandomize=True, deadline=None, max_examples=40)

LABELS = ("a", "b")
NS = "Node"
#: loaded: 0-3 on store 0, 4-7 on store 1; 8-11 arrive by insert_vertex
VIDS = range(12)
#: a small cache, so replayed charges evict and reorder blocks
CONFIG = LSMConfig(block_cache_blocks=6, max_sstables=3)
#: ~230-byte edge records: a run spans blocks after a few inserts
PAD = "x" * 200

RUNS = LABELS + tuple("~" + label for label in LABELS)
#: every step but a read; "delete" last, since it takes vertex 0 away
WRITES = (
    "edge", "reverse", "vertex", "flush", "compact", "unlink", "bulk", "migrate",
    "cold", "restore", "swap", "delete",
)
KINDS = ("read",) * 4 + WRITES
steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(VIDS),
        st.sampled_from(VIDS),
        st.sampled_from(LABELS),
    ),
    max_size=30,
)


def _graph() -> PropertyGraph:
    graph = PropertyGraph()
    for vid in range(8):
        graph.add_vertex(vid, NS, {"w": vid})
    for vid in range(8):
        for k in range(1, 4):
            graph.add_edge(vid, (vid + k) % 8, LABELS[k % 2], {"pad": PAD})
    return graph


def _stores(layout: str) -> list[GraphStore]:
    stores = [GraphStore(CONFIG, edge_layout=layout) for _ in range(2)]
    load_partitions(_graph(), stores, [range(4), range(4, 8)], reverse=True)
    return stores


def _bulk_records(store: GraphStore, vid: int, label: str, b: int) -> list:
    """One record appended past the end of ``vid``'s forward and ``~label``
    runs by a bulk-loaded table (sequence numbers no insert reaches)."""
    ns = store.namespace_of(vid)
    items = [
        (enc.edges_prefix("~" + ns, vid, "~" + label) + enc.SEQ.pack(1000 + b),
         enc.pack_edge_record(b, {"pad": PAD})),
    ]
    if store.edge_layout == "grouped":
        items.insert(0, (
            enc.edges_prefix(ns, vid, label) + enc.SEQ.pack(1000 + b),
            enc.pack_edge_record(b, {"pad": PAD}),
        ))
    return items


def _apply(stores: list[GraphStore], step, memo: bool) -> tuple[list[GraphStore], list]:
    """Run one step on a pair of stores; returns the pair (a restore
    replaces one) and what its reads returned. Without ``memo`` every read
    starts from an empty memo."""
    kind, a, b, label = step
    holders = [store for store in stores if store.has_vertex(a)]
    held = holders[b % len(holders)] if holders else None
    read: list = []
    if kind == "read":  # every run of every held vertex, on both stores
        for store in stores:
            for vid in store.local_vertices():
                for run in RUNS:
                    if not memo:
                        store._run_memo.clear()
                    records, cost = store.edges(vid, run, None, False)
                    read.append((list(records), cost, _lru(store)))
    elif kind == "edge" and held is not None:
        held.insert_edge(a, b, label, {"pad": PAD, "n": b})
    elif kind == "reverse" and held is not None:
        held.insert_reverse_edge(a, b, label, {"pad": PAD})
    elif kind == "vertex":
        (held or stores[b % 2]).insert_vertex(a, NS, {"w": b})
    elif kind == "flush":
        stores[b % 2].kv.flush()
    elif kind == "compact":
        stores[b % 2].kv.compact()
    elif kind == "delete" and held is not None:
        held.delete_vertex(a)
    elif kind == "unlink" and held is not None:  # one record, below the graph API
        pairs, _ = held.kv.scan(*held._run_bounds("~" + NS, a, "~" + label))
        if pairs:
            held.kv.delete(pairs[b % len(pairs)][0])
    elif kind == "bulk" and held is not None:
        held.kv.bulk_load(_bulk_records(held, a, label, b))
    elif kind == "migrate" and held is not None:
        other = stores[1 - stores.index(held)]
        pairs, meta = held.export_vertices([a])
        other.import_vertices(pairs, meta)
        if b % 3:
            held.drop_vertices([a])
    elif kind == "cold":
        stores[b % 2].cold_start()
    elif kind in ("restore", "swap"):
        i = b % 2
        with tempfile.TemporaryDirectory() as directory:
            checkpoint_graph_store(stores[i], directory)
            if kind == "restore":
                stores = stores[:i] + [restore_graph_store(directory, CONFIG)] + stores[i + 1:]
            else:  # same GraphStore, a new kv: the memo's store is gone
                stores[i].kv = restore_store(directory, CONFIG)
    return stores, read


def _lru(store: GraphStore) -> list[tuple[int, int]]:
    """The block cache's LRU order (table ids are process-global, so blocks
    are named by their table's position)."""
    position = {table.table_id: i for i, table in enumerate(store.kv.sstables)}
    return [(position[tid], block) for tid, block in store.kv.cache._blocks]


def _state(store: GraphStore):
    """Stored bytes, counters and the block cache's LRU order."""
    kv = store.kv
    return (
        kv.memtable.items_sorted(),
        [(table.keys, table.values) for table in kv.sstables],
        kv.stats.as_dict(),
        kv.cache.stats_dict(),
        _lru(store),
    )


def _between_reads(*kinds):
    """Each write kind once between two full reads, on vertex 0 (held by
    store 0, whose memo every read fills), store 0 and label "a"."""
    script = [("read", 0, 0, "a")]
    for kind in kinds:
        script += [(kind, 0, 0, "a"), ("read", 0, 0, "a")]
    return script


LAYOUTS = ("grouped", "interleaved", "columnar")


@MEMO_FIXED
@given(layout=st.sampled_from(LAYOUTS), script=steps)
@example(layout="grouped", script=_between_reads(*WRITES))
@example(layout="interleaved", script=_between_reads(*WRITES))
@example(layout="columnar", script=_between_reads(*WRITES))
# a run over two tables, replayed: the charge order is the LRU order
@example(layout="grouped", script=_between_reads("edge", "reverse", "flush", "cold"))
def test_memoized_reads_match_reads_that_scan(layout, script):
    stores, twins = _stores(layout), _stores(layout)
    for step in script:
        stores, read = _apply(stores, step, memo=True)
        twins, twin_read = _apply(twins, step, memo=False)
        assert read == twin_read, step
        for store, twin in zip(stores, twins):
            assert _state(store) == _state(twin), step


def _loaded(layout: str = "grouped", config: LSMConfig = CONFIG) -> GraphStore:
    store = GraphStore(config, edge_layout=layout)
    load_partitions(_graph(), [store], [range(8)], reverse=True)
    return store


def _counting_scans(store: GraphStore) -> list:
    seen: list = []
    scan = store.kv.scan

    def counted(start, end, extents=None):
        seen.append(start)
        return scan(start, end, extents)

    store.kv.scan = counted
    return seen


@pytest.mark.parametrize("label", ["a", "~a"])
def test_a_reread_replays_without_scanning_until_the_next_write(label):
    store = _loaded(config=LSMConfig())  # cold: a replay costs what the scan did
    seen = _counting_scans(store)
    first, cost = store.edges(0, label, None, False)
    assert len(seen) == 1 and isinstance(first, tuple)
    again, again_cost = store.edges(0, label, None, False)
    assert again is first and again_cost == cost and len(seen) == 1
    store.insert_vertex(9, NS, {})  # any write empties the memo
    assert store.edges(0, label, None, False)[0] == first
    assert len(seen) == 2


def test_only_keys_only_label_runs_are_memoized():
    for layout in ("grouped", "interleaved", "columnar"):
        store = _loaded(layout)
        store.vertex_props(0)
        store.all_edges(0, None, False)
        store.edges(0, "a")  # properties wanted
        store.edges(0, "~a", lambda props: True, False)  # a pushed-down predicate
        if layout != "grouped":  # not a label-grouped run
            store.edges(0, "a", None, False)
        assert store._run_memo == {}, layout
        store.edges(0, "~a", None, False)
        assert {label: list(runs) for label, runs in store._run_memo.items()} == {
            "~a": [0]
        }, layout


def test_a_compaction_leaves_no_retired_table_alive():
    store = _loaded()
    store.insert_edge(0, 5, "a", {"pad": PAD})
    store.kv.flush()
    for vid in range(8):
        for label in ("a", "b", "~a", "~b"):
            store.edges(vid, label, None, False)
    retired = [weakref.ref(table) for table in store.kv.sstables]
    assert len(retired) == 2 and store._run_memo
    store.kv.compact()
    gc.collect()
    assert [ref() for ref in retired] == [None, None]
