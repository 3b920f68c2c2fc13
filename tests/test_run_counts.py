"""A live edge insert numbers its record from a per-run count that
:class:`~repro.storage.layout.GraphStore` keeps, instead of scanning the run,
and charges the read that scan made.

Generative check, under a fixed derandomized hypothesis profile: random
sequences of forward, ``~label`` and interleaved inserts, reads, flushes,
compactions, deletes followed by re-inserts, migrations (export, import,
then drop, or a copy kept on both stores) and checkpoint/restore run on two
stores side by side with a reference pair that numbers every insert by
scanning its run. After every step:

* every counted run holds exactly as many live records as its count, and
  every uncounted run of a vertex created by ``insert_vertex`` is empty, so
  each new key's sequence number is the run length a scan would return;
* the stored bytes, the ``lsm.*`` counters, the block-cache counters and
  the block cache's LRU order equal the reference's.
"""

from __future__ import annotations

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.builder import PropertyGraph
from repro.storage import encoding as enc
from repro.storage.layout import GraphStore, load_partitions
from repro.storage.lsm import LSMConfig
from repro.storage.persist import checkpoint_graph_store, restore_graph_store
from repro.storage.sstable import merge_runs

COUNT_FIXED = settings(derandomize=True, deadline=None, max_examples=60)

LABELS = ("a", "b")
NS = "Node"
#: loaded: 0-3 on store 0, 4-7 on store 1; 8-11 arrive by insert_vertex
VIDS = range(12)
#: a small cache, so inserts' charged reads evict and reorder blocks
CONFIG = LSMConfig(block_cache_blocks=6, max_sstables=3)
#: ~230-byte edge records: a run spans blocks after a few inserts
PAD = "x" * 200

KINDS = ("edge",) * 4 + ("reverse",) * 2 + (
    "vertex", "read", "flush", "compact", "delete", "migrate", "restore",
)
steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(VIDS),
        st.sampled_from(VIDS),
        st.sampled_from(LABELS),
    ),
    max_size=40,
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


def _apply(stores: list[GraphStore], step) -> list[GraphStore]:
    """Run one step on a pair of stores; returns the pair (a restore
    replaces one)."""
    kind, a, b, label = step
    holders = [store for store in stores if store.has_vertex(a)]
    held = holders[b % len(holders)] if holders else None
    if kind == "edge" and held is not None:
        held.insert_edge(a, b, label, {"pad": PAD, "n": b})
    elif kind == "reverse" and held is not None:
        held.insert_reverse_edge(a, b, label, {"pad": PAD})
    elif kind == "vertex":
        (held or stores[b % 2]).insert_vertex(a, NS, {"w": b})
    elif kind == "read" and held is not None:
        held.edges(a, label)
        held.edges(a, "~" + label)
    elif kind == "flush":
        stores[b % 2].kv.flush()
    elif kind == "compact":
        stores[b % 2].kv.compact()
    elif kind == "delete" and held is not None:
        held.delete_vertex(a)
        if b % 2 == 0:  # re-inserted at once: its runs start empty
            held.insert_vertex(a, NS, {"w": b})
    elif kind == "migrate" and held is not None:
        other = stores[1 - stores.index(held)]
        pairs, meta = held.export_vertices([a])
        other.import_vertices(pairs, meta)
        if b % 3:
            held.drop_vertices([a])
        # else both keep a copy, as when a chunk is re-sent before the drop,
        # and a later import lands on a copy whose runs took inserts
    elif kind == "restore":
        i = b % 2
        with tempfile.TemporaryDirectory() as directory:
            checkpoint_graph_store(stores[i], directory)
            restored = restore_graph_store(directory, CONFIG)
        stores = stores[:i] + [restored] + stores[i + 1:]
    return stores


def _live_len(store: GraphStore, start: bytes, end: bytes) -> int:
    """Live records in [start, end), read without touching the block cache
    or a counter."""
    kv = store.kv
    runs = [kv.memtable.scan(start, end)]
    for table in kv.sstables:
        lo, hi = table.range_indices(start, end)
        runs.append(list(zip(table.keys[lo:hi], table.values[lo:hi])))
    return len(merge_runs(runs, drop_tombstones=True))


def _bounds(store: GraphStore, vid: int, ns: str, label) -> tuple[bytes, bytes]:
    if label is None:  # an interleaved vertex's one edge sequence
        prefix = enc.all_edges_prefix(ns, vid)
        return prefix, enc.prefix_end(prefix)
    return store._run_bounds(ns, vid, label)


def _check_counts(store: GraphStore) -> None:
    for vid, runs in store._run_len.items():
        for (ns, label), n in runs.items():
            live = _live_len(store, *_bounds(store, vid, ns, label))
            assert n == live, (vid, ns, label)
    all_runs = [(NS, label) for label in LABELS]
    all_runs += [("~" + NS, "~" + label) for label in LABELS]
    if store.edge_layout == "interleaved":
        all_runs.append((NS, None))
    for vid in store._born:
        for run in all_runs:
            if run not in store._run_len.get(vid, {}):
                assert _live_len(store, *_bounds(store, vid, *run)) == 0, (vid, run)


def _state(store: GraphStore):
    """Stored bytes, counters and the block cache's LRU order (table ids
    are process-global, so blocks are named by their table's position)."""
    kv = store.kv
    position = {table.table_id: i for i, table in enumerate(kv.sstables)}
    return (
        kv.memtable.items_sorted(),
        [(table.keys, table.values) for table in kv.sstables],
        kv.stats.as_dict(),
        kv.cache.stats_dict(),
        [(position[tid], block) for tid, block in kv.cache._blocks],
    )


@COUNT_FIXED
@given(layout=st.sampled_from(("grouped", "interleaved")), script=steps)
# a copy that took more inserts than the original is imported back onto it
@example(
    layout="grouped",
    script=[
        ("edge", 0, 1, "a"),
        ("migrate", 0, 3, "a"),
        ("edge", 0, 1, "a"),
        ("edge", 0, 3, "a"),
        ("migrate", 0, 3, "a"),
        ("edge", 0, 0, "a"),
    ],
)
def test_counted_inserts_match_inserts_numbered_by_scan(layout, script):
    def numbered_by_scan(stores: list[GraphStore]) -> list[GraphStore]:
        """The reference: every insert scans its run to number the record,
        as the store did before it kept counts."""
        for store in stores:
            kv = store.kv
            store._next_seq = lambda vid, run, start, end, kv=kv: len(
                kv.scan(start, end)[0]
            )
        return stores

    stores = _stores(layout)
    reference = numbered_by_scan(_stores(layout))
    for step in script:
        stores = _apply(stores, step)
        reference = numbered_by_scan(_apply(reference, step))
        for store, ref in zip(stores, reference):
            _check_counts(store)
            assert _state(store) == _state(ref), step
