"""Tests for the interleaved/columnar edge layouts and their cost asymmetry.

A layout is a *representation* change: it may change how bytes are laid out,
never what a traversal returns. The differential legs at the end of the file
hold the columnar layout to that on random graphs and queries:

* the 10-seed × 3-engine × 3-planner × grouped/columnar matrix,
  element-identical to the reference oracle;
* determinism: re-running an identical (seed, config) pair reproduces the
  result AND a byte-identical metrics snapshot — the simulated runtime is a
  pure function of its inputs, columnar or not;
* a chaos leg: mid-traversal server crash with columnar storage on, results
  still identical to the fault-free baseline;
* a rebalance leg: migration chunks export/import columnar blocks
  losslessly (same edges, same bytes/edge accounting), and a live migration
  under the columnar layout changes no traversal's result.
"""

import json
import random
import struct
import zlib

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine, options_for
from repro.errors import (
    CorruptAdjacencyBlock,
    EdgeLayoutMismatch,
    StorageError,
    UnknownEdgeLayout,
)
from repro.faults.chaos import chaos_check
from repro.graph import GraphBuilder, PropertyGraph, hpc_metadata_schema
from repro.lang import GTravel
from repro.rebalance import MigrationConfig
from repro.storage import GraphStore, LSMConfig
from repro.storage import encoding as enc
from repro.storage.persist import checkpoint_graph_store, restore_graph_store
from tests.conftest import ALL_ENGINES, assert_engines_match_oracle


@pytest.fixture()
def multi_label_vertex():
    b = GraphBuilder()
    v = b.vertex("T")
    targets = [b.vertex("T") for _ in range(12)]
    for i, t in enumerate(targets):
        b.edge(v, t, ("read", "write", "exe")[i % 3], n=i)
    return b.build(), v, targets


def load(graph, vids, layout):
    store = GraphStore(LSMConfig(), edge_layout=layout)
    store.load_partition(graph, vids)
    return store


def rewrite_manifest_layout(directory, layout):
    """Make a checkpoint's manifest name ``layout`` (None drops the field)."""
    index = directory / "vertex_index.json"
    payload = json.loads(index.read_text())
    if layout is None:
        payload.pop("layout", None)
    else:
        payload["layout"] = layout
    index.write_text(json.dumps(payload))


def test_layouts_return_identical_edges(multi_label_vertex):
    graph, v, targets = multi_label_vertex
    grouped = load(graph, [v], "grouped")
    interleaved = load(graph, [v], "interleaved")
    columnar = load(graph, [v], "columnar")
    for label in ("read", "write", "exe"):
        ga, _ = grouped.edges(v, label)
        ia, _ = interleaved.edges(v, label)
        ca, _ = columnar.edges(v, label)
        assert sorted(ga) == sorted(ia) == sorted(ca)
    g_all, _ = grouped.all_edges(v)
    i_all, _ = interleaved.all_edges(v)
    c_all, _ = columnar.all_edges(v)
    assert sorted(g_all) == sorted(i_all) == sorted(c_all)


def test_interleaved_label_scan_costs_more(multi_label_vertex):
    """The §IV-B claim: label-selective scans are cheaper when same-label
    edges are contiguous."""
    graph, v, _ = multi_label_vertex
    grouped = load(graph, [v], "grouped")
    interleaved = load(graph, [v], "interleaved")
    _, g_cost = grouped.edges(v, "read")
    _, i_cost = interleaved.edges(v, "read")
    assert i_cost.bytes > g_cost.bytes  # whole block vs one label's run


def test_interleaved_label_prop_not_exposed(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    interleaved = load(graph, [v], "interleaved")
    edges, _ = interleaved.edges(v, "read")
    for _, props in edges:
        assert "__label" not in props


def test_interleaved_live_insert(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "interleaved")
    store.insert_edge(v, 999, "read", {"n": 99})
    edges, _ = store.edges(v, "read")
    assert (999, {"n": 99}) in edges


def test_unknown_layout_rejected():
    with pytest.raises(StorageError):
        GraphStore(LSMConfig(), edge_layout="diagonal")


def test_interleaved_checkpoint_roundtrip(multi_label_vertex, tmp_path):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "interleaved")
    checkpoint_graph_store(store, tmp_path)
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "interleaved"
    original, _ = store.edges(v, "write")
    back, _ = restored.edges(v, "write")
    assert sorted(original) == sorted(back)


def test_engines_correct_on_interleaved_layout(metadata_graph):
    graph, ids = metadata_graph
    q = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").e("read", "write")
    assert_engines_match_oracle(graph, q, edge_layout="interleaved")


# -- columnar layout ----------------------------------------------------------


def test_columnar_label_read_cheaper_than_interleaved(multi_label_vertex):
    """One delta-packed block per (vertex, label) beats scanning the whole
    interleaved run for a label-selective read."""
    graph, v, _ = multi_label_vertex
    columnar = load(graph, [v], "columnar")
    interleaved = load(graph, [v], "interleaved")
    _, c_cost = columnar.edges(v, "read")
    _, i_cost = interleaved.edges(v, "read")
    assert c_cost.bytes < i_cost.bytes


def test_columnar_live_insert(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    store.insert_edge(v, 999, "read", {"n": 99})
    edges, _ = store.edges(v, "read")
    assert (999, {"n": 99}) in edges


def test_columnar_bytes_per_edge_beats_entry_per_edge():
    """The compression claim behind ``storage.bytes_per_edge``: a columnar
    store's forward footprint is smaller than grouped entry-per-edge."""
    b = GraphBuilder()
    v = b.vertex("T")
    for t in [b.vertex("T") for _ in range(64)]:
        b.edge(v, t, "link")
    graph = b.build()
    grouped = load(graph, [v], "grouped")
    columnar = load(graph, [v], "columnar")
    g_snap = grouped.metrics_snapshot()
    c_snap = columnar.metrics_snapshot()
    assert g_snap["edge_count"] == c_snap["edge_count"] == 64
    assert c_snap["bytes_per_edge"] < g_snap["bytes_per_edge"]


def test_columnar_checkpoint_roundtrip(multi_label_vertex, tmp_path):
    """Persist v2 round-trip: the layout survives, every edge comes back,
    and the bytes/edge accounting is rebuilt from the restored runs."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    checkpoint_graph_store(store, tmp_path)
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "columnar"
    for label in ("read", "write", "exe"):
        original, _ = store.edges(v, label)
        back, _ = restored.edges(v, label)
        assert sorted(original) == sorted(back)
    assert restored.metrics_snapshot()["bytes_per_edge"] == pytest.approx(
        store.metrics_snapshot()["bytes_per_edge"]
    )


def test_restore_rejects_unknown_layout(multi_label_vertex, tmp_path):
    """Regression for the silent-fallback bug: a manifest naming a layout
    this build does not know must raise the typed error, not quietly come
    back as ``grouped``."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    checkpoint_graph_store(store, tmp_path)
    rewrite_manifest_layout(tmp_path, "diagonal")
    with pytest.raises(UnknownEdgeLayout) as err:
        restore_graph_store(tmp_path)
    assert err.value.name == "diagonal"
    assert "columnar" in err.value.choices


def test_restore_missing_layout_field_defaults_grouped(
    multi_label_vertex, tmp_path
):
    """Pre-layout checkpoints carry no ``layout`` field; they keep restoring
    as grouped (backward compatibility), distinct from unknown names."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "grouped")
    checkpoint_graph_store(store, tmp_path)
    rewrite_manifest_layout(tmp_path, None)
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "grouped"
    back, _ = restored.edges(v, "read")
    original, _ = store.edges(v, "read")
    assert sorted(back) == sorted(original)


def test_unknown_layout_typed_error_at_construction():
    with pytest.raises(UnknownEdgeLayout) as err:
        GraphStore(LSMConfig(), edge_layout="diagonal")
    assert err.value.name == "diagonal"
    assert isinstance(err.value, StorageError)


@pytest.mark.parametrize(
    "recorded, claimed", [("grouped", "columnar"), ("columnar", "grouped")]
)
def test_restore_rejects_edge_records_of_another_layout(
    multi_label_vertex, tmp_path, recorded, claimed
):
    """A checkpoint whose edge records are not of the layout its manifest
    names would restore a store that cannot read them; the accounting
    rebuild raises the typed error instead."""
    graph, v, _ = multi_label_vertex
    checkpoint_graph_store(load(graph, [v], recorded), tmp_path)
    rewrite_manifest_layout(tmp_path, claimed)
    with pytest.raises(EdgeLayoutMismatch) as err:
        restore_graph_store(tmp_path)
    assert err.value.layout == claimed
    assert err.value.vid == v
    assert isinstance(err.value, StorageError)


def test_engines_correct_on_columnar_layout(metadata_graph):
    graph, ids = metadata_graph
    q = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").e("read", "write")
    assert_engines_match_oracle(graph, q, edge_layout="columnar")


# -- differential legs: a layout never changes an answer -----------------------

SEEDS = range(10)
PLANNERS = ("off", "rules", "cost")
LAYOUTS = ("grouped", "columnar")


def random_graph(rng: random.Random, nvertices: int = 24, nedges: int = 72):
    g = PropertyGraph()
    for vid in range(nvertices):
        g.add_vertex(vid, "node", {"x": vid % 5})
    for _ in range(nedges):
        src = rng.randrange(nvertices)
        dst = rng.randrange(nvertices)
        g.add_edge(src, dst, rng.choice(("link", "ref")), {"w": rng.randint(0, 3)})
    return g


def random_queries(rng: random.Random, nvertices: int, n: int = 3):
    queries = []
    for _ in range(n):
        q = GTravel.v(rng.randrange(nvertices))
        for _ in range(rng.randint(1, 3)):
            q = q.e(rng.choice(("link", "ref")))
        queries.append(q.compile())
    return queries


def normalize(returned: dict) -> dict:
    return {lv: frozenset(vids) for lv, vids in returned.items() if vids}


def build(graph, engine, planner, layout):
    return Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            edge_layout=layout,
            engine=options_for(engine, planner=planner),
        ),
    )


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_matrix_element_identical(engine, planner):
    """10 seeds × grouped/columnar, every result element-identical to the
    oracle."""
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        queries = random_queries(rng, 24)
        oracle = ReferenceEngine(graph)
        for qi, plan in enumerate(queries):
            expect = normalize(oracle.run(plan).returned)
            for layout in LAYOUTS:
                cluster = build(graph, engine, planner, layout)
                got = normalize(cluster.traverse(plan).result.returned)
                assert got == expect, (
                    f"seed {seed} q{qi} layout={layout}: {got} != {expect}"
                )


def test_aggregates_and_short_circuit_across_layouts():
    """Aggregate group keys and the planner's final-step short-circuit agree
    with the oracle on every layout."""
    rng = random.Random(99)
    graph = random_graph(rng)
    plans = [
        GTravel.v(1).e("link").count().compile(),
        GTravel.v(1).e("link").e("ref").group_count("type").compile(),
        GTravel.v(2).e("ref").group_count("x").compile(),
    ]
    for plan in plans:
        expect = ReferenceEngine(graph).run(plan).aggregate
        for layout in LAYOUTS:
            for planner in PLANNERS:
                cluster = build(graph, EngineKind.GRAPHTREK, planner, layout)
                got = cluster.traverse(plan).result.aggregate
                assert got == expect, (layout, planner, got, expect)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_rerun_metrics_byte_identical(layout):
    """Same (seed, config) twice → same results and a byte-identical
    metrics snapshot; columnar decode counters included."""
    rng = random.Random(5)
    graph = random_graph(rng)
    plan = random_queries(rng, 24, n=1)[0]

    def one_run():
        cluster = build(graph, EngineKind.GRAPHTREK, "cost", layout)
        result = normalize(cluster.traverse(plan).result.returned)
        snapshot = repr(sorted(cluster.metrics_snapshot()["counters"].items()))
        storage = repr([s.store.metrics_snapshot() for s in cluster.servers])
        return result, snapshot, storage

    first, second = one_run(), one_run()
    assert first[0] == second[0]
    assert first[1] == second[1], "metric counters differ across reruns"
    assert first[2] == second[2], "storage snapshots differ across reruns"


def test_columnar_decode_counters_move():
    """Sanity: the columnar path actually decodes blocks (the counters the
    explain/profile layer attributes per step)."""
    rng = random.Random(11)
    graph = random_graph(rng)
    plan = random_queries(rng, 24, n=1)[0]
    cluster = build(graph, EngineKind.GRAPHTREK, "off", "columnar")
    cluster.traverse(plan)
    decoded = sum(s.store.decoded_blocks for s in cluster.servers)
    assert decoded > 0
    snap = cluster.servers[0].store.metrics_snapshot()
    assert "bytes_per_edge" in snap


def test_chaos_crash_columnar():
    """A server crash mid-traversal under the columnar layout: the restart
    must reproduce the fault-free result (or fail cleanly), exactly as the
    grouped layout's chaos suite guarantees."""
    rng = random.Random(21)
    graph = random_graph(rng)
    plan = GTravel.v(3).e("link").e("ref").e("link").compile()
    ok = 0
    for seed in range(4):
        outcome = chaos_check(
            graph,
            [plan],
            seed=seed,
            engine=EngineKind.GRAPHTREK,
            crash=True,
            edge_layout="columnar",
        )
        (v,) = outcome.verdicts
        assert v.matched or v.failed_cleanly, (
            f"seed {seed}: diverged under faults: {v.error}"
        )
        assert not outcome.leaked, outcome.leaked
        ok += v.matched
    assert ok >= 2, "crash chaos never completed successfully"


def test_migration_chunks_roundtrip_columnar_blocks():
    """export_vertices → import_vertices between columnar stores moves the
    raw blocks losslessly: same adjacency, same bytes/edge accounting."""
    rng = random.Random(31)
    graph = random_graph(rng)
    src = load(graph, list(range(24)), "columnar")
    dst = GraphStore(LSMConfig(), edge_layout="columnar")
    vids = list(range(12))
    pairs, meta = src.export_vertices(vids)
    assert dst.import_vertices(pairs, meta) == len(vids)
    for vid in vids:
        for label in ("link", "ref"):
            want, _ = src.edges(vid, label)
            got, _ = dst.edges(vid, label)
            assert sorted(got, key=repr) == sorted(want, key=repr), (vid, label)
    src_snap = src.metrics_snapshot()
    dst_snap = dst.metrics_snapshot()
    moved_edges = sum(
        len(src.edges(v, l)[0]) for v in vids for l in ("link", "ref")
    )
    assert dst_snap["edge_count"] == moved_edges
    # the imported representation is the same bytes, so the gauge agrees
    # with re-encoding from scratch
    fresh = load(graph, vids, "columnar")
    assert dst_snap["edge_bytes"] == fresh.metrics_snapshot()["edge_bytes"]
    assert src_snap["edge_count"] >= moved_edges


@pytest.mark.parametrize(
    "exporter, importer",
    [("grouped", "columnar"), ("interleaved", "columnar"), ("columnar", "grouped")],
)
def test_cross_layout_import_raises_typed_error(exporter, importer):
    """A store reads only its own layout's edge records, so absorbing a
    chunk of the other record kind would make those edges silently
    unreadable; the import raises the typed error instead."""
    graph = random_graph(random.Random(41))
    vids = list(range(24))
    pairs, meta = load(graph, vids, exporter).export_vertices(vids)
    target = GraphStore(LSMConfig(), edge_layout=importer)
    with pytest.raises(EdgeLayoutMismatch) as err:
        target.import_vertices(pairs, meta)
    assert err.value.layout == importer
    assert err.value.tag == (b"B" if exporter == "columnar" else b"E")
    assert isinstance(err.value, StorageError)


def id_only_frame(ids):
    """The retired 0xC7 id-only block frame (magic, count, zigzag deltas,
    CRC32): no store writes it, so none may accept it."""
    body = bytearray([0xC7, len(ids)])
    prev = 0
    for vid in ids:  # small non-negative deltas: one zigzag byte each
        body.append((vid - prev) << 1)
        prev = vid
    return bytes(body) + struct.pack(">I", zlib.crc32(body))


def wrong_frames(stored: bytes):
    return {"id-only": id_only_frame([1, 2, 3]), "truncated": stored[:-1]}


@pytest.mark.parametrize("frame", ["id-only", "truncated"])
def test_import_rejects_a_foreign_block_frame(multi_label_vertex, frame):
    """A migration chunk whose block is not a stored ``AdjacencyBlock`` frame
    fails at the import, not at the first read of the vertex."""
    graph, v, _ = multi_label_vertex
    pairs, meta = load(graph, [v], "columnar").export_vertices([v])
    key, stored = next(
        (k, val) for k, val in pairs if enc.vertex_key_tag(k)[2] == b"B"
    )
    bad = tuple((k, wrong_frames(stored)[frame] if k == key else val)
                for k, val in pairs)
    target = GraphStore(LSMConfig(), edge_layout="columnar")
    with pytest.raises(CorruptAdjacencyBlock):
        target.import_vertices(bad, meta)


@pytest.mark.parametrize("frame", ["id-only", "truncated"])
def test_restore_rejects_a_foreign_block_frame(
    multi_label_vertex, tmp_path, frame
):
    """The same frames in a checkpoint fail at restore (the accounting
    rebuild), not at the first read."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    key = enc.edge_block_key(store.namespace_of(v), v, "read")
    stored, _ = store.kv.get(key)
    store.kv.put(key, wrong_frames(stored)[frame])
    checkpoint_graph_store(store, tmp_path)
    with pytest.raises(CorruptAdjacencyBlock):
        restore_graph_store(tmp_path)


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_live_migration_columnar_identical(engine):
    """A migration racing a traversal under the columnar layout moves data,
    never answers (the PR-9 guarantee, extended to the new layout)."""
    rng = random.Random(51)
    graph = random_graph(rng)
    plan = GTravel.v(1).e("link").e("ref").compile()
    expect = normalize(ReferenceEngine(graph).run(plan).returned)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            edge_layout="columnar",
            engine=engine,
            migration=MigrationConfig(chunk_vertices=4, dual_window=0.02),
            journal=True,
        ),
    )
    _, travel_event = cluster.submit(plan)
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:8])
    _, mig_event = cluster.rebalance(1, 2, vids=vids, wait=False)
    outcome = cluster.runtime.run_until_complete(travel_event)
    state = cluster.runtime.run_until_complete(mig_event)
    assert normalize(outcome.result.returned) == expect
    assert state.phase in ("done", "aborted")
    if state.phase == "done":
        for vid in vids:
            assert cluster.servers[2].store.has_vertex(vid)
    # post-migration reads on the target still serve every migrated block
    again = cluster.traverse(plan)
    assert normalize(again.result.returned) == expect
