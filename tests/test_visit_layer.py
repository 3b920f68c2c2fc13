"""Unit tests for the shared per-vertex visit/expansion layer."""

import pytest

from repro.engine.frontier import EMPTY_ANCHORS
from repro.engine.visit import (
    ExpandSinks,
    VisitData,
    expand_vertex,
    filters_at,
    labels_needed,
    needs_props,
    read_vertex,
)
from repro.graph import GraphBuilder
from repro.lang import EQ, FilterSet, GTravel
from repro.lang.filters import PropertyFilter
from repro.storage import GraphStore, LSMConfig
from repro.storage.costmodel import IOCost
from repro.storage.layout import load_partitions


@pytest.fixture()
def plan():
    return (
        GTravel.v(0)
        .e("x")
        .va("color", EQ, "red")
        .e("y")
        .compile()
    )


def owner(vid):
    return vid % 2


def test_labels_needed_by_level(plan):
    assert labels_needed(plan, [0]) == {"x"}
    assert labels_needed(plan, [1]) == {"y"}
    assert labels_needed(plan, [2]) == set()  # final level scans nothing
    assert labels_needed(plan, [0, 1]) == {"x", "y"}


def test_filters_at_levels(plan):
    assert not filters_at(plan, 0, None)  # no source filters
    assert filters_at(plan, 1, None).filters[0].key == "color"
    override = FilterSet((PropertyFilter("z", EQ, 1),))
    assert filters_at(plan, 0, override) is override


def test_needs_props(plan):
    assert not needs_props(plan, [0], None)
    assert needs_props(plan, [1], None)
    assert needs_props(plan, [0, 1], None)


def test_read_vertex_single_label_scan():
    b = GraphBuilder()
    v = b.vertex("T", color="red")
    w = b.vertex("T")
    b.edge(v, w, "x", n=1)
    b.edge(v, w, "y", n=2)
    store = GraphStore(LSMConfig())
    store.load_partition(b.build(), [v, w])
    data = read_vertex(store, v, {"x"}, want_props=False)
    assert data.props is None
    assert [dst for dst, _ in data.edges["x"]] == [w]
    assert "y" not in data.edges
    assert data.cost.seeks >= 1


def test_read_vertex_multi_label_single_scan():
    b = GraphBuilder()
    v = b.vertex("T")
    w = b.vertex("T")
    b.edge(v, w, "x")
    b.edge(v, w, "y")
    b.edge(v, w, "z")
    store = GraphStore(LSMConfig())
    store.load_partition(b.build(), [v, w])
    single = read_vertex(store, v, {"x"}, want_props=False).cost
    combined = read_vertex(store, v, {"x", "y"}, want_props=False).cost
    # one scan over the whole edge block serves both labels: one seek
    assert combined.seeks == single.seeks
    data = read_vertex(store, v, {"x", "y"}, want_props=False)
    assert set(data.edges) == {"x", "y"}  # z filtered out, x/y present


def test_read_vertex_with_props():
    b = GraphBuilder()
    v = b.vertex("T", color="red")
    store = GraphStore(LSMConfig())
    store.load_partition(b.build(), [v])
    data = read_vertex(store, v, set(), want_props=True)
    assert data.props["color"] == "red"


def test_expand_final_level_collects_results(plan):
    sinks = ExpandSinks()
    data = VisitData(props={"color": "red"}, edges={}, cost=IOCost())
    outcome = expand_vertex(
        plan, 2, 7, EMPTY_ANCHORS, data, owner, sinks, (), "T"
    )
    assert outcome == "final"
    assert sinks.final_results == {7}


def test_expand_vertex_filter_blocks(plan):
    sinks = ExpandSinks()
    data = VisitData(props={"color": "blue"}, edges={"y": [(9, {})]}, cost=IOCost())
    outcome = expand_vertex(plan, 1, 5, EMPTY_ANCHORS, data, owner, sinks, (), "T")
    assert outcome == "filtered"
    assert not sinks.out


def test_expand_routes_by_owner(plan):
    sinks = ExpandSinks()
    data = VisitData(props=None, edges={"x": [(2, {}), (3, {}), (4, {})]}, cost=IOCost())
    outcome = expand_vertex(plan, 0, 0, EMPTY_ANCHORS, data, owner, sinks, (), "T")
    assert outcome == "expanded"
    assert set(sinks.out) == {(1, 0), (1, 1)}
    assert set(sinks.out[(1, 0)]) == {2, 4}
    assert set(sinks.out[(1, 1)]) == {3}


def test_expand_edge_filters_apply():
    plan = GTravel.v(0).e("x").ea("n", EQ, 1).compile()
    sinks = ExpandSinks()
    data = VisitData(
        props=None, edges={"x": [(2, {"n": 1}), (3, {"n": 2})]}, cost=IOCost()
    )
    expand_vertex(plan, 0, 0, EMPTY_ANCHORS, data, owner, sinks, (), "T")
    assert list(sinks.out[(1, 0)]) == [2]
    assert (1, 1) not in sinks.out


def test_expand_rtn_level_extends_anchors():
    plan = GTravel.v(0).rtn().e("x").compile()
    sinks = ExpandSinks()
    data = VisitData(props=None, edges={"x": [(3, {})]}, cost=IOCost())
    expand_vertex(plan, 0, 0, EMPTY_ANCHORS, data, owner, sinks, (0,), "T")
    assert sinks.out[(1, 1)][3] == (frozenset({0}),)


def test_expand_final_reports_anchors_to_owners():
    plan = GTravel.v(0).rtn().e("x").compile()
    sinks = ExpandSinks()
    anchors = (frozenset({0, 1}),)
    data = VisitData(props=None, edges={}, cost=IOCost())
    expand_vertex(plan, 1, 9, anchors, data, owner, sinks, (0,), "T")
    assert sinks.anchors_by_owner[(0, 0)] == {0}
    assert sinks.anchors_by_owner[(0, 1)] == {1}
    # rtn() marks only level 0, so the final level itself is not returned
    assert sinks.final_results == set()


def test_expand_type_filter_uses_vertex_type():
    plan = GTravel.v(0).e("x").va("type", EQ, "File").compile()
    sinks = ExpandSinks()
    data = VisitData(props={}, edges={}, cost=IOCost())
    assert expand_vertex(plan, 1, 5, EMPTY_ANCHORS, data, owner, sinks, (), "File") == "final"
    sinks2 = ExpandSinks()
    assert expand_vertex(plan, 1, 5, EMPTY_ANCHORS, data, owner, sinks2, (), "Job") == "filtered"


# -- edge-property projection (ISSUE 21) -----------------------------------------


def _two_label_store(layout, scenario):
    """A vertex with ``x``/``y`` out-edges (and reverse adjacency) in one of
    the LSM states a read can meet: bulk-loaded only (the single-run scan
    fast path), a live insert in the memtable over it, a tombstone in the
    memtable over it, or one flushed table that itself holds a tombstone
    (the last three must take the merge path)."""
    from repro.storage import encoding as enc

    b = GraphBuilder()
    v = b.vertex("T", color="red")
    others = [b.vertex("T") for _ in range(6)]
    for i, w in enumerate(others):
        b.edge(v, w, "x" if i % 2 else "y", n=i, note="p" * i)
        b.edge(w, v, "x", n=10 + i)
    graph = b.build()
    store = GraphStore(LSMConfig(), edge_layout=layout)
    if scenario == "flushed-tombstone":
        store.insert_vertex(v, "T", {"color": "red"})
        for label, dst, props in graph.out_edges(v):
            store.insert_edge(v, dst, label, props)
    else:
        load_partitions(graph, [store], [[v, *others]], reverse=True)
    if scenario == "memtable":
        store.insert_edge(v, others[0], "x", {"n": 99})
    if scenario in ("tombstone", "flushed-tombstone"):
        pairs, _ = store.kv.scan_prefix(enc.vertex_prefix("T", v))
        victim = [k for k, _ in pairs if enc.vertex_key_tag(k)[2] != b"A"][-1]
        store.kv.delete(victim)
    if scenario == "flushed-tombstone":
        store.kv.flush()
        assert [t.has_tombstones for t in store.kv.sstables] == [True]
    return store, v


@pytest.mark.parametrize(
    "scenario", ["bulk", "memtable", "tombstone", "flushed-tombstone"]
)
@pytest.mark.parametrize("layout", ["grouped", "interleaved", "columnar"])
def test_props_free_read_matches_full_read(layout, scenario):
    store, v = _two_label_store(layout, scenario)
    labels = ["x", "y"] + (["~x"] if scenario != "flushed-tombstone" else [])
    for label in labels:
        full, full_cost = store.edges(v, label)
        lean, lean_cost = store.edges(v, label, None, False)
        assert [dst for dst, _ in lean] == [dst for dst, _ in full]
        assert lean_cost == full_cost
        assert all(props is not None for _, props in full)
    full, full_cost = store.all_edges(v)
    lean, lean_cost = store.all_edges(v, None, False)
    assert [(lbl, dst) for lbl, dst, _ in lean] == [(lbl, dst) for lbl, dst, _ in full]
    assert lean_cost == full_cost
    for want in ({"x"}, {"x", "y"}, set(labels)):
        a = read_vertex(store, v, want, False)
        b = read_vertex(store, v, want, False, None, False)
        assert a.cost == b.cost
        assert {l: [d for d, _ in e] for l, e in a.edges.items()} == {
            l: [d for d, _ in e] for l, e in b.edges.items()
        }
    if layout == "grouped":
        assert all(props is None for _, props in store.edges(v, "x", None, False)[0])


def test_pushdown_predicate_still_sees_props_and_counts_rejections():
    store, v = _two_label_store("grouped", "bulk")
    before = store.kv.stats.entries_filtered
    kept, _ = store.edges(v, "x", lambda props: props["n"] >= 3, False)
    assert [props["n"] for _, props in kept] == [3, 5]
    assert store.kv.stats.entries_filtered - before == 1
    kept, _ = store.all_edges(v, {"y": lambda props: props["n"] == 0}, False)
    assert sorted(lbl for lbl, _, _ in kept) == ["x", "x", "x", "y"]
    assert store.kv.stats.entries_filtered - before == 3


@pytest.mark.parametrize("layout", ["grouped", "interleaved", "columnar"])
def test_merged_visit_mixing_filtered_and_unfiltered_levels_matches_oracle(
    layout, monkeypatch
):
    """Execution merging serves a vertex queued at two levels with one read;
    when one level has an ``ea()`` filter and the other has none the read
    must keep the properties, and the unfiltered level must not mind them."""
    import random

    from repro import Cluster, ClusterConfig, EngineKind, ReferenceEngine
    from repro.engine import async_engine
    from repro.lang import RANGE

    rng = random.Random(4)
    b = GraphBuilder()
    vids = [b.vertex("T") for _ in range(40)]
    for v in vids:
        for label in ("a", "b"):
            for w in rng.sample(vids, 6):
                b.edge(v, w, label, w=rng.randrange(100))
    graph = b.build()
    filtered_then_free = GTravel.v(vids[0])
    for _ in range(2):  # levels 0 and 2 filter ``a`` edges; 1 and 3 take all ``b``
        filtered_then_free = (
            filtered_then_free.e("a").ea("w", RANGE, (0, 60)).e("b")
        )
    plan = filtered_then_free.compile()
    reads = []
    real_read = async_engine.read_vertex

    def spy(store, vid, want_labels, want_props, edge_preds=None, edge_props=True):
        reads.append((frozenset(want_labels), edge_props))
        return real_read(store, vid, want_labels, want_props, edge_preds, edge_props)

    monkeypatch.setattr(async_engine, "read_vertex", spy)
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, edge_layout=layout),
    )
    outcome = cluster.traverse(plan)
    assert outcome.result.same_result(ReferenceEngine(graph).run(plan))
    assert (frozenset("ab"), True) in reads, "no merged visit mixed the two levels"
    assert (frozenset("b"), False) in reads, "the unfiltered level never projected"
    assert (frozenset("a"), False) not in reads


def test_all_hit_units_record_the_parents_counts():
    """A unit whose every item the affiliate cache drops never enters
    ``_visit``; its hits are summed and flushed at unit end. The numbers are
    those of the per-item implementation on the same seeded cell."""
    from repro import Cluster, ClusterConfig, EngineKind
    from repro.workloads import (
        paper_rmat1,
        pick_start_vertex,
        rmat_graph,
        rmat_kstep_query,
    )

    config = paper_rmat1(scale=8, seed=1)
    cluster = Cluster.build(
        rmat_graph(config),
        ClusterConfig(nservers=4, engine=EngineKind.GRAPHTREK, trace_enabled=True),
    )
    query = rmat_kstep_query(pick_start_vertex(config), 6)
    outcome = cluster.traverse(query.compile(), cold=True)
    units = [
        e.attrs
        for e in cluster.obs.trace.events()
        if e.kind == "exec.terminated" and e.attrs.get("reason") == "ok"
    ]
    all_hit = [u for u in units if u["vertices"] and u["cache_hits"] == u["vertices"]]
    assert (len(units), len(all_hit)) == (168, 80)
    assert sum(u["cache_hits"] for u in all_hit) == 1463
    assert all(u["real"] == 0 and u["created"] == 0 for u in all_hit)
    hits = sum(u["cache_hits"] for u in units)
    assert hits == 3432 == outcome.stats.redundant_visits
    assert cluster.obs.metrics.counter_total("cache.affiliate_hits") == 3432
