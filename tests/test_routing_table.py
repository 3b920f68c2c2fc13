"""Unit tests for the versioned routing table: the single source of truth
for vertex ownership during an online shard migration — and for the fence
that keeps a superseded migration's chunks out of the target store."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import RebalanceError
from repro.graph.builder import PropertyGraph
from repro.net.message import MigrateChunk
from repro.rebalance import RoutingTable


def make_table(nservers=3):
    # base partitioner: round-robin by vertex id
    return RoutingTable(lambda vid: vid % nservers, nservers)


# -- version monotonicity ------------------------------------------------------


def test_every_mutation_bumps_the_version_monotonically():
    t = make_table()
    versions = [t.version]
    versions.append(t.begin_dual([0, 3], src=0, dst=1))
    versions.append(t.cutover([0, 3], dst=1))
    versions.append(t.begin_dual([6], src=0, dst=2))
    versions.append(t.abort_dual([6]))
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions), "a mutation reused a version"
    assert t.version == versions[-1]


def test_restore_version_never_goes_backwards():
    t = make_table()
    t.begin_dual([0], src=0, dst=1)
    t.cutover([0], dst=1)
    high = t.version
    t.restore_version(high + 5)
    assert t.version == high + 6
    t.restore_version(0)  # stale floor: no-op
    assert t.version == high + 6


def test_crash_then_restore_stays_past_journaled_high_water():
    """The crash-consistency invariant: replaying a journal whose records
    carry version ``v`` must leave the live table strictly above ``v``, so
    any in-flight step stamped pre-crash is fenced, never applied."""
    t = make_table()
    t.begin_dual([0, 3], src=0, dst=1)
    journaled = t.cutover([0, 3], dst=1)
    t.on_coordinator_crash()
    assert t.dual_count == 0 and t.override_count == 0
    t.apply_override([0, 3], dst=1)  # recovery: no bump
    t.restore_version(journaled)
    assert t.version > journaled
    assert t.owner(0) == 1 and t.owner(3) == 1


# -- stale-version fencing -----------------------------------------------------


def test_chunk_with_a_superseded_routing_version_is_fenced():
    """The migration fence: a copy chunk stamped with any routing version but
    its migration's is dropped (never applied, never acked) and counted as
    ``rebalance.fenced``; the same chunk at the current version applies."""
    g = PropertyGraph()
    for vid in range(12):
        g.add_vertex(vid, "node", {})
    for vid in range(12):
        g.add_edge(vid, (vid + 1) % 12, "link", {})
    cluster = Cluster.build(g, ClusterConfig(nservers=3))
    vid = sorted(cluster.servers[1].store.local_vertices())[0]
    mid, _ = cluster.rebalance(1, 2, vids=(vid,), wait=False)
    version = cluster.migrator.active[mid].routing_version
    pairs, meta = cluster.servers[1].store.export_vertices([vid])

    def chunk(routing_version):
        return MigrateChunk(
            mid, mid=mid, seq=0, pairs=pairs, meta=meta,
            routing_version=routing_version, from_server=1,
        )

    def fenced():
        counters = cluster.metrics_snapshot()["counters"]
        return counters.get("rebalance.fenced{server=2}", 0)

    for stale in (version - 1, version + 1):
        cluster.migrator.on_message(2, chunk(stale))
    assert fenced() == 2
    assert not cluster.servers[2].store.has_vertex(vid)
    cluster.migrator.on_message(2, chunk(version))
    assert fenced() == 2
    assert cluster.servers[2].store.has_vertex(vid)


# -- double routing ------------------------------------------------------------


def test_dual_window_routes_to_both_with_source_primary():
    t = make_table()
    assert t.owners(3) == (0,)
    t.begin_dual([3], src=0, dst=2)
    assert t.owners(3) == (0, 2), "dual window must dispatch to both owners"
    assert t.owner(3) == 0, "source stays primary until cutover"
    t.cutover([3], dst=2)
    assert t.owners(3) == (2,)
    assert t.owner(3) == 2


def test_abort_dual_reverts_to_pre_window_ownership():
    t = make_table()
    t.begin_dual([0, 3], src=0, dst=1)
    t.cutover([0, 3], dst=1)
    # second hop: 1 -> 2, aborted
    t.begin_dual([0], src=1, dst=2)
    assert t.owners(0) == (1, 2)
    t.abort_dual([0])
    assert t.owners(0) == (1,), "abort must revert to the committed owner"
    assert t.owner(3) == 1, "unrelated override untouched"


def test_cutover_back_to_base_owner_clears_the_override():
    t = make_table()
    t.begin_dual([3], src=0, dst=1)
    t.cutover([3], dst=1)
    assert t.override_count == 1
    t.begin_dual([3], src=1, dst=0)
    t.cutover([3], dst=0)  # home again: base_owner(3) == 0
    assert t.override_count == 0, "an override matching the base is noise"
    assert t.owner(3) == 0


# -- admission validation ------------------------------------------------------


def test_begin_dual_rejects_bad_moves():
    t = make_table()
    with pytest.raises(RebalanceError, match="source and target"):
        t.begin_dual([0], src=1, dst=1)
    with pytest.raises(RebalanceError, match="out of range"):
        t.begin_dual([0], src=0, dst=7)
    with pytest.raises(RebalanceError, match="owned by server"):
        t.begin_dual([1], src=0, dst=2)  # vertex 1 belongs to server 1
    t.begin_dual([0], src=0, dst=1)
    with pytest.raises(RebalanceError, match="already migrating"):
        t.begin_dual([0], src=0, dst=2)
    # failed admissions must not have half-opened a window
    assert t.dual_count == 1


def test_cutover_requires_a_matching_window():
    t = make_table()
    with pytest.raises(RebalanceError, match="no double-routing window"):
        t.cutover([0], dst=1)
    t.begin_dual([0], src=0, dst=1)
    with pytest.raises(RebalanceError, match="no double-routing window"):
        t.cutover([0], dst=2)  # window targets 1, not 2
    assert t.owners(0) == (0, 1), "failed cutover left the window intact"


# -- the published fast path -----------------------------------------------------
#
# While no vertex is moved or migrating the table publishes the base
# partitioner's ``owner`` itself and re-binds on every mutation; these tests
# hold it to the straight-line ``dual -> override -> base`` definition.


@pytest.mark.parametrize("seed", range(8))
def test_owner_matches_the_straight_line_reference_after_every_mutation(seed):
    import random

    from repro.partition.edge_cut import HashEdgeCut

    nservers, vids = 4, range(48)
    base = HashEdgeCut(nservers).owner
    t = RoutingTable(base, nservers)
    rng = random.Random(seed)
    dual: dict[int, tuple[int, int]] = {}
    overrides: dict[int, int] = {}

    def ref_owner(v):
        return dual[v][0] if v in dual else overrides.get(v, base(v))

    def commit(moved, dst):
        for v in moved:
            dual.pop(v, None)
            if base(v) == dst:
                overrides.pop(v, None)
            else:
                overrides[v] = dst

    for _ in range(60):
        version = t.version
        op = rng.choice(
            ("begin_dual", "begin_dual", "cutover", "abort_dual",
             "apply_override", "on_coordinator_crash", "restore_version")
        )
        if op == "begin_dual":
            src, dst = rng.sample(range(nservers), 2)
            movable = [v for v in vids if v not in dual and ref_owner(v) == src]
            moved = rng.sample(movable, min(len(movable), rng.randint(1, 3)))
            t.begin_dual(moved, src, dst)
            dual.update({v: (src, dst) for v in moved})
        elif op == "cutover" and dual:
            dst = rng.choice(sorted({d for _, d in dual.values()}))
            moved = [v for v, (_, d) in dual.items() if d == dst]
            t.cutover(moved, dst)
            commit(moved, dst)
        elif op == "abort_dual" and dual:
            moved = rng.sample(sorted(dual), rng.randint(1, len(dual)))
            t.abort_dual(moved)
            for v in moved:
                del dual[v]
        elif op == "apply_override":
            moved, dst = rng.sample(vids, 3), rng.randrange(nservers)
            t.apply_override(moved, dst)
            commit(moved, dst)
        elif op == "on_coordinator_crash":
            t.on_coordinator_crash()
            dual.clear()
            overrides.clear()
        elif op == "restore_version":
            t.restore_version(t.version + rng.randint(-3, 3))
        assert t.version >= version
        for v in vids:
            assert t.owner(v) == ref_owner(v), (op, v)
            assert t.owners(v) == (dual[v] if v in dual else (ref_owner(v),)), (op, v)
        assert (t.owner == base) == (not dual and not overrides), (
            "the base owner is published exactly while nothing is moved"
        )


@pytest.mark.parametrize("engine", ["Sync-GT", "Async-GT", "GraphTrek"])
def test_engine_built_before_a_cutover_forwards_to_the_new_owner(engine):
    """Engines read ``routing.owner`` when they forward: a callable captured
    at build would keep sending the migrated vertex's requests to the server
    that dropped it, and its expansion would vanish from the result."""
    from repro import Cluster, ClusterConfig, EngineKind, ReferenceEngine
    from repro.lang import GTravel
    from repro.workloads import paper_rmat1, rmat_graph

    graph = rmat_graph(paper_rmat1(scale=7, seed=5))
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=4, engine=EngineKind(engine))
    )
    owner = cluster.routing.owner
    via, start = next(
        (dst, src)
        for src in sorted(graph.vertex_ids())
        for _, dst, _ in graph.out_edges(src)
        if owner(dst) != owner(src) and graph.out_degree(dst) > 0
    )
    plan = GTravel.v(start).e("link").e("link").compile()
    want = ReferenceEngine(graph).run(plan)
    assert cluster.traverse(plan).result.same_result(want)  # base owner in use
    old, new = owner(via), (owner(via) + 1) % 4
    assert cluster.rebalance(old, new, vids=[via]).phase == "done"
    assert cluster.routing.owner(via) == new
    assert not cluster.servers[old].store.has_vertex(via)
    assert cluster.traverse(plan).result.same_result(want)
