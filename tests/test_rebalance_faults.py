"""Chaos legs for online shard migration: crashes and wire faults landing
on every phase of the protocol.

The contract mirrors the rest of the fault stack, extended to ownership:
queries racing a migration match their serial fault-free oracle or fail
cleanly; the migration reaches a clean terminal phase (``done`` or
``aborted`` — never wedged); after recovery every migrated vertex is owned
by exactly one server that actually holds its data (none lost, none owned
twice); and no migration state leaks.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.engine.options import options_for
from repro.faults.chaos import chaos_check, leaked_state
from repro.faults.plan import CrashEvent, FaultPlan, FaultSpec
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.rebalance import MigrationConfig
from repro.sched import SchedulerConfig


def random_graph(rng: random.Random, nvertices: int = 24, nedges: int = 72):
    g = PropertyGraph()
    for vid in range(nvertices):
        g.add_vertex(vid, "node", {"x": vid % 5})
    for _ in range(nedges):
        src = rng.randrange(nvertices)
        dst = rng.randrange(nvertices)
        g.add_edge(src, dst, rng.choice(("link", "ref")), {})
    return g


def random_queries(rng: random.Random, nvertices: int, n: int = 4):
    queries = []
    for _ in range(n):
        q = GTravel.v(rng.randrange(nvertices))
        for _ in range(rng.randint(1, 3)):
            q = q.e(rng.choice(("link", "ref")))
        queries.append(q.compile())
    return queries


def assert_ownership_consistent(cluster, vids):
    assert leaked_state(cluster, (), vids) == []


def test_chaos_many_with_concurrent_migration():
    """The concurrent chaos harness with a migration racing the workload
    under sampled drop/dup/delay plans (no crash): queries keep their
    differential contract and ownership ends consistent."""
    for seed in range(4):
        rng = random.Random(500 + seed)
        graph = random_graph(rng)
        outcome = chaos_check(
            graph,
            random_queries(rng, 24),
            seed=seed,
            engine=options_for(EngineKind.GRAPHTREK, scheduler="wfq"),
            scheduler_config=SchedulerConfig(max_inflight=2),
            migrate=True,
            migration=MigrationConfig(chunk_vertices=2, dual_window=0.01),
        )
        assert outcome.ok, (
            f"seed={seed}: leaked={outcome.leaked} verdicts="
            f"{[(v.index, v.matched, v.failed_cleanly, v.error) for v in outcome.verdicts]}"
        )
        assert outcome.migration_state.phase in ("done", "aborted")


def test_chaos_many_migration_with_server_crash():
    """A mid-workload backend-server crash (source, target, or bystander —
    the sampled plan decides) while the migration runs: clean abort or
    commit, never inconsistent ownership."""
    phases = set()
    for seed in range(6):
        rng = random.Random(600 + seed)
        graph = random_graph(rng)
        outcome = chaos_check(
            graph,
            random_queries(rng, 24),
            seed=seed,
            crash=True,
            migrate=True,
            migration=MigrationConfig(chunk_vertices=2, dual_window=0.02),
        )
        assert outcome.ok, (
            f"seed={seed}: leaked={outcome.leaked} verdicts="
            f"{[(v.index, v.matched, v.failed_cleanly, v.error) for v in outcome.verdicts]}"
        )
        phases.add(outcome.migration_state.phase)
    assert phases, "no migrations ran"


def test_chaos_many_migration_with_coordinator_crash():
    """Coordinator crash + journal replay with a migration in flight: the
    recovered epoch must be consistent — committed cutovers stay committed,
    anything earlier rolls back, no vertex lost or double-owned."""
    for seed in range(6):
        rng = random.Random(700 + seed)
        graph = random_graph(rng)
        outcome = chaos_check(
            graph,
            random_queries(rng, 24),
            seed=seed,
            crash_coordinator=True,
            migrate=True,
            migration=MigrationConfig(chunk_vertices=2, dual_window=0.02),
        )
        assert outcome.ok, (
            f"seed={seed}: leaked={outcome.leaked} verdicts="
            f"{[(v.index, v.matched, v.failed_cleanly, v.error) for v in outcome.verdicts]}"
        )
        assert outcome.migration_state.phase in ("done", "aborted")


@pytest.mark.parametrize("phase", ["copy", "dual"])
def test_coordinator_crash_mid_phase_recovers_consistently(phase):
    """Deterministic (non-sampled) crash placement: kill the coordinator
    host squarely inside the copy phase / the double-routing window, then
    recover and verify journal replay lands on a consistent epoch."""
    rng = random.Random(7)
    graph = random_graph(rng, nvertices=40, nedges=120)
    # slow copy for the "copy" leg (1-vertex chunks), long dual window for
    # the "dual" leg, so the crash lands inside the intended phase
    cfg = MigrationConfig(
        chunk_vertices=1 if phase == "copy" else 8,
        dual_window=0.5 if phase == "dual" else 0.01,
    )
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, journal=True, migration=cfg)
    )
    sim = cluster.runtime.sim
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:6])
    mid, event = cluster.rebalance(1, 2, vids=vids, wait=False)
    if phase == "copy":
        sim.run(until=sim.now + 0.001)
    else:
        sim.run(until=sim.now + 0.2)
        state = cluster.migrator.active.get(mid)
        assert state is not None and state.phase == "dual", (
            f"crash missed the dual window: {state and state.phase}"
        )
        assert cluster.routing.dual_count == len(vids)
    version_before = cluster.routing.version
    epoch_before = cluster.coordinator.epoch
    cluster.runtime.crash_server(0)
    sim.run(until=sim.now + 0.05)
    cluster.runtime.recover_server(0)
    sim.run(until=sim.now + 2.0)
    assert event.triggered
    terminal = event.value
    assert terminal.phase in ("done", "aborted")
    assert cluster.coordinator.epoch == epoch_before + 1
    # version monotonicity survives the crash (stale steps stay fenced)
    assert cluster.routing.version > version_before
    assert cluster.routing.dual_count == 0
    assert_ownership_consistent(cluster, vids)
    assert cluster.migrator.leaked_state() == []
    # the recovered cluster still answers correctly over the moved range
    out = cluster.traverse(GTravel.v(vids[0]).e("link"), cold=False)
    fresh = Cluster.build(graph, ClusterConfig(nservers=3))
    want = fresh.traverse(GTravel.v(vids[0]).e("link"), cold=False)
    assert sorted(out.result.vertices) == sorted(want.result.vertices)


def test_coordinator_crash_after_cutover_commits():
    """A journaled cutover is the commit point: crash between cutover and
    the final ``done`` record must recover with the target owning the
    range and the source copy dropped (replay completes the drop)."""
    rng = random.Random(11)
    graph = random_graph(rng, nvertices=40, nedges=120)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            journal=True,
            migration=MigrationConfig(chunk_vertices=8, dual_window=0.01),
        ),
    )
    sim = cluster.runtime.sim
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:4])
    # pin a travel in _active so the post-cutover drain cannot finish
    # before we crash: submit but do not run the sim to completion
    mid, event = cluster.rebalance(1, 2, vids=vids, wait=False)
    # run until the cutover record lands in the journal
    for _ in range(200):
        sim.run(until=sim.now + 0.01)
        recs = cluster.journal.state.migrations
        if mid in recs and recs[mid]["phase"] in ("cutover", "done"):
            break
    rec = cluster.journal.state.migrations[mid]
    cluster.runtime.crash_server(0)
    sim.run(until=sim.now + 0.05)
    cluster.runtime.recover_server(0)
    sim.run(until=sim.now + 2.0)
    assert event.triggered
    state = event.value
    # journaled at cutover (or later) == committed, even though the
    # in-memory migration process died with the coordinator
    assert rec["phase"] in ("cutover", "done")
    assert state.phase == "done"
    for vid in vids:
        assert cluster.routing.owner(vid) == 2
        assert cluster.servers[2].store.has_vertex(vid)
        assert not cluster.servers[1].store.has_vertex(vid)
    assert cluster.journal.state.migrations[mid]["phase"] == "done"
    assert cluster.migrator.leaked_state() == []


def test_drop_and_reorder_on_migration_traffic():
    """Targeted wire faults on the migration data plane itself: heavy drop
    + reorder on MigrateChunk and dropped MigrateAcks. The idempotent
    (mid, seq) apply + bounded resend protocol must converge with every
    chunk applied exactly once."""
    rng = random.Random(13)
    graph = random_graph(rng, nvertices=40, nedges=120)
    plan = FaultPlan(
        seed=13,
        per_type={
            "MigrateChunk": FaultSpec(
                drop=0.25, duplicate=0.2, reorder=0.5, reorder_window=0.01
            ),
            "MigrateAck": FaultSpec(drop=0.25, duplicate=0.2),
        },
    )
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            fault_plan=plan,
            journal=True,
            migration=MigrationConfig(chunk_vertices=2, dual_window=0.01),
        ),
    )
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:8])
    plan_q = GTravel.v(vids[0]).e("link").compile()
    before = sorted(cluster.traverse(plan_q, cold=False).result.vertices)
    state = cluster.rebalance(1, 2, vids=vids)
    assert state.phase == "done", state.abort_reason
    assert state.resends > 0, "no resends under 25% chunk drop — vacuous leg"
    # exactly-once apply: chunks_applied counts unique (mid, seq) applies
    assert state.chunks_applied == (len(vids) + 1) // 2
    assert_ownership_consistent(cluster, vids)
    after = sorted(cluster.traverse(plan_q, cold=False).result.vertices)
    assert after == before
    assert cluster.migrator.leaked_state() == []


def test_source_crash_mid_copy_aborts_cleanly():
    """The migration source crashing (and never recovering) mid-copy: the
    chunk job notices, the migration aborts, target partials are dropped,
    and ownership reverts to the (crashed, storage-intact) source."""
    rng = random.Random(17)
    graph = random_graph(rng, nvertices=40, nedges=120)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            journal=True,
            fault_plan=FaultPlan(
                seed=17, crashes=(CrashEvent(server=1, at=0.004),)
            ),
            migration=MigrationConfig(chunk_vertices=1, dual_window=0.05),
        ),
    )
    sim = cluster.runtime.sim
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:8])
    mid, event = cluster.rebalance(1, 2, vids=vids, wait=False)
    sim.run(until=sim.now + 5.0)
    assert event.triggered
    state = event.value
    assert state.phase == "aborted", state.phase
    assert cluster.routing.dual_count == 0
    assert cluster.routing.override_count == 0
    # every vertex reverted to the source; no partial copy left on target
    for vid in vids:
        assert cluster.routing.owner(vid) == 1
        assert not cluster.servers[2].store.has_vertex(vid)
    assert cluster.migrator.leaked_state() == []
