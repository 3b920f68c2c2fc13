"""Cancellation correctness: deadline-cancelled traversals terminate cleanly
(no live executions, no leaked coordinator/registry state) and never corrupt
co-running traversals — including under mixed cancel + crash chaos."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.engine.options import options_for
from repro.errors import TraversalCancelled
from repro.faults.chaos import chaos_check, leaked_state
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.sched import SchedulerConfig

from tests.conftest import ALL_ENGINES


def chain_graph(n: int = 60) -> PropertyGraph:
    g = PropertyGraph()
    for i in range(n):
        g.add_vertex(i, "node", {})
    for i in range(n - 1):
        g.add_edge(i, i + 1, "link", {})
    return g


def kstep(src: int, steps: int) -> GTravel:
    q = GTravel.v(src)
    for _ in range(steps):
        q = q.e("link")
    return q


def assert_no_leaks(cluster, travel_id):
    assert leaked_state(cluster, [travel_id]) == []


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_deadline_cancels_running_traversal(engine: EngineKind):
    cluster = Cluster.build(
        chain_graph(), ClusterConfig(nservers=3, engine=engine)
    )
    travel_id, event = cluster.submit(kstep(0, 12), deadline=1e-6)
    with pytest.raises(TraversalCancelled) as err:
        cluster.runtime.run_until_complete(event)
    assert err.value.travel_id == travel_id
    assert err.value.reason == "deadline exceeded"
    assert_no_leaks(cluster, travel_id)
    # the cluster is still fully functional afterwards
    outcome = cluster.traverse(kstep(0, 2), cold=False)
    assert sorted(outcome.result.vertices) == [2]


def test_deadline_cancels_queued_traversal():
    cluster = Cluster.build(
        chain_graph(),
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            scheduler_config=SchedulerConfig(max_inflight=1),
        ),
    )
    _, scan_ev = cluster.submit(kstep(0, 12))
    queued_id, queued_ev = cluster.submit(kstep(1, 2), deadline=1e-6)
    assert cluster.scheduler.queue_depth == 1
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(queued_ev)
    cluster.runtime.run_until_complete(scan_ev)  # the scan is unaffected
    assert_no_leaks(cluster, queued_id)


def test_explicit_cancel_api():
    cluster = Cluster.build(
        chain_graph(), ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    travel_id, event = cluster.submit(kstep(0, 12))
    assert cluster.cancel(travel_id, reason="operator abort")
    with pytest.raises(TraversalCancelled) as err:
        cluster.runtime.run_until_complete(event)
    assert "operator abort" in str(err.value)
    assert not cluster.cancel(travel_id)  # second cancel is a no-op
    assert_no_leaks(cluster, travel_id)


def test_completed_traversal_ignores_deadline():
    """A deadline longer than the traversal must never fire."""
    cluster = Cluster.build(
        chain_graph(), ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    _, event = cluster.submit(kstep(0, 2), deadline=30.0)
    outcome = cluster.runtime.run_until_complete(event)
    assert sorted(outcome.result.vertices) == [2]


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_cancellation_never_corrupts_co_runners(engine: EngineKind):
    """Cancel one of several concurrent traversals mid-run; the survivors
    must return exactly the serial oracle's results."""
    graph = chain_graph()
    survivors = [kstep(i, 3).compile() for i in (0, 10, 20)]
    victim = kstep(0, 12).compile()
    ref = ReferenceEngine(graph)
    expected = [ref.run(plan).vertices for plan in survivors]

    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=engine))
    victim_id, victim_ev = cluster.submit(victim, tenant="batch", deadline=1e-6)
    survivor_subs = [
        cluster.submit(plan, tenant="interactive") for plan in survivors
    ]
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(victim_ev)
    for (tid, event), want in zip(survivor_subs, expected):
        outcome = cluster.runtime.run_until_complete(event)
        assert outcome.result.vertices == want
    assert_no_leaks(cluster, victim_id)


def test_cancelled_travel_metrics_and_trace():
    cluster = Cluster.build(
        chain_graph(),
        ClusterConfig(
            nservers=3, engine=EngineKind.GRAPHTREK, trace_enabled=True
        ),
    )
    travel_id, event = cluster.submit(kstep(0, 12), deadline=1e-6)
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(event)
    snap = cluster.metrics_snapshot()
    assert snap["counters"]["coord.cancelled"] == 1
    assert snap["counters"]["sched.cancelled{tenant=default,where=running}"] == 1
    kinds = [ev.kind for ev in cluster.board.obs.trace.events_for(travel_id)]
    assert "sched.cancel" in kinds
    assert "travel.cancelled" in kinds
    dag = cluster.trace_dag(travel_id)
    assert dag.status == "cancelled"


def test_chaos_mixed_cancel_and_crash():
    """chaos_check drives cancel + crash schedules concurrently: every
    non-cancelled query matches its oracle or fails cleanly, deadline
    queries may cancel, and nothing leaks."""
    graph = chain_graph()
    queries = [kstep(0, 10), kstep(5, 2), kstep(15, 2), kstep(25, 3)]
    saw_cancel = False
    for seed in range(6):
        outcome = chaos_check(
            graph,
            queries,
            seed=seed,
            engine=options_for(EngineKind.GRAPHTREK, scheduler="wfq"),
            scheduler_config=SchedulerConfig(
                max_inflight=2,
                tenant_weights={"interactive": 3.0, "batch": 1.0},
            ),
            tenants=["batch", "interactive", "interactive", "interactive"],
            # most schedules give the scan a deadline tight enough to fire
            # mid-run; every other schedule also crashes a server
            deadlines=[1e-6 if seed % 3 != 2 else None, None, None, None],
            crash=seed % 2 == 1,
        )
        assert outcome.ok, (
            f"seed={seed}: leaked={outcome.leaked} verdicts="
            f"{[(v.index, v.matched, v.cancelled, v.error) for v in outcome.verdicts]}"
        )
        saw_cancel |= any(v.cancelled for v in outcome.verdicts)
    assert saw_cancel, "no schedule ever cancelled — the mix is vacuous"

