"""ExecTracker edge cases and execution-count accounting (paper §IV-C).

The tracker must stay exact under message reordering (a child's termination
outracing its creation report), under fine-grained replay (duplicate
termination reports for one logical execution), and across stale attempts.
The per-traversal ``executions`` statistic counts *fresh* terminations only —
the coordinator double-counting replayed executions was a real bug these
tests pin down.
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.engine.tracing import ExecTracker
from repro.lang import GTravel
from repro.net.message import ExecStatus, TraverseRequest
from tests.conftest import DropWhen


def status(eid, created=(), results=0, attempt=0, server=0):
    return ExecStatus(
        travel_id=1, exec_id=eid, server=server,
        created=tuple(created), results_sent=results, attempt=attempt,
    )


class TestReordering:
    def test_child_termination_before_parent_creation_report(self):
        tracker = ExecTracker()
        tracker.register_initial([(1, 0, 0)], now=0.0)
        # child 2's termination arrives first: parked as early-terminated
        assert tracker.on_status(status(2), now=1.0) is True
        assert not tracker.complete
        assert 2 in tracker.early_terminated
        # parent 1 terminates and registers child 2's creation: reconciled
        assert tracker.on_status(status(1, created=[(2, 1, 1)]), now=2.0) is True
        assert tracker.complete
        assert tracker.created_total == 2
        assert tracker.terminated_total == 2
        assert not tracker.early_terminated and not tracker.pending

    def test_creation_report_of_already_terminated_child_not_recounted(self):
        tracker = ExecTracker()
        tracker.register_initial([(1, 0, 0), (3, 1, 0)], now=0.0)
        assert tracker.on_status(status(1, created=[(2, 1, 1)]), now=1.0) is True
        assert tracker.on_status(status(2), now=2.0) is True
        # a replayed parent repeats the creation of (already terminated) 2
        assert tracker.on_status(status(1, created=[(2, 1, 1)]), now=3.0) is False
        assert tracker.created_total == 3  # 1, 3, and 2 — each exactly once
        assert tracker.terminated_total == 2


class TestDuplicateTerminations:
    def test_duplicate_after_replay_returns_false(self):
        tracker = ExecTracker()
        tracker.register_initial([(1, 0, 0)], now=0.0)
        assert tracker.on_status(status(1), now=1.0) is True
        # the replayed execution reports termination a second time
        assert tracker.on_status(status(1), now=2.0) is False
        assert tracker.terminated_total == 1
        assert tracker.complete

    def test_duplicate_does_not_reregister_children_or_results(self):
        tracker = ExecTracker()
        tracker.register_initial([(1, 0, 0)], now=0.0)
        tracker.on_status(status(1, created=[(2, 1, 1)], results=1), now=1.0)
        before = tracker.snapshot()
        assert tracker.on_status(
            status(1, created=[(2, 1, 1)], results=1), now=2.0
        ) is False
        assert tracker.snapshot() == before, (
            "a duplicate report must not change any accounting"
        )

    def test_duplicate_of_early_terminated_exec_returns_false(self):
        tracker = ExecTracker()
        tracker.register_initial([(1, 0, 0)], now=0.0)
        assert tracker.on_status(status(2), now=1.0) is True  # early
        assert tracker.on_status(status(2), now=2.0) is False  # replayed dup
        tracker.on_status(status(1, created=[(2, 1, 1)]), now=3.0)
        # the duplicate must not have left a second early-termination behind
        assert tracker.complete
        assert tracker.terminated_total == 2

    def test_stale_attempt_ignored(self):
        tracker = ExecTracker(attempt=1)
        tracker.register_initial([(5, 0, 0)], now=10.0)
        assert tracker.on_status(status(5, attempt=0), now=11.0) is False
        assert tracker.last_activity == 10.0  # stale reports are not activity
        assert 5 in tracker.pending


# -- integration: restart/replay counters and the executions statistic --------


def _fast_watchdog(**kwargs):
    return CoordinatorConfig(exec_timeout=0.5, watch_interval=0.1, **kwargs)


def _drop_first_forward():
    dropped = []

    def flt(src, dst, msg):
        if (
            isinstance(msg, TraverseRequest)
            and msg.level > 0
            and msg.attempt == 0
            and src != dst
            and not dropped
        ):
            dropped.append(msg)
            return True
        return False

    return flt, dropped


def test_timeout_triggered_restart_counters(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK,
                      coordinator_config=_fast_watchdog(), trace_enabled=True),
    )
    flt, dropped = _drop_first_forward()
    cluster.runtime.fault_injector = DropWhen(flt)
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped and out.stats.restarts == 1
    metrics = cluster.obs.metrics
    assert metrics.counter_value("coord.timeouts") >= 1
    assert metrics.counter_value("coord.restarts") == 1
    (complete,) = (
        e
        for e in cluster.obs.trace.events_for(out.result.travel_id)
        if e.kind == "travel.complete"
    )
    assert complete.attrs["restarts"] == 1


def test_replayed_executions_not_double_counted(metadata_graph):
    """The executions statistic of a run recovered via replay must match a
    failure-free run: one logical execution, however many times its status
    is (re)reported, counts once."""
    graph, ids = metadata_graph
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()

    clean = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    clean_out = clean.traverse(plan)

    recovered = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            coordinator_config=_fast_watchdog(fine_grained_recovery=True),
        ),
    )
    flt, dropped = _drop_first_forward()
    recovered.runtime.fault_injector = DropWhen(flt)
    out = recovered.traverse(plan)
    assert dropped
    assert out.stats.restarts == 0 and out.stats.replays >= 1
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))
    assert out.result.same_vertices(clean_out.result)
    assert out.stats.executions == clean_out.stats.executions, (
        "replay inflated the executions statistic"
    )
    assert recovered.obs.metrics.counter_value("coord.replays") >= 1


def test_sync_executions_counted_per_barrier_step(metadata_graph):
    """Sync accounting is engine-side: one execution per (server, step)."""
    graph, ids = metadata_graph
    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.SYNC))
    plan = GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read").compile()
    out = cluster.traverse(plan)
    # 3 servers x 4 levels (0..3) under global barriers
    assert out.stats.executions == 12
    assert cluster.obs.metrics.counter_total("engine.status_reports") == 12
