"""Threaded-runtime fault parity (satellite: the ThreadRuntime previously had
no injection hook at all).

Same engines, same fault machinery, real OS threads. Timings — and therefore
the exact retry/drop counters — are wall-clock nondeterministic, so these
tests assert *result-set parity* with the fault-free simulated run, not
counter equality.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.faults import FaultPlan, FaultSpec
from repro.ids import COORDINATOR
from repro.lang import GTravel
from repro.net.message import SyncBatch, TraverseRequest
from tests.conftest import DropWhen

#: generous virtual-time watchdog so slow CI machines never trigger restarts
RELAXED = CoordinatorConfig(exec_timeout=1e6, watch_interval=50.0)
#: watchdog tight enough (in scaled virtual seconds) to restart within a test
FAST = CoordinatorConfig(exec_timeout=3.0, watch_interval=0.5, max_restarts=3)


def build(graph, kind, runtime, **cfg):
    return Cluster.build(
        graph, ClusterConfig(nservers=3, engine=kind, runtime=runtime, **cfg)
    )


def run_and_shutdown(cluster, plan):
    try:
        return cluster.traverse(plan).result
    finally:
        cluster.shutdown()


def test_threaded_injected_drop_recovers_via_restart(metadata_graph):
    """Port of test_failure_and_restart's lost-dispatch scenario: the
    threaded runtime honours the fault-injection slot, and the watchdog restart
    converges to the oracle result."""
    graph, ids = metadata_graph
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    cluster = build(graph, EngineKind.GRAPHTREK, "threaded", coordinator_config=FAST)
    dropped = []

    def drop_first_forward(src, dst, msg):
        if (
            isinstance(msg, TraverseRequest)
            and msg.level > 0
            and msg.attempt == 0
            and not dropped
        ):
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_first_forward)
    result = run_and_shutdown(cluster, plan)
    assert dropped, "test premise: a dispatch must have been dropped"
    assert result.same_vertices(ReferenceEngine(graph).run(plan))
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("net.dropped{reason=fault,type=TraverseRequest}") == 1


def test_threaded_sync_drop_recovers(metadata_graph):
    """Port of the sync lost-batch scenario to the threaded runtime."""
    graph, ids = metadata_graph
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    cluster = build(graph, EngineKind.SYNC, "threaded", coordinator_config=FAST)
    dropped = []

    def drop_one(src, dst, msg):
        if (
            isinstance(msg, SyncBatch)
            and msg.attempt == 0
            and not dropped
            and src != COORDINATOR
        ):
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_one)
    result = run_and_shutdown(cluster, plan)
    assert dropped
    assert result.same_vertices(ReferenceEngine(graph).run(plan))


@pytest.mark.parametrize("kind", [EngineKind.GRAPHTREK, EngineKind.SYNC])
def test_runtime_fault_parity_per_seed(metadata_graph, kind):
    """Both runtimes under the same seeded fault plan converge to the same
    final result set (the plan's *decisions* differ per runtime because the
    message streams differ, but the delivered semantics must not)."""
    graph, ids = metadata_graph
    plan_q = GTravel.v(*ids["users"]).e("run").e("hasExecutions").compile()
    fault_plan = FaultPlan(
        seed=13, default=FaultSpec(drop=0.03, duplicate=0.05, delay=0.1, reorder=0.1)
    )
    sim = build(
        graph, kind, "simulated",
        fault_plan=fault_plan, reliable=True,
        coordinator_config=CoordinatorConfig(
            exec_timeout=1.0, watch_interval=0.2, max_restarts=3,
            fine_grained_recovery=kind is not EngineKind.SYNC,
        ),
    )
    sim_result = run_and_shutdown(sim, plan_q)
    thr = build(
        graph, kind, "threaded",
        fault_plan=fault_plan, reliable=True, coordinator_config=FAST,
    )
    thr_result = run_and_shutdown(thr, plan_q)
    expected = ReferenceEngine(graph).run(plan_q)
    assert sim_result.same_vertices(expected)
    assert thr_result.same_vertices(expected)
    assert thr_result.same_vertices(sim_result)


def test_threaded_reliable_channel_metrics_flow(metadata_graph):
    """The channel's counters are wired on the threaded runtime too."""
    graph, ids = metadata_graph
    cluster = build(
        graph, EngineKind.GRAPHTREK, "threaded",
        reliable=True, coordinator_config=RELAXED,
    )
    plan = GTravel.v(ids["users"][0]).e("run").compile()
    result = run_and_shutdown(cluster, plan)
    assert result.same_vertices(ReferenceEngine(graph).run(plan))
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("net.acks", 0) > 0
    assert any(k.startswith("net.sends") for k in counters)
