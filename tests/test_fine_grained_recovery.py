"""Tests for fine-grained failure recovery (the paper's future-work feature).

With ``fine_grained_recovery=True``, the coordinator replays lost executions
from their creators' replay buffers instead of restarting the whole
traversal; receiver-side deduplication makes replays idempotent. When replay
cannot help (orphan terminations), the watchdog falls back to a full restart.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.lang import GTravel
from repro.net.message import ExecStatus, ReplayExec, SuccessReport, TraverseRequest
from tests.conftest import DropWhen


def recovery_config(**kwargs):
    defaults = dict(
        exec_timeout=0.5,
        watch_interval=0.1,
        fine_grained_recovery=True,
    )
    defaults.update(kwargs)
    return CoordinatorConfig(**defaults)


def build(graph, **cfg):
    return Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            coordinator_config=recovery_config(**cfg.pop("coordinator", {})),
            **cfg,
        ),
    )


def test_lost_forward_request_replayed_without_restart(metadata_graph):
    graph, ids = metadata_graph
    cluster = build(graph)
    dropped = []

    def drop_first_forward(src, dst, msg):
        if (
            isinstance(msg, TraverseRequest)
            and msg.level > 0
            and not dropped
            and src != dst
        ):
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_first_forward)
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped
    assert out.stats.restarts == 0, "fine-grained recovery must avoid a restart"
    assert out.stats.replays >= 1
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_lost_initial_dispatch_replayed_by_coordinator(metadata_graph):
    graph, ids = metadata_graph
    cluster = build(graph)
    dropped = []

    def drop_first_initial(src, dst, msg):
        if isinstance(msg, TraverseRequest) and msg.level == 0 and not dropped:
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_first_initial)
    plan = GTravel.v(*ids["users"]).e("run").compile()
    out = cluster.traverse(plan)
    assert dropped
    assert out.stats.restarts == 0
    assert out.stats.replays >= 1
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_lost_success_report_replayed(metadata_graph):
    graph, ids = metadata_graph
    cluster = build(graph)
    dropped = []

    def drop_first_success(src, dst, msg):
        if isinstance(msg, SuccessReport) and not dropped:
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_first_success)
    plan = GTravel.v(*ids["jobs"]).rtn().e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped
    assert out.stats.restarts == 0
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_lost_status_falls_back_to_restart(metadata_graph):
    """When a status report (with its creation registrations) is lost,
    replay cannot reconstruct the bookkeeping — full restart kicks in."""
    graph, ids = metadata_graph
    cluster = build(graph)
    dropped = []

    def drop_status_with_children(src, dst, msg):
        if (
            isinstance(msg, ExecStatus)
            and msg.attempt == 0
            and msg.created
            and not dropped
        ):
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_status_with_children)
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped
    assert out.stats.restarts >= 1  # replay was not sufficient
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_persistent_loss_exhausts_replays_then_restarts(metadata_graph):
    graph, ids = metadata_graph
    cluster = build(graph, coordinator={"max_restarts": 2})
    # every forward dispatch to server 1 is lost in attempt 0, including
    # replays; attempt 1 is clean
    def drop_attempt0_to_1(src, dst, msg):
        return (
            isinstance(msg, TraverseRequest)
            and dst == 1
            and msg.level > 0
            and msg.attempt == 0
        )

    cluster.runtime.fault_injector = DropWhen(drop_attempt0_to_1)
    plan = GTravel.v(*ids["users"]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert out.stats.restarts >= 1
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_replay_unknown_exec_is_ignored(metadata_graph):
    """A bogus ReplayExec must not crash or corrupt an idle engine."""
    graph, _ = metadata_graph
    cluster = build(graph)
    engine = cluster.servers[0].engine
    engine.on_message(ReplayExec(999, exec_id=12345, attempt=0))
    cluster.runtime.sim.run()  # nothing to do; must stay quiet
    assert cluster.runtime.sim.orphan_failures == []


def test_recovery_disabled_by_default(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            coordinator_config=CoordinatorConfig(exec_timeout=0.5, watch_interval=0.1),
        ),
    )
    dropped = []

    def drop_one(src, dst, msg):
        if isinstance(msg, TraverseRequest) and msg.level > 0 and not dropped and msg.attempt == 0:
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_one)
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert out.stats.restarts == 1  # paper-default behaviour: full restart
    assert out.stats.replays == 0
