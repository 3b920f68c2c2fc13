"""Failure detection, traversal restart, and straggler-injection tests."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    CoordinatorConfig,
    ExternalInterference,
    StragglerSpec,
    paper_interference,
)
from repro.engine import EngineKind, ReferenceEngine
from repro.errors import TraversalFailed
from repro.faults.plan import FaultPlan, FaultSpec
from repro.ids import COORDINATOR
from repro.lang import GTravel
from repro.net.message import TraverseRequest
from repro.workloads import (
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
)
from tests.conftest import ALL_ENGINES, DropWhen


def fast_watchdog(**kwargs):
    return CoordinatorConfig(exec_timeout=0.5, watch_interval=0.1, **kwargs)


def test_lost_dispatch_detected_and_restarted(metadata_graph):
    """Drop the first inter-server dispatch: the execution never terminates,
    the watchdog times out, and the restarted attempt succeeds (§IV-C)."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK,
                      coordinator_config=fast_watchdog()),
    )
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
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped, "test premise: a dispatch must have been dropped"
    assert out.stats.restarts == 1
    expected = ReferenceEngine(graph).run(plan)
    assert out.result.same_vertices(expected)


def test_persistent_failure_exhausts_restarts(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK,
                      coordinator_config=fast_watchdog(max_restarts=1)),
    )
    # every forward dispatch to server 1 vanishes, in every attempt
    cluster.runtime.fault_injector = DropWhen(lambda src, dst, msg: (
        isinstance(msg, TraverseRequest) and dst == 1 and msg.level > 0 and src != dst
    ))
    plan = GTravel.v(*ids["users"]).e("run").e("hasExecutions").compile()
    with pytest.raises(TraversalFailed, match="restarts"):
        cluster.traverse(plan)


@pytest.mark.parametrize("reliable", [False, True], ids=["raw", "reliable"])
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_exhausted_restarts_leave_no_travel_state(engine, reliable):
    """A traversal that fails by exhausting its restart budget runs the same
    terminal sequence as every other outcome: board, engine tables and
    channel dedup state for the travel are all released."""
    config = paper_rmat1(scale=7, edge_factor=8, seed=1)
    # no status report ever reaches the coordinator, in any attempt
    lost = FaultSpec(drop=1.0)
    cluster = Cluster.build(
        rmat_graph(config),
        ClusterConfig(
            nservers=4,
            engine=engine,
            coordinator_config=CoordinatorConfig(exec_timeout=0.5, max_restarts=1),
            fault_plan=FaultPlan(
                seed=1, per_type={"ExecStatus": lost, "SyncStepDone": lost}
            ),
            reliable=reliable,
        ),
    )
    with pytest.raises(TraversalFailed, match="restarts") as err:
        cluster.traverse(rmat_kstep_query(pick_start_vertex(config), 4))
    travel_id = err.value.travel_id
    assert travel_id not in cluster.board._stats
    assert cluster.registry.get(travel_id) is None
    assert travel_id not in cluster.coordinator._active
    for server in cluster.servers:
        eng = server.engine
        if engine is EngineKind.SYNC:
            tables = (eng._buffers, eng._batch_counts, eng._expected)
        else:
            tables = (eng._pending, eng._rtn_forwarded, eng._sent, eng.seen)
        assert [len(t) for t in tables] == [0] * len(tables), server.server_id
    if reliable:
        seen = cluster.runtime.channel._seen
        assert seen and all(travel_id not in per for per in seen.values())


def test_sync_engine_restart_after_lost_batch(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.SYNC,
                      coordinator_config=fast_watchdog()),
    )
    dropped = []

    def drop_one(src, dst, msg):
        from repro.net.message import SyncBatch
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
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert out.stats.restarts == 1
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


def test_restart_does_not_duplicate_results(metadata_graph):
    """Results reported by the failed attempt must not leak into the final
    result set (attempt-tagged messages are discarded)."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK,
                      coordinator_config=fast_watchdog()),
    )
    state = {"dropped": False}

    def drop_late(src, dst, msg):
        # drop a level-2 dispatch so level-1 work completes (and may report)
        if (
            isinstance(msg, TraverseRequest)
            and msg.level == 2
            and msg.attempt == 0
            and not state["dropped"]
        ):
            state["dropped"] = True
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_late)
    plan = GTravel.v(*ids["users"]).rtn().e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))


# -- straggler injection -------------------------------------------------------------

def test_interference_policy_budget():
    policy = ExternalInterference([StragglerSpec(server=1, level=3, delay=0.05, count=2)])
    assert policy.delay(1, 3) == 0.05
    assert policy.delay(1, 3) == 0.05
    assert policy.delay(1, 3) == 0.0  # budget exhausted
    assert policy.injected == 2
    assert policy.remaining() == 0


def test_interference_only_matching_server_level():
    policy = ExternalInterference([StragglerSpec(server=1, level=3)])
    assert policy.delay(0, 3) == 0.0
    assert policy.delay(1, 2) == 0.0
    assert policy.delay(1, None) == 0.0


def test_paper_interference_round_robin():
    policy = paper_interference(servers=(4, 5, 6), levels=(1, 3, 7))
    specs = {(s.server, s.level) for s in policy.specs}
    assert specs == {(4, 1), (5, 3), (6, 7)}


def test_interference_slows_traversal(metadata_graph):
    graph, ids = metadata_graph
    plan = GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read").compile()
    base = Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.SYNC))
    slow = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.SYNC,
            interference=ExternalInterference(
                [StragglerSpec(server=s, level=1, delay=0.01, count=100) for s in range(3)]
            ),
        ),
    )
    t_base = base.traverse(plan).stats.elapsed
    t_slow = slow.traverse(plan).stats.elapsed
    assert t_slow > t_base


def test_interference_identical_for_both_engines(metadata_graph):
    """The paper's fairness requirement: fixed deterministic delays mean both
    engines face the same injected interference budget."""
    graph, ids = metadata_graph
    plan = GTravel.v(*ids["users"]).e("run").e("hasExecutions").compile()
    injected = []
    for kind in (EngineKind.SYNC, EngineKind.GRAPHTREK):
        policy = ExternalInterference([StragglerSpec(server=0, level=1, delay=0.005, count=50)])
        cluster = Cluster.build(
            graph, ClusterConfig(nservers=3, engine=kind, interference=policy)
        )
        out = cluster.traverse(plan)
        assert out.result.vertices  # sanity: the traversal returned something
        injected.append(policy.injected)
    assert injected[0] > 0
    # both engines visit the same unique (level, vertex) work on that server
    assert injected[0] == injected[1]
