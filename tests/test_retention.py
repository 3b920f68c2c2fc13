"""A finished traversal frees its coordinator-side state.

The coordinator is a long-lived service: once a travel reaches its terminal
status, its :class:`ActiveTravel`, the completion tracker of every attempt
(:class:`ExecTracker` or :class:`SyncBarrierState`) and any
:class:`CompositeTravel` must be garbage. ``leaked_state`` checks the
coordinator's tables; these tests hold weak references to the objects
themselves and require every one dead after the terminal status and
``gc.collect()``. Watchdogs are the process most likely to keep a travel
alive: they sleep ``watch_interval`` (5 virtual seconds by default) while a
small travel finishes in milliseconds, so they hold theirs only weakly.

Covered: GraphTrek, Async and Sync linear travels, a composite, a cancelled
travel, a travel failed by exhausted restarts, and a travel resumed after a
coordinator crash (the dead epoch's travel and the resumed one).
"""

import gc
import weakref

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.coordinator import (
    ActiveTravel,
    CompositeTravel,
    CoordinatorConfig,
)
from repro.engine import EngineKind
from repro.engine.tracing import ExecTracker, SyncBarrierState
from repro.errors import TraversalCancelled, TraversalFailed
from repro.lang import GTravel
from repro.net.message import ExecStatus, SyncStepDone
from tests.conftest import ALL_ENGINES, DropWhen


def watch(cluster):
    """``(type name, travel id, weak reference)`` for every travel object
    ``cluster``'s coordinator makes from now on: each launch's
    ``ActiveTravel`` and tracker (first submit, restart, post-crash resume)
    and each ``CompositeTravel``."""
    coordinator = cluster.coordinator
    refs: list[tuple[str, int, weakref.ref]] = []
    launch, start_composite = coordinator._launch, coordinator._start_composite

    def held(obj, travel_id):
        refs.append((type(obj).__name__, travel_id, weakref.ref(obj)))

    def tracked_launch(at):
        launch(at)
        held(at, at.travel_id)
        held(at.tracker, at.travel_id)

    def tracked_start_composite(*args):
        ct = start_composite(*args)
        held(ct, ct.travel_id)
        return ct

    coordinator._launch = tracked_launch
    coordinator._start_composite = tracked_start_composite
    return refs


def kinds(refs) -> list[str]:
    return [kind for kind, _tid, _ref in refs]


def alive(refs) -> list[tuple[str, int]]:
    gc.collect()
    return [(kind, tid) for kind, tid, ref in refs if ref() is not None]


def chain(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read")


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_a_finished_linear_travel_is_freed(metadata_graph, engine):
    graph, ids = metadata_graph
    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=engine))
    refs = watch(cluster)
    outcome = cluster.traverse(chain(ids))
    assert outcome.result.vertices
    tracker = SyncBarrierState if engine is EngineKind.SYNC else ExecTracker
    assert kinds(refs) == [ActiveTravel.__name__, tracker.__name__]
    assert alive(refs) == []


def test_a_finished_composite_and_its_children_are_freed(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    refs = watch(cluster)
    users = ids["users"]
    cluster.traverse(
        GTravel.v(*users).repeat(GTravel.s().e("run").e("hasExecutions")).times(2)
    )
    cluster.traverse(
        GTravel.v(users[0]).union(
            GTravel.s().e("run"), GTravel.s().e("run").e("hasExecutions")
        )
    )
    assert kinds(refs).count(CompositeTravel.__name__) == 2
    assert kinds(refs).count(ActiveTravel.__name__) >= 4  # their children
    assert alive(refs) == []


def test_a_cancelled_travel_is_freed(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    refs = watch(cluster)
    runtime = cluster.runtime
    tid, event = cluster.submit(chain(ids))
    runtime.schedule(1e-4, lambda: cluster.cancel(tid, reason="test"))
    with pytest.raises(TraversalCancelled):
        runtime.run_until_complete(event)
    assert kinds(refs) == [ActiveTravel.__name__, ExecTracker.__name__]
    assert alive(refs) == []


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_a_travel_failed_by_exhausted_restarts_is_freed(metadata_graph, engine):
    """Every attempt's tracker goes too, not just the last one."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=engine,
            coordinator_config=CoordinatorConfig(
                exec_timeout=0.5, watch_interval=0.1, max_restarts=1
            ),
        ),
    )
    # no report ever reaches the coordinator, in any attempt
    cluster.runtime.fault_injector = DropWhen(
        lambda src, dst, msg: isinstance(msg, (ExecStatus, SyncStepDone))
    )
    refs = watch(cluster)
    with pytest.raises(TraversalFailed, match="restarts"):
        cluster.traverse(chain(ids))
    tracker = SyncBarrierState if engine is EngineKind.SYNC else ExecTracker
    # the restart relaunches the same ActiveTravel under a fresh tracker
    assert kinds(refs) == [ActiveTravel.__name__, tracker.__name__] * 2
    assert alive(refs) == []


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_a_travel_resumed_after_a_coordinator_crash_is_freed(metadata_graph, engine):
    """The dead epoch's ``ActiveTravel`` and the resumed one share a travel
    id; both are freed once the resumed travel completes."""
    graph, ids = metadata_graph

    def run(crash_at=None):
        cluster = Cluster.build(
            graph, ClusterConfig(nservers=3, engine=engine, journal=True)
        )
        refs = watch(cluster)
        runtime, host = cluster.runtime, cluster.config.coordinator_server
        _tid, event = cluster.submit(chain(ids))
        if crash_at is not None:
            runtime.schedule(crash_at, lambda: runtime.crash_server(host))
            runtime.schedule(2 * crash_at, lambda: runtime.recover_server(host))
        outcome = runtime.run_until_complete(event)
        return cluster, refs, outcome

    _c, _r, clean = run()
    cluster, refs, crashed = run(crash_at=0.3 * clean.stats.elapsed)
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("coord.resumed") == 1, "the crash missed the travel"
    assert crashed.result.returned == clean.result.returned
    travels = [tid for kind, tid, _ref in refs if kind == ActiveTravel.__name__]
    assert len(travels) == 2 and len(set(travels)) == 1
    assert alive(refs) == []

