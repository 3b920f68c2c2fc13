"""The control plane's seams (DESIGN.md §11, §13): the surface both completion
trackers share, the order of the coordinator's terminal listeners, and the
queued-side cancel a recovery performs when a deadline passed while the
coordinator host was down."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.engine.tracing import ExecTracker, SyncBarrierState
from repro.errors import TraversalCancelled
from repro.ids import COORDINATOR
from repro.lang import GTravel
from repro.net.message import ExecStatus, SyncStepDone
from repro.sched.scheduler import SchedulerConfig


# -- the shared tracker surface, on scripted inputs -----------------------------


def observe(tracker) -> dict:
    """Everything the coordinator may ask a tracker, whichever class it is."""
    return {
        "complete": tracker.complete,
        "last_activity": tracker.last_activity,
        "progress": tracker.progress(),
        "owing": sorted(tracker.owing_servers()),
        "replayable": tracker.replayable(),
        "replayable_on_1": tracker.replayable(1),
    }


def initial(*execs):
    return lambda tracker, now: tracker.register_initial(list(execs), now)


def status(exec_id, server, created=(), results_sent=0, attempt=0):
    msg = ExecStatus(
        1, exec_id=exec_id, server=server, created=tuple(created),
        results_sent=results_sent, attempt=attempt,
    )
    return lambda tracker, now: tracker.on_status(msg, now)


def step_done(level, server, sent=None, results_sent=0, final_level=1):
    msg = SyncStepDone(
        1, level=level, server=server, sent_counts=dict(sent or {}),
        results_sent=results_sent,
    )
    return lambda tracker, now: tracker.on_step_done(msg, now, final_level)


def result():
    return lambda tracker, now: tracker.on_result(now)


#: name -> (tracker factory, [(op, op's return value, expected observations)]);
#: step k runs at virtual time k + 1, and every observation not listed must
#: simply stay readable
SCRIPTS = {
    "async: fresh, duplicate and stale status; result after quiescence": (
        ExecTracker,
        [
            (
                initial((1, 0, 0), (2, 1, 0)),
                None,
                {
                    "complete": False,
                    "owing": [0, 1],
                    "progress": {0: 2},
                    "replayable": [(1, COORDINATOR), (2, COORDINATOR)],
                    "replayable_on_1": [(2, COORDINATOR)],
                },
            ),
            # exec 1 terminates fresh, creating exec 3 on server 1 at level 1
            # and declaring one result message
            (
                status(1, 0, created=[(3, 1, 1)], results_sent=1),
                True,
                {
                    "complete": False,
                    "last_activity": 2.0,
                    "owing": [1, 1],
                    "progress": {0: 1, 1: 1},
                    "replayable": [(2, COORDINATOR), (3, 0)],
                },
            ),
            # the same report again (a replayed execution): not fresh
            (status(1, 0, created=[(3, 1, 1)], results_sent=1), False, {"owing": [1, 1]}),
            # a stale attempt's report changes nothing, not even the clock
            (status(2, 1, attempt=7), False, {"last_activity": 3.0, "owing": [1, 1]}),
            (status(2, 1), True, {"owing": [1]}),
            # quiescent, but the declared result has not arrived
            (status(3, 1), True, {"complete": False, "owing": [], "replayable": []}),
            (result(), None, {"complete": True, "last_activity": 7.0}),
        ],
    ),
    "async: result before quiescence; early termination blocks replay": (
        ExecTracker,
        [
            (initial((1, 0, 0)), None, {"replayable": [(1, COORDINATOR)]}),
            (result(), None, {"complete": False, "last_activity": 2.0}),
            # exec 9 terminates before its creator's report registered it:
            # replay cannot reconstruct that registration, so nothing is
            # replayable — not even exec 1, which is pending as usual
            (
                status(9, 2),
                True,
                {"complete": False, "owing": [0], "replayable": [], "replayable_on_1": []},
            ),
            # the creator's report arrives and reconciles the orphan
            (
                status(1, 0, created=[(9, 2, 1)], results_sent=1),
                True,
                {"complete": True, "owing": [], "progress": {}},
            ),
        ],
    ),
    "barrier: two levels, results before and after the last step": (
        lambda: SyncBarrierState(2),
        [
            (
                step_done(0, 0, sent={1: 2}),
                None,
                {
                    "complete": False,
                    "last_activity": 1.0,
                    "owing": [1],
                    "progress": {0: 1},
                    "replayable": [],
                    "replayable_on_1": [],
                },
            ),
            # a report for a level the barrier is not at is ignored
            (step_done(1, 1), None, {"last_activity": 1.0, "owing": [1]}),
            # the level's last server: the next level's batch counts come back
            (
                step_done(0, 1, sent={0: 1, 1: 1}),
                {0: 1, 1: 3},
                {"owing": [0, 1], "progress": {1: 2}},
            ),
            (result(), None, {"complete": False, "last_activity": 4.0}),
            (step_done(1, 0, results_sent=1), None, {"owing": [1]}),
            # the last server of the final level declares a second result
            (
                step_done(1, 1, results_sent=1),
                None,
                {"complete": False, "owing": [], "progress": {1: 0}},
            ),
            (result(), None, {"complete": True, "replayable": []}),
        ],
    ),
    "barrier: a short-circuited final level never runs its own round": (
        lambda: SyncBarrierState(1),
        [
            # a 1-step plan whose final step is short-circuited dispatches
            # level 0 only (effective final level 0): its one server's
            # report finishes the steps without releasing level 1
            (
                step_done(0, 0, sent={0: 4}, results_sent=1, final_level=0),
                None,
                {"complete": False, "owing": [], "progress": {0: 0}},
            ),
            (result(), None, {"complete": True}),
        ],
    ),
}


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_tracker_surface_on_scripted_inputs(name):
    factory, steps = SCRIPTS[name]
    tracker = factory()
    assert observe(tracker)["complete"] is False
    for k, (op, returned, expected) in enumerate(steps):
        assert op(tracker, float(k + 1)) == returned, f"step {k} return value"
        seen = observe(tracker)
        assert {key: seen[key] for key in expected} == expected, f"after step {k}"


# -- terminal listeners -----------------------------------------------------------


def two_step(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").compile()


def test_terminal_listeners_run_telemetry_then_scheduler_then_supervisor(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            journal=True,
            scheduler_config=SchedulerConfig(max_inflight=1),
        ),
    )
    coordinator, scheduler, supervisor = (
        cluster.coordinator, cluster.scheduler, cluster.supervisor,
    )
    listeners = coordinator.terminal_listeners
    assert listeners[1:] == [scheduler.on_travel_terminal, supervisor.drop_session]
    order, slo_seen = [], []

    def named(name, listener):
        def spy(travel_id, status):
            # what this listener can still read when its turn comes
            order.append(
                (
                    name,
                    travel_id,
                    status,
                    scheduler.entry_for(travel_id) is not None,
                    travel_id in supervisor.sessions,
                )
            )
            listener(travel_id, status)

        return spy

    listeners[:] = [
        named(name, listener)
        for name, listener in zip(("telemetry", "scheduler", "supervisor"), listeners)
    ]
    record_terminal = cluster.slo.record_terminal

    def slo_spy(tenant, status, latency, now):
        slo_seen.append((tenant, status))
        record_terminal(tenant, status, latency, now)

    cluster.slo.record_terminal = slo_spy

    running, running_event = cluster.submit(two_step(ids), tenant="alice")
    queued, queued_event = cluster.submit(two_step(ids), tenant="bob")
    assert scheduler.entry_for(queued).state == "queued"

    # a queued-side cancel: the coordinator never saw the travel, the
    # scheduler already dropped its entry, so telemetry reads no tenant
    assert cluster.cancel(queued, "operator")
    assert order == [
        ("telemetry", queued, "cancelled", False, True),
        ("scheduler", queued, "cancelled", False, True),
        ("supervisor", queued, "cancelled", False, True),
    ]
    assert slo_seen == []
    assert queued not in supervisor.sessions
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(queued_event)

    # a running terminal: telemetry runs while the scheduler's QoS entry is
    # still alive, the scheduler pops it, the supervisor drops the binding
    del order[:]
    cluster.runtime.run_until_complete(running_event)
    assert order == [
        ("telemetry", running, "ok", True, True),
        ("scheduler", running, "ok", True, True),
        ("supervisor", running, "ok", False, True),
    ]
    assert slo_seen == [("alice", "ok")]
    assert not supervisor.sessions


# -- readmission of an expired travel ----------------------------------------------


def test_deadline_passing_while_host_is_down_cancels_at_readmission(metadata_graph):
    """A queued travel whose deadline passes while the coordinator host is
    down is cancelled by ``restore`` through the same queued-side sequence
    as a live cancel: counter *and* trace event, a ``terminal`` journal
    record, the typed error, no supervisor session left."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            journal=True,
            trace_enabled=True,
            scheduler_config=SchedulerConfig(max_inflight=1),
        ),
    )
    runtime, host = cluster.runtime, cluster.config.coordinator_server
    _running, running_event = cluster.submit(two_step(ids), tenant="alice")
    expiring, expiring_event = cluster.submit(two_step(ids), tenant="bob", deadline=0.5)
    assert cluster.scheduler.entry_for(expiring).state == "queued"
    runtime.crash_server(host)
    runtime.schedule(1.0, lambda: runtime.recover_server(host))
    with pytest.raises(TraversalCancelled) as caught:
        runtime.run_until_complete(expiring_event)
    assert caught.value.reason == "deadline exceeded"
    assert runtime.now() == pytest.approx(1.0)  # at readmission, not at the timer
    assert runtime.run_until_complete(running_event).result.vertices

    assert cluster.journal.replay().terminals == {"cancelled": 1, "ok": 1}
    assert not cluster.supervisor.sessions
    counters = cluster.metrics_snapshot()["counters"]
    assert counters["sched.cancelled{tenant=bob,where=queued}"] == 1
    cancels = [e for e in cluster.obs.trace.events() if e.kind == "sched.cancel"]
    assert len(cancels) == sum(
        v for k, v in counters.items() if k.startswith("sched.cancelled")
    )
    assert [(e.travel_id, e.attrs["where"], e.attrs["reason"]) for e in cancels] == [
        (expiring, "queued", "deadline exceeded")
    ]
