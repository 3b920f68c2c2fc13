"""Coordinator crash-recovery differential suite (the PR's acceptance
criterion).

The coordinator-hosting server crashes mid-traversal and recovers inside the
fault window, with the durable traversal journal enabled. The contract is
*element-identical* results — not merely a clean failure: recovery replays
the journal, starts a new epoch, fences every stale pre-crash report, and
restarts in-doubt travels through the fine-grained replay path, so the
client's result set must equal the fault-free run's. Covered here: ten
seeded plans on GraphTrek, the engine × planner-mode matrix, concurrent
workloads under both scheduler policies (with composite repeat/union legs
and a deadline-cancel leg), zero leaked state, journal replay determinism
(byte-identical recovered metrics snapshots), epoch fencing, and the client
idempotent-resubmission contract.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.cluster.client import GraphTrekClient
from repro.engine import (
    EngineKind,
    graphtrek_options,
    plain_async_options,
    sync_options,
)
from repro.errors import AdmissionRejected
from repro.faults.chaos import (
    chaos_check,
    chaos_check_many,
    chaos_coordinator_config,
    run_fault_free,
    run_under_faults,
)
from repro.faults.plan import sample_fault_plan
from repro.lang import GTravel
from repro.net.message import ExecStatus, TraverseRequest
from repro.sched import SchedulerConfig
from tests.conftest import DropWhen


RECOVERY_SEEDS = list(range(10))
MODES = ("off", "rules", "cost")
PRESETS = {
    "sync": sync_options,
    "async": plain_async_options,
    "graphtrek": graphtrek_options,
}


def recovery_query(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read").compile()


def mixed_queries(ids):
    """Linear chains plus composite repeat/union legs, all restartable."""
    u = ids["users"]
    return [
        GTravel.v(*u).e("run").e("hasExecutions").compile(),
        GTravel.v(*u).repeat(GTravel.s().e("run").e("hasExecutions")).times(1).compile(),
        GTravel.v(u[0]).union(
            GTravel.s().e("run"), GTravel.s().e("run").e("hasExecutions")
        ).compile(),
        GTravel.v(*u).e("run").e("hasExecutions").e("read").compile(),
    ]


# -- single-travel differential: crash + recover the coordinator host ----------


@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_coordinator_crash_differential_graphtrek(metadata_graph, seed):
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph, recovery_query(ids), seed=seed, crash_coordinator=True
    )
    # recovery must reproduce the fault-free result set — a clean failure is
    # NOT acceptable here, the whole point is that the travel survives
    assert outcome.matched, (
        f"seed {seed}: recovered run diverged (error={outcome.error})\n"
        f"plan={outcome.plan}\ncounters={outcome.net_counters}"
    )
    # and the coordinator host really did crash
    assert outcome.net_counters.get("faults.crashes{server=0}") == 1, (
        outcome.net_counters
    )


@pytest.mark.parametrize("preset", sorted(PRESETS), ids=str)
@pytest.mark.parametrize("mode", MODES)
def test_coordinator_crash_engines_and_planner_modes(metadata_graph, preset, mode):
    """The engine × planner-mode matrix: recovery is element-identical no
    matter which engine runs the travel or how the planner rewrote it."""
    graph, ids = metadata_graph
    opts = PRESETS[preset](planner=mode)
    for seed in (1, 4):
        outcome = chaos_check(
            graph,
            recovery_query(ids),
            seed=seed,
            engine=opts,
            crash_coordinator=True,
            max_drop=0.06,
        )
        assert outcome.matched, (
            f"{preset}/planner={mode} seed {seed}: {outcome.error}\n"
            f"counters={outcome.net_counters}"
        )


# -- concurrent: scheduler policies, composites, deadline cancel, zero leak ----


@pytest.mark.parametrize("policy", ("fifo", "wfq"))
@pytest.mark.parametrize("seed", (0, 1, 4, 7))
def test_coordinator_crash_concurrent_mixed(metadata_graph, policy, seed):
    """Queued, running, composite, and deadline-armed travels all cross a
    coordinator epoch together; each must match its serial oracle (or, for
    the deadline leg, cancel cleanly) and nothing may leak."""
    graph, ids = metadata_graph
    queries = mixed_queries(ids)
    outcome = chaos_check_many(
        graph,
        queries,
        seed=seed,
        scheduler=policy,
        crash_coordinator=True,
        deadlines=[None, None, None, 5e-4],
        tenants=["default", "batch", "default", "batch"],
    )
    assert not outcome.leaked, outcome.leaked
    assert outcome.ok, [
        (v.index, v.matched, v.cancelled, v.error) for v in outcome.verdicts
    ]
    # the non-deadline legs must have *matched*, not merely failed cleanly
    for v in outcome.verdicts[:3]:
        assert v.matched, (v.index, v.error)


# -- journal replay determinism ------------------------------------------------


@pytest.mark.parametrize("seed", (1, 4))
def test_recovered_metrics_snapshots_are_deterministic(metadata_graph, seed):
    """Same crash plan + seed → byte-identical full metrics snapshot, result
    payload, and journal contents after recovery: journal replay is a pure
    function of the durable bytes."""
    graph, ids = metadata_graph
    query = recovery_query(ids)
    baseline, duration = run_fault_free(graph, query)
    plan = sample_fault_plan(
        seed,
        nservers=3,
        crash_window=(0.2 * duration, 3.0 * duration),
        crash_servers=(),
        crash_coordinator=True,
    )
    cc = chaos_coordinator_config(duration)

    def one_run():
        cluster = Cluster.build(
            graph,
            ClusterConfig(
                nservers=3,
                engine=EngineKind.GRAPHTREK,
                fault_plan=plan,
                reliable=True,
                coordinator_config=cc,
                journal=True,
            ),
        )
        outcome = cluster.traverse(query)
        snap = cluster.metrics_snapshot()
        journal_bytes = cluster.journal.storage.read()
        return outcome.result.returned, snap, journal_bytes

    res_a, snap_a, bytes_a = one_run()
    res_b, snap_b, bytes_b = one_run()
    assert res_a == {k: v for k, v in baseline.items() if isinstance(k, int)}
    assert res_a == res_b
    assert snap_a == snap_b
    assert bytes_a == bytes_b
    assert snap_a["counters"].get("coord.crash") == 1


def test_recovery_restarts_under_new_epoch(metadata_graph):
    """After recovery the coordinator runs in epoch ≥ 1, the journal carries
    the epoch record, and stale pre-crash traffic was fenced."""
    graph, ids = metadata_graph
    query = recovery_query(ids)
    baseline, duration = run_fault_free(graph, query)
    plan = sample_fault_plan(
        1,
        nservers=3,
        crash_window=(0.2 * duration, 3.0 * duration),
        crash_servers=(),
        crash_coordinator=True,
    )
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            fault_plan=plan,
            reliable=True,
            coordinator_config=chaos_coordinator_config(duration),
            journal=True,
        ),
    )
    outcome = cluster.traverse(query)
    assert outcome.result.returned == {
        k: v for k, v in baseline.items() if isinstance(k, int)
    }
    assert cluster.coordinator.epoch >= 1
    assert cluster.journal.state.epoch == cluster.coordinator.epoch
    counters = cluster.metrics_snapshot()["counters"]
    fenced = [k for k in counters if k.startswith("coord.fenced")]
    assert fenced, counters
    assert cluster.supervisor is not None
    assert not cluster.supervisor.sessions


# -- epoch fencing unit --------------------------------------------------------


def test_stale_epoch_message_is_fenced(metadata_graph):
    """A report stamped with a previous epoch is dropped and counted, never
    folded into tracker state."""
    graph, _ = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, journal=True)
    )
    coordinator = cluster.coordinator
    coordinator.begin_epoch(3)
    stale = ExecStatus(1, exec_id=7, server=0, created=(), results_sent=0)
    stale.epoch = 2
    coordinator.on_message(stale)
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("coord.fenced") == 1
    current = ExecStatus(1, exec_id=7, server=0, created=(), results_sent=0)
    current.epoch = 3
    coordinator.on_message(current)  # no active travel → ignored, not fenced
    assert cluster.metrics_snapshot()["counters"].get("coord.fenced") == 1


def test_outbound_coordinator_messages_carry_epoch(metadata_graph):
    """Every dispatch the coordinator sends is stamped with its epoch, so
    replies echo it back through the fence."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, journal=True)
    )
    seen = []

    def spy(src, dst, msg):
        seen.append(getattr(msg, "epoch", None))
        return False

    cluster.runtime.fault_injector = DropWhen(spy)
    cluster.traverse(GTravel.v(ids["users"][0]).e("run").compile())
    assert seen and all(e == 0 for e in seen)


# -- admission while the coordinator host is down ------------------------------


def test_restart_discards_the_failed_attempts_unflushed_progress(metadata_graph):
    """Progress deltas are journaled in batches; the remainder a failed
    attempt had not flushed yet must not be journaled under the next one."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            journal=True,
            coordinator_config=CoordinatorConfig(exec_timeout=0.5, watch_interval=0.1),
        ),
    )
    dropped = []

    def drop_first_forward(src, dst, msg):
        first = isinstance(msg, TraverseRequest) and msg.level > 0 and not dropped
        if first:
            dropped.append(msg)
        return first

    cluster.runtime.fault_injector = DropWhen(drop_first_forward)
    coordinator, pending = cluster.coordinator, []
    restart = coordinator._restart

    def spy(at):
        before = at.pend_statuses + at.pend_results
        restart(at)
        pending.append((before, at.pend_statuses + at.pend_results))

    coordinator._restart = spy
    out = cluster.traverse(GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile())
    assert out.stats.restarts == 1
    ((before, after),) = pending
    assert before > 0, "test premise: attempt 0 left unflushed progress deltas"
    assert after == 0


def test_submit_rejected_while_coordinator_host_down(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, journal=True)
    )
    cluster.runtime.crash_server(cluster.runtime.coordinator_server)
    with pytest.raises(AdmissionRejected, match="coordinator host is down"):
        cluster.submit(GTravel.v(ids["users"][0]).e("run").compile())
    counters = cluster.metrics_snapshot()["counters"]
    assert any(k.startswith("sched.rejected") for k in counters)


# -- idempotent resubmission ---------------------------------------------------


def test_client_idempotent_key_returns_original_submission(metadata_graph):
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, journal=True)
    )
    client = GraphTrekClient(cluster)
    query = GTravel.v(ids["users"][0]).e("run").compile()
    tid_a, ev_a = client.submit_idempotent(query, key="req-1")
    tid_b, ev_b = client.submit_idempotent(query, key="req-1")
    assert (tid_a, ev_a) == (tid_b, ev_b)
    cluster.runtime.run_until_complete(ev_a)
    # finished travels still own their key: no double run after completion
    tid_c, _ = client.submit_idempotent(query, key="req-1")
    assert tid_c == tid_a
    # a different key is a different submission
    tid_d, ev_d = client.submit_idempotent(query, key="req-2")
    assert tid_d != tid_a
    cluster.runtime.run_until_complete(ev_d)


def test_every_acknowledged_travel_is_journaled_and_restored(metadata_graph):
    """``Cluster.submit`` acknowledges a travel only once the journal holds
    it, queued or running; after a coordinator-host crash recovery resumes
    every running session and readmits every queued one, so no client
    event is left without a travel and none needs a resubmission."""
    graph, ids = metadata_graph
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            journal=True,
            trace_enabled=True,
            scheduler_config=SchedulerConfig(max_inflight=2),
        ),
    )
    runtime, host = cluster.runtime, cluster.config.coordinator_server
    query = recovery_query(ids)
    events = {}
    for tenant in ("alice", "bob", "alice", "carol", "bob"):
        tid, event = cluster.submit(query, tenant=tenant)
        state = cluster.journal.state
        assert tid in state.queued or tid in state.running
        events[tid] = event
    state = cluster.journal.state
    running, queued = set(state.running), set(state.queued)
    assert running and queued and running | queued == set(events)
    assert set(cluster.supervisor.sessions) == set(events)

    runtime.crash_server(host)
    runtime.recover_server(host)
    resumed = {
        e.travel_id for e in cluster.obs.trace.events() if e.kind == "coord.replay"
    }
    assert resumed == running
    for tid, entry in cluster.supervisor.sessions.items():
        assert entry is cluster.scheduler.entry_for(tid)
        assert entry.client_event is events[tid]
        assert entry.state == ("running" if tid in running else "queued")
    counters = cluster.metrics_snapshot()["counters"]
    assert sum(
        v for k, v in counters.items() if k.startswith("sched.readmitted")
    ) == len(queued)

    for event in events.values():
        assert runtime.run_until_complete(event).result.vertices
    assert cluster.journal.replay().terminals == {"ok": len(events)}
    assert not cluster.supervisor.sessions


def test_query_idempotent_across_coordinator_crash(metadata_graph):
    """End to end: an acknowledged submission keyed by the client survives a
    coordinator crash — resubmitting the key joins the recovered travel
    instead of double-running it."""
    graph, ids = metadata_graph
    query = recovery_query(ids)
    baseline, duration = run_fault_free(graph, query)
    plan = sample_fault_plan(
        4,
        nservers=3,
        crash_window=(0.2 * duration, 3.0 * duration),
        crash_servers=(),
        crash_coordinator=True,
    )
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            fault_plan=plan,
            reliable=True,
            coordinator_config=chaos_coordinator_config(duration),
            journal=True,
        ),
    )
    cluster.cold_start()
    client = GraphTrekClient(cluster)
    first_tid, first_ev = client.submit_idempotent(query, key="ticket-7")
    # a retry while the original is still live joins it
    retry_tid, retry_ev = client.submit_idempotent(query, key="ticket-7")
    assert (retry_tid, retry_ev) == (first_tid, first_ev)
    outcome = cluster.runtime.run_until_complete(first_ev)
    assert outcome.result.returned == {
        k: v for k, v in baseline.items() if isinstance(k, int)
    }
    # after completion the key still owns the finished travel
    tid_after, _ = client.submit_idempotent(query, key="ticket-7")
    assert tid_after == first_tid
    assert not cluster.supervisor.sessions
