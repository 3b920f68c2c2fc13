"""Unit tests for the admission scheduler (repro.sched): policies and
admission control."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine.options import graphtrek_options
from repro.errors import AdmissionRejected, SimulationError
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.sched import (
    POLICY_NAMES,
    FifoPolicy,
    PriorityPolicy,
    QueuedTravel,
    SchedulerConfig,
    WfqPolicy,
    make_policy,
)
from repro.workloads import paper_rmat1, qos_mixed_workload, rmat_graph


def chain_graph(n: int = 40) -> PropertyGraph:
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


def build(policy: str = "fifo", sched: SchedulerConfig = None, **cfg) -> Cluster:
    return Cluster.build(
        chain_graph(),
        ClusterConfig(
            nservers=3,
            engine=graphtrek_options(scheduler=policy),
            scheduler_config=sched,
            **cfg,
        ),
    )


def entry(seq: int, steps: int, tenant: str = "default", priority=None) -> QueuedTravel:
    return QueuedTravel(
        travel_id=seq,
        plan=kstep(0, steps).compile(),
        tenant=tenant,
        priority=priority,
        client_event=None,
        admit_time=0.0,
        seq=seq,
    )


# -- policy keys --------------------------------------------------------------


def test_fifo_keys_follow_submission_order():
    policy = FifoPolicy()
    keys = [policy.key(entry(seq, steps=8 - seq)) for seq in range(4)]
    assert keys == sorted(keys)


def test_priority_defaults_to_step_count():
    policy = PriorityPolicy()
    long_first = policy.key(entry(0, steps=8))
    short_later = policy.key(entry(1, steps=2))
    assert short_later < long_first


def test_priority_explicit_class_beats_step_count():
    policy = PriorityPolicy()
    urgent_scan = policy.key(entry(0, steps=8, priority=0))
    lookup = policy.key(entry(1, steps=1))
    assert urgent_scan < lookup


def test_wfq_cheaper_traversal_gets_earlier_finish_tag():
    policy = WfqPolicy()
    scan = policy.key(entry(0, steps=8, tenant="batch"))
    small = policy.key(entry(1, steps=1, tenant="interactive"))
    assert small < scan


def test_wfq_weight_divides_cost():
    policy = WfqPolicy({"heavy": 4.0})
    light = policy.key(entry(0, steps=7, tenant="light"))  # cost 8 / 1
    heavy = policy.key(entry(1, steps=7, tenant="heavy"))  # cost 8 / 4
    assert heavy < light


def test_wfq_same_tenant_accumulates_finish_tags():
    policy = WfqPolicy()
    first = policy.key(entry(0, steps=1, tenant="t"))
    second = policy.key(entry(1, steps=1, tenant="t"))
    assert first < second


def test_wfq_rejects_non_positive_weight():
    policy = WfqPolicy({"bad": 0.0})
    with pytest.raises(SimulationError):
        policy.key(entry(0, steps=1, tenant="bad"))


def test_make_policy_names():
    for name in POLICY_NAMES:
        assert make_policy(name).name == name
    with pytest.raises(SimulationError):
        make_policy("round-robin")


# -- admission control ---------------------------------------------------------


def test_transparent_default_launches_synchronously():
    cluster = build()
    travel_id, event = cluster.submit(kstep(0, 2))
    assert cluster.scheduler.queue_depth == 0  # launched, not queued
    outcome = cluster.runtime.run_until_complete(event)
    assert sorted(outcome.result.vertices) == [2]


def test_admission_rejected_when_pending_full():
    cluster = build(sched=SchedulerConfig(max_inflight=1, max_pending=2))
    events = [cluster.submit(kstep(i, 2))[1] for i in range(3)]  # 1 runs, 2 queue
    with pytest.raises(AdmissionRejected) as err:
        cluster.submit(kstep(3, 2), tenant="spiky")
    assert err.value.tenant == "spiky"
    snap = cluster.metrics_snapshot()
    assert snap["counters"]["sched.rejected{tenant=spiky}"] == 1
    for event in events:  # the admitted ones still complete
        cluster.runtime.run_until_complete(event)


def test_rejected_submission_leaves_no_state():
    cluster = build(sched=SchedulerConfig(max_inflight=1, max_pending=1))
    ids = [cluster.submit(kstep(i, 2))[0] for i in range(2)]
    with pytest.raises(AdmissionRejected):
        cluster.submit(kstep(2, 2))
    assert cluster.scheduler.queue_depth == 1
    # no travel id was burned: the next admitted submission is contiguous
    next_id = cluster.coordinator.allocate_travel_id()
    assert next_id == max(ids) + 1


def test_max_inflight_limits_concurrency():
    cluster = build(sched=SchedulerConfig(max_inflight=2))
    events = [cluster.submit(kstep(i, 3))[1] for i in range(5)]
    assert cluster.scheduler.inflight_count == 2
    assert cluster.scheduler.queue_depth == 3
    for event in events:
        cluster.runtime.run_until_complete(event)
    assert cluster.scheduler.inflight_count == 0
    assert cluster.scheduler.queue_depth == 0


def test_launch_order_respects_policy():
    """Under priority scheduling a short traversal queued behind long ones
    launches first once a slot frees."""
    cluster = build("priority", sched=SchedulerConfig(max_inflight=1))
    cluster.enable_tracing()
    submissions = [
        cluster.submit(kstep(0, 6)),  # launches immediately
        cluster.submit(kstep(1, 6)),  # queued
        cluster.submit(kstep(2, 1)),  # queued, but shortest: launches next
    ]
    for _, event in submissions:
        cluster.runtime.run_until_complete(event)
    launches = [
        ev.travel_id
        for ev in cluster.board.obs.trace.events()
        if ev.kind == "sched.launch"
    ]
    assert launches[0] == submissions[0][0]
    assert launches[1] == submissions[2][0]  # the short one jumped the queue


def test_wait_metrics_and_gauges():
    cluster = build(sched=SchedulerConfig(max_inflight=1))
    events = [cluster.submit(kstep(i, 2), tenant="t")[1] for i in range(3)]
    for event in events:
        cluster.runtime.run_until_complete(event)
    snap = cluster.metrics_snapshot()
    assert snap["counters"]["sched.submitted{tenant=t}"] == 3
    assert snap["counters"]["sched.launched{tenant=t}"] == 3
    hist = snap["histograms"]["sched.wait_seconds{tenant=t}"]
    assert hist["count"] == 3
    assert hist["max"] > 0.0  # somebody actually queued
    assert snap["gauges"]["sched.queue_depth"] == 0
    assert snap["gauges"]["sched.inflight"] == 0


def test_elapsed_includes_queue_wait():
    """stats.elapsed is measured from admission, so a queued traversal's
    latency covers its time in the queue, as the p99 below counts it."""
    solo_small = build().traverse(kstep(1, 2), cold=False).stats.elapsed
    solo_scan = build().traverse(kstep(0, 8), cold=False).stats.elapsed
    cluster = build(sched=SchedulerConfig(max_inflight=1))
    _, scan_ev = cluster.submit(kstep(0, 8))
    _, small_ev = cluster.submit(kstep(1, 2))
    cluster.runtime.run_until_complete(scan_ev)
    queued = cluster.runtime.run_until_complete(small_ev).stats.elapsed
    # the small query waited for the whole scan, so its latency exceeds the
    # scan's solo duration — far more than its own solo run
    assert queued > solo_scan > solo_small


def test_wfq_beats_fifo_on_interactive_p99():
    """The QoS mixed workload: three 8-step batch scans submitted ahead of
    eight 2-step interactive queries, two in flight at once. FIFO makes every
    interactive query wait behind the batch; weighted-fair queueing
    (interactive 4:1 over batch) lets the cheap work overtake the queued
    scans, so the interactive p99, queue wait included, is lower. Both
    policies return the same answers."""
    scale = 8
    graph = rmat_graph(paper_rmat1(scale=scale, edge_factor=16, seed=1))
    items = qos_mixed_workload(1, 1 << scale, nscans=3, nsmall=8)
    sched = SchedulerConfig(
        max_inflight=2, tenant_weights={"interactive": 4.0, "batch": 1.0}
    )
    p99, answers = {}, {}
    for policy in ("fifo", "wfq"):
        cluster = Cluster.build(
            graph,
            ClusterConfig(
                nservers=4,
                engine=graphtrek_options(scheduler=policy),
                scheduler_config=sched,
            ),
        )
        outcomes = cluster.traverse_many(
            [item["query"] for item in items], qos=[item["qos"] for item in items]
        )
        interactive = [
            o.stats.elapsed
            for o, item in zip(outcomes, items)
            if item["kind"] == "small"
        ]
        p99[policy] = float(np.percentile(interactive, 99))
        answers[policy] = [o.result.returned for o in outcomes]
    assert p99["wfq"] < p99["fifo"], p99
    assert answers["wfq"] == answers["fifo"]


def test_drain_queued():
    from repro.errors import TraversalCancelled

    cluster = build(sched=SchedulerConfig(max_inflight=1))
    events = [cluster.submit(kstep(i, 2))[1] for i in range(4)]
    assert cluster.scheduler.drain_queued() == 3
    assert cluster.scheduler.queue_depth == 0
    cluster.runtime.run_until_complete(events[0])  # the running one finishes
    for event in events[1:]:
        with pytest.raises(TraversalCancelled):
            cluster.runtime.run_until_complete(event)
