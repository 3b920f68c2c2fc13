"""The refactoring oracle as a test: pinned metric-snapshot and trace digests.

The simulator is deterministic, so a change that only removes or moves
Python code cannot change a single counter, gauge or histogram bucket of a
seeded run. Each cell below pins ``sha256(canonical_json(metrics_snapshot()))``
for one engine on one seeded graph; a refactor passes unchanged, a change to
virtual behaviour (event order, disk cost, message count) does not.

``GOLDEN_TRACE`` pins the flight recorder's event stream the same way
(``sha256(cluster.obs.trace.to_json())`` on a traced run): it moves when an
event kind or attribute is added, removed or reordered.

``GOLDEN_WIRE`` pins the same snapshot on the rmat-seed1 cell run over the
reliable channel under a seeded fault plan, so every ``net.*``, ``faults.*``
and ``runtime.*`` value of the delivery path (drops, duplicates, retries and
acks included) is fixed; ``GOLDEN_TELEMETRY`` pins the rollup, SLO and health
documents of a two-tenant cell with a rejected submission and a fired alert.

``GOLDEN_EVENT_ORDER`` pins the simulation kernel itself: the ``(now,
label)`` log of a scripted ``Simulator`` run that crosses every tie-break
(equal-time timeouts, zero-delay chains, a priority resource, both stores,
processes joined by yielding them, an event failed into its waiter),
re-recorded when the kernel's unused ``AnyOf``/``AllOf`` and interrupts
were deleted.

``GOLDEN_CONTROL_PLANE`` pins the control plane end to end — scheduler,
coordinator, recovery supervisor and journal together — on one journaled,
traced cell that queues, cancels, replays, restarts and crosses two
coordinator epochs: the metric snapshot, the trace timeline, the journal's
replayed state and the order of every journal record, re-recorded when the
journal stopped writing records no recovery reader reads and when its
records took one fixed ``struct`` layout per kind in place of pickle.

``GOLDEN_WRITE_PATH`` pins the LSM write path per edge layout: a cell that
ingests (reverse records included), deletes a vertex, flushes past
``max_sstables`` so compaction runs, traverses and checkpoints/restores
every server. It hashes the storage counters (``lsm.*``, ``blockcache.*``,
``bloom.*``), every SSTable's keys, values and offsets before and after the
restore, and the result; recorded before the SSTables started building
their bloom filters on first probe.

``GOLDEN_BUILD`` pins what ``Cluster.build`` loads, per edge layout, under
each planner mode: every server's SSTables, location-index order and storage
gauges, the planner's merged statistics, and one traversal planned over
them. It covers a generated Darshan graph and a hand-made one with
out-of-order ids, parallel edges and self-loops; recorded while the build
still walked each partition twice and the whole graph once more for the
reverse records.

``GOLDEN_SAMPLED_TRACE`` pins a tail-sampled recorder: the metrics snapshot
and the recorder's timeline of one round of the mixed-tenant workload on a
``wfq`` + journal + reliable-channel cell tracing one travel in eight, so
the buffers of the healthy travels it throws away, the kept ones and the
``net.*`` counters of the reliable channel are all fixed; recorded before
the transport drew its jitter in blocks and before pending buffers held
plain records instead of ``TraceEvent`` objects, and re-recorded when the
journal (whose gauges the snapshot holds) shrank, when kept buffers
started landing in the ring in ``seq`` order, and when the journal's
records took a fixed ``struct`` layout (its byte gauges shrank again).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.engine.options import options_for
from repro.errors import AdmissionRejected, TraversalCancelled
from repro.faults.plan import sample_fault_plan
from repro.lang import GTravel
from repro.obs.exporter import canonical_json
from repro.obs.slo import SLOConfig
from repro.obs.trace import SamplingPolicy
from repro.sched.scheduler import SchedulerConfig
from repro.storage import TOMBSTONE
from repro.storage.persist import checkpoint_graph_store, restore_graph_store
from repro.workloads import (
    MetadataGraphConfig,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    qos_mixed_workload,
    rmat_graph,
    rmat_kstep_query,
    suspicious_user_query,
)

NSERVERS = 4
ENGINES = (EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK)

#: (workload, engine) -> sha256 of the canonical metrics snapshot
GOLDEN = {
    ("rmat-seed1", "Sync-GT"): "3bf83bf204a65533b1df1f9626045b1a55102f63a50ec896c2c1844682a9f4d0",
    ("rmat-seed1", "Async-GT"): "a4d38688f49ab3823dbdc523a8ca52c9dcce06fd67001dc9367d2d3346c74fc0",
    ("rmat-seed1", "GraphTrek"): "81c7b75ec71367acf067300475fdb9e3cf9ecaa3b8a6aa05d836cb977747cff1",
    ("rmat-seed2", "Sync-GT"): "fadbc0af34c682d0644418c349647304d0a07eb1a97d0210cf823311106b8a03",
    ("rmat-seed2", "Async-GT"): "0b779faf569cb9784d86bc749b8adf5588a47accdb9fed83acf8b7f181f5cad9",
    ("rmat-seed2", "GraphTrek"): "c22e7a29bed25ca8e7869b83c9c9da9ec5f66f3ffd4e41236624782ff1d6bb95",
    ("audit-seed3", "Sync-GT"): "a53028282d7c457c0eb51201309ee5dc7e72af2e44e609ce648dd0ae3ade36cb",
    ("audit-seed3", "Async-GT"): "3e41500ec09ddaecb01e9a9aed8601dea0d445e5724572d59b01744185fc0d86",
    ("audit-seed3", "GraphTrek"): "5f4e60742e8f64e0f16603bc3d86c74c079c32ac7452bce99852cfe688277cd6",
}

#: engine -> sha256 of the flight-recorder timeline on the traced rmat-seed1 cell
GOLDEN_TRACE = {
    "Sync-GT": "0846d2bc6b3fb02e48492d787aaec1e6454d4b55f64baee06f8117c2251c1a07",
    "Async-GT": "dc71b462816e5803048a0fd151ba1f977a4bcbeb1a434a50d0200e42e26e4997",
    "GraphTrek": "d334c9debfdbf5159b2cd144abc556df0388ddbbf5bd6fb8cda9a3f91b4e6515",
}

#: engine -> sha256 of the metrics snapshot of rmat-seed1 over the reliable
#: channel under ``sample_fault_plan(1, nservers=4)``
GOLDEN_WIRE = {
    "Sync-GT": "9a08b8218271d8797cb1db289999bdddea894f86278123262d8308d6f877c5e9",
    "Async-GT": "25390cf913e68c59a6b96800c355dd16e80b20726b9ed4d911f2310ffb5f43a0",
    "GraphTrek": "c67ca11faf15e22c2291090757e3f8a00cbda2d9a1244057c2ba44ef5dd7d229",
}

#: sha256(rollups_json + slo.to_json + health_json) of the two-tenant cell
GOLDEN_TELEMETRY = "d44bad819622c2b985fa128c64625d22cae5664f0f242f44276112600396bb9a"

#: sha256(canonical metrics snapshot + recorder.to_json()) of one tail-sampled
#: mixed-tenant round over the reliable channel; re-recorded when journal
#: records were cut to the fields recovery reads (only the ``journal.*``
#: gauges moved), then when the recorder merged kept buffers into its ring
#: in ``seq`` order (the same 940 events, only their order moved), then when
#: journal records took one fixed ``struct`` layout per kind in place of
#: pickle (only ``journal.size_bytes``/``bytes_appended`` moved, 3 468 ->
#: 1 309 B)
GOLDEN_SAMPLED_TRACE = "1dc8cd931bfed00b2864b66329e160cd950072160952ed97b8ed4ae9a172b0c6"


def _rmat_cell(seed: int):
    config = paper_rmat1(scale=8, seed=seed)
    return rmat_graph(config), rmat_kstep_query(pick_start_vertex(config), 6)


def _audit_cell():
    md = generate_metadata_graph(MetadataGraphConfig(users=8, files=256, seed=3))
    return md.graph, suspicious_user_query(md.user_ids[0])


WORKLOADS = {
    "rmat-seed1": lambda: _rmat_cell(1),
    "rmat-seed2": lambda: _rmat_cell(2),
    "audit-seed3": _audit_cell,
}


def run_cell(
    workload: str, engine: EngineKind, trace: bool = False, **cfg
) -> Cluster:
    graph, query = WORKLOADS[workload]()
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=NSERVERS, engine=engine, trace_enabled=trace, **cfg),
    )
    outcome = cluster.traverse(query.compile(), cold=True)
    assert outcome.result.vertices, "golden cell returned nothing; it pins no work"
    return cluster


def snapshot_digest(workload: str, engine: EngineKind, **cfg) -> str:
    payload = canonical_json(run_cell(workload, engine, **cfg).metrics_snapshot())
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_metrics_snapshot_matches_golden_digest(workload, engine):
    digest = snapshot_digest(workload, engine)
    assert digest == GOLDEN[workload, engine.value], (
        f"metrics snapshot of {engine.value} on {workload} drifted: got {digest}. "
        "A refactor must leave every seeded counter, gauge and histogram "
        "byte-identical; a digest may only be re-recorded by a PR that states "
        "why virtual behaviour changed."
    )


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_trace_timeline_matches_golden_digest(engine):
    recorder = run_cell("rmat-seed1", engine, trace=True).obs.trace
    digest = hashlib.sha256(recorder.to_json().encode()).hexdigest()
    assert digest == GOLDEN_TRACE[engine.value], (
        f"flight-recorder timeline of {engine.value} on rmat-seed1 drifted: got "
        f"{digest}. A refactor must leave every event kind, attribute and "
        "clock byte-identical; a digest may only be re-recorded by a PR that "
        "states why the recorder's vocabulary or virtual behaviour changed."
    )


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_wire_snapshot_matches_golden_digest(engine):
    digest = snapshot_digest(
        "rmat-seed1",
        engine,
        reliable=True,
        fault_plan=sample_fault_plan(1, nservers=NSERVERS),
    )
    assert digest == GOLDEN_WIRE[engine.value], (
        f"metrics snapshot of {engine.value} on rmat-seed1 over the faulty wire "
        f"drifted: got {digest}. A refactor must leave every seeded drop, "
        "duplicate, retry and ack byte-identical; a digest may only be "
        "re-recorded by a PR that states why virtual behaviour changed."
    )


def test_telemetry_documents_match_golden_digest():
    graph, query = _rmat_cell(1)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=NSERVERS,
            engine=EngineKind.GRAPHTREK,
            scheduler_config=SchedulerConfig(max_pending=2, max_inflight=1),
            slo_config=SLOConfig(latency_objective=1e-6, min_events=2),
        ),
    )
    plan = query.compile()
    rejected = 0
    for _round in range(8):  # ~0.04 virtual s each: crosses a window boundary
        events = []
        for i in range(8):
            try:
                events.append(cluster.submit(plan, tenant=("alice", "bob")[i % 2])[1])
            except AdmissionRejected:
                rejected += 1
        for event in events:
            assert cluster.runtime.run_until_complete(event).result.vertices
    visits = cluster.rollups()["counters"]["engine.real_visits{server=0}"]
    assert len(visits) > 1, "golden cell closed no window; it pins no boundary"
    assert rejected, "golden cell rejected nothing; it pins no rejection feed"
    assert cluster.alert_log(), "golden cell fired no alert; it pins no SLO state"
    payload = (
        cluster.telemetry.rollups_json()
        + cluster.slo.to_json()
        + cluster.health_json()
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == GOLDEN_TELEMETRY, (
        f"telemetry documents of the two-tenant cell drifted: got {digest}. A "
        "refactor must leave every rollup window, SLO observation and alert "
        "byte-identical; the digest may only be re-recorded by a PR that "
        "states why virtual behaviour changed."
    )


def sampled_trace_run() -> Cluster:
    """One round of the mixed-tenant workload (one 4-step scan beside
    sixteen 2-step interactive travels) on a ``wfq`` + journal + reliable
    cell whose recorder keeps one healthy travel in eight."""
    config = paper_rmat1(scale=8, edge_factor=16, seed=1)
    cluster = Cluster.build(
        rmat_graph(config),
        ClusterConfig(
            nservers=NSERVERS,
            engine=options_for(EngineKind.GRAPHTREK, scheduler="wfq"),
            scheduler_config=SchedulerConfig(
                max_inflight=4, tenant_weights={"interactive": 4.0, "batch": 1.0}
            ),
            journal=True,
            reliable=True,
            trace_enabled=True,
            trace_sampling=SamplingPolicy(sample_every_n=8, seed=1),
        ),
    )
    items = qos_mixed_workload(
        1000, config.num_vertices, nscans=1, nsmall=16, scan_steps=4
    )
    outcomes = cluster.traverse_many(
        [it["query"] for it in items], cold=False, qos=[it["qos"] for it in items]
    )
    assert all(o.result.vertices for o in outcomes), "a travel returned nothing"
    return cluster


def test_sampled_trace_matches_golden_digest():
    cluster = sampled_trace_run()
    recorder = cluster.obs.trace
    counters = cluster.metrics_snapshot()["counters"]
    assert recorder.sampled_out, "the cell sampled nothing out; it pins no drop"
    assert recorder.travel_ids(), "the cell kept no travel; it pins no commit"
    assert counters.get("net.acks"), "the cell sent no reliable frame"
    payload = canonical_json(cluster.metrics_snapshot()) + recorder.to_json()
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == GOLDEN_SAMPLED_TRACE, (
        f"tail-sampled trace of the mixed-tenant cell drifted: got {digest}. A "
        "refactor must leave every kept event, sample-out count and transport "
        "counter byte-identical; the digest may only be re-recorded by a PR "
        "that states why virtual behaviour changed."
    )


#: sha256 of the ``(now, label)`` log of the scripted kernel run below,
#: recorded on the kernel that still carried ``AnyOf``/``AllOf`` and
#: ``Process.interrupt``, once the scenario stopped using them and before
#: they were deleted
GOLDEN_EVENT_ORDER = "c8574cb05027c5783c3d411127cf9afb5b9740623b6952212bc4eb39c9a8e085"


def _kernel_event_log() -> list[tuple[float, str]]:
    """A seeded ``Simulator`` run that crosses every tie-break the kernel
    has: eight processes contending on one priority ``Resource``, a
    ``Store`` and a ``PriorityStore``, processes joined by yielding them, an
    event failed into its waiter, zero-delay chains, equal-time timeouts and
    callbacks, and a callback added to an already-triggered event."""
    import random

    from repro.sim.core import Simulator
    from repro.sim.resources import PriorityStore, Resource, Store

    rng = random.Random(21)
    sim = Simulator()
    log: list[tuple[float, str]] = []
    disk = Resource(sim, capacity=2, priority=True, name="disk")
    inbox = Store(sim, name="inbox")
    ranked = PriorityStore(sim, name="ranked")
    alarm = sim.event("alarm")

    def note(label: str) -> None:
        log.append((sim.now, label))

    def contender(i: int):
        for round_ in range(3):
            # delays drawn from a small grid so distinct processes collide
            yield sim.timeout(rng.choice((0.0, 0.001, 0.002)))
            note(f"c{i}.r{round_}.ask")
            req = disk.request(priority=float(i % 3))
            yield req
            note(f"c{i}.r{round_}.granted")
            try:
                yield sim.timeout(rng.choice((0.001, 0.001, 0.003)))
            finally:
                disk.release(req)
            note(f"c{i}.r{round_}.released")
            inbox.put((i, round_))
            ranked.put((rng.randrange(4), i, round_))
        return i

    def consumer(name: str, store, n: int):
        for _ in range(n):
            item = yield store.get()
            note(f"{name}.got{item}")
            yield sim.timeout(0.0)  # zero-delay chain
            note(f"{name}.after{item}")

    def sleeper():
        try:
            yield alarm
            note("sleeper.woke")
        except RuntimeError as err:
            note(f"sleeper.failed:{err}")
            yield sim.timeout(0.002)
            note("sleeper.resumed")
        return "slept"

    def racer(procs):
        done = []
        for proc in procs:
            done.append((yield proc))
        note(f"racer.all:{done}")
        late = sim.event("late")
        late.succeed("v")
        late.add_callback(lambda ev: note(f"racer.late:{ev.value}"))
        value = yield late
        note(f"racer.joined_late:{value}")

    contenders = [sim.process(contender(i), name=f"c{i}") for i in range(8)]
    sim.process(consumer("fifo", inbox, 24), name="fifo")
    sim.process(consumer("prio", ranked, 24), name="prio")
    nap = sim.process(sleeper(), name="sleeper")
    sim.process(racer(contenders), name="racer")
    sim.schedule(0.004, lambda: (note("poke"), alarm.fail(RuntimeError("poke"))))
    for k in range(4):  # equal-time bare callbacks: schedule order breaks the tie
        sim.schedule(0.003, lambda k=k: note(f"tick{k}"))
    sim.run()
    note(f"end:{nap.value}")
    return log


def test_kernel_event_order_matches_golden_digest():
    log = _kernel_event_log()
    assert len(log) > 150, "golden kernel script logged too little to pin order"
    digest = hashlib.sha256(canonical_json(log).encode()).hexdigest()
    assert digest == GOLDEN_EVENT_ORDER, (
        f"event order of the scripted kernel run drifted: got {digest}. A "
        "refactor of the simulation kernel must run the same callbacks in the "
        "same order at the same virtual times; the digest may only be "
        "re-recorded by a PR that states why event order changed."
    )


#: engine -> sha256 of {metrics, trace, journal} of the control-plane cell
#: below; re-recorded when journal records were cut to the fields recovery
#: reads (no ``launch`` or ``progress`` records, no attempt or epoch on a
#: dispatch): only the ``journal.*`` gauges and the logged record list moved;
#: re-recorded when records took one fixed ``struct`` layout per kind in
#: place of pickle: only ``journal.size_bytes``/``bytes_appended`` moved
#: (4 320 -> 1 573 B for both engines)
GOLDEN_CONTROL_PLANE = {
    "Sync-GT": "103ba1c6af9155f5329eba54516d5cf034f6e4bf2561d6c6ead892fdb3d7357f",
    "GraphTrek": "5172920ee9a6830007831313e535adf2cbc7f2eb927fb3a4e02936b5628a511f",
}


def control_plane_run(engine: EngineKind) -> tuple[Cluster, dict]:
    """Drive every control-plane sequence once on one seeded cell and return
    the cluster with the document the digest hashes.

    ``max_inflight=1`` under ``wfq`` makes every second submission queue.
    Phase A: a linear 4-step travel runs while a union composite, a travel
    whose deadline expires *in the queue of a live coordinator* and a travel
    cancelled mid-run wait behind it. Phase B: a short crash of server 1
    loses acked-but-unprocessed requests (GraphTrek: the watchdog replays
    them from their creators), then a long outage of server 2 exhausts ack
    retries (suspicion-driven replay, then the restart fallback; Sync-GT
    restarts). Phase C: the coordinator host crashes under a running
    deadline-armed linear travel with a composite and a second deadline-armed
    travel queued; phase D: it crashes again inside a running composite with
    a linear travel queued. Every surviving travel must equal the oracle.
    """
    config = paper_rmat1(scale=8, seed=1)
    graph, start = rmat_graph(config), pick_start_vertex(config)
    oracle = ReferenceEngine(graph)

    def with_oracle(query):
        plan = query.compile()
        return plan, oracle.run(plan)

    linear = with_oracle(rmat_kstep_query(start, 4))
    composite = with_oracle(
        GTravel.v(start).union(
            GTravel.s().e("link").e("link"),
            GTravel.s().e("link").e("link").e("link"),
        )
    )
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=NSERVERS,
            engine=replace(options_for(engine), scheduler="wfq"),
            journal=True,
            reliable=True,
            trace_enabled=True,
            scheduler_config=SchedulerConfig(max_inflight=1),
            coordinator_config=CoordinatorConfig(
                exec_timeout=2.0, watch_interval=0.5, fine_grained_recovery=True
            ),
        ),
    )
    runtime, journal = cluster.runtime, cluster.journal
    records: list[list] = []
    durable_append = journal.append

    def logged_append(kind, **fields):
        records.append(
            [kind, *(fields.get(k) for k in ("tid", "status", "attempt", "epoch"))]
        )
        durable_append(kind, **fields)

    journal.append = logged_append

    def submit(query, **qos):
        plan, want = query
        travel_id, event = cluster.submit(plan, **qos)
        return travel_id, event, want

    def ok(submission):
        _tid, event, want = submission
        outcome = runtime.run_until_complete(event)
        assert outcome.result.same_vertices(want)
        return outcome

    def cancelled(submission, reason):
        with pytest.raises(TraversalCancelled) as caught:
            runtime.run_until_complete(submission[1])
        assert caught.value.reason == reason

    def outage(server, start_in, lasts):
        runtime.schedule(start_in, lambda: runtime.crash_server(server))
        runtime.schedule(start_in + lasts, lambda: runtime.recover_server(server))

    # A: queueing, a deadline that expires in the queue, a mid-run cancel
    first = submit(linear, tenant="a")
    union = submit(composite, tenant="b")
    expiring = submit(linear, tenant="b", deadline=1e-4)
    doomed = submit(linear, tenant="a")
    assert cluster.scheduler.queue_depth == 3
    span = ok(first).stats.elapsed  # one cold linear run, in virtual seconds
    cancelled(expiring, "deadline exceeded")
    cluster.cold_start()
    began = runtime.now()
    ok(union)
    union_span = runtime.now() - began
    assert cluster.scheduler.entry_for(doomed[0]).state == "running"
    cluster.cold_start()
    runtime.schedule(0.4 * span, lambda: cluster.cancel(doomed[0], "operator"))
    cancelled(doomed, "operator")

    # B: backend crashes under fine-grained recovery
    cluster.cold_start()
    lossy = submit(linear, tenant="a")
    outage(1, 0.75 * span, 0.005)
    healed = ok(lossy).stats
    cluster.cold_start()
    suspected = submit(linear, tenant="a")
    outage(2, 0.3 * span, 1.2)
    assert ok(suspected).stats.restarts == 1
    if engine is EngineKind.GRAPHTREK:
        assert healed.replays > 0 and healed.restarts == 0

    # C: coordinator crash under a running linear travel
    cluster.cold_start()
    phase = [
        submit(linear, tenant="a", deadline=30.0),
        submit(composite, tenant="b"),
        submit(linear, tenant="a", deadline=30.0),
    ]
    outage(0, 0.3 * span, 0.3 * span)
    assert [ok(s).stats.restarts for s in phase] == [1, 0, 0]

    # D: coordinator crash inside a running composite
    cluster.cold_start()
    phase = [submit(composite, tenant="b"), submit(linear, tenant="a")]
    outage(0, 0.5 * union_span, 0.3 * span)
    assert [ok(s).stats.restarts for s in phase] == [1, 0]

    assert cluster.coordinator.epoch == 2
    assert not cluster.supervisor.sessions
    assert not cluster.scheduler.queue_depth and not cluster.scheduler.inflight_count
    document = {
        "metrics": cluster.metrics_snapshot(),
        "trace": cluster.obs.trace.timeline(),
        "journal": {"state": vars(journal.replay()), "records": records},
    }
    return cluster, document


@pytest.mark.parametrize(
    "engine", (EngineKind.SYNC, EngineKind.GRAPHTREK), ids=lambda e: e.value
)
def test_control_plane_matches_golden_digest(engine):
    cluster, document = control_plane_run(engine)
    counters = cluster.metrics_snapshot()["counters"]
    assert counters["coord.crash"] == 2 and counters["coord.resumed"] == 2
    assert counters["sched.cancelled{tenant=b,where=queued}"] == 1
    assert counters["sched.cancelled{tenant=a,where=running}"] == 1
    assert sum(v for k, v in counters.items() if k.startswith("sched.readmitted")) == 3
    digest = hashlib.sha256(canonical_json(document).encode()).hexdigest()
    assert digest == GOLDEN_CONTROL_PLANE[engine.value], (
        f"control plane of {engine.value} drifted: got {digest}. A refactor "
        "must leave every scheduler, coordinator and recovery decision — each "
        "counter, trace event and journal record, in order — byte-identical; "
        "the digest may only be re-recorded by a PR that states why virtual "
        "behaviour changed."
    )


#: layout -> sha256 of the write-path document of the cell below, recorded
#: while every SSTable still built its bloom filter at flush
GOLDEN_WRITE_PATH = {
    "grouped": "344e6ecb328416b8bca44f716bb81d9d033900be5dc4890ddefa0df80fc3b4c1",
    "columnar": "575caa97209ab92a562db518651bbce24c5394410ecf2d82e9a62a6c35d2d36d",
}

#: ingest rounds of the write-path cell; every round but the last ends in a
#: flush, so the tables pass ``max_sstables`` (8) once and compact
WRITE_ROUNDS = 12


def _sstables(store) -> list:
    """Every SSTable of one LSM store as hex keys, values (None for a
    tombstone) and byte offsets, newest first."""
    return [
        [
            [k.hex() for k in t.keys],
            [None if v is TOMBSTONE else v.hex() for v in t.values],
            t.offsets,
        ]
        for t in store.sstables
    ]


def write_path_run(layout: str, directory) -> tuple[Cluster, dict]:
    """Drive the LSM write path of a 4-server cost-planner cell (reverse
    records on) and return the cluster with the document the digest hashes.

    Each round ingests four new vertices and sixteen edges (half from the
    round's new vertices, half from loaded ones, all into loaded vertices)
    and flushes every server; round 5 deletes a vertex ingested (and flushed)
    in round 0, so tombstones reach an SSTable before the compaction drops
    them. One traversal then reads across the memtable and several tables,
    and every server is checkpointed and restored."""
    config = paper_rmat1(scale=8, seed=1)
    graph, start = rmat_graph(config), pick_start_vertex(config)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=NSERVERS,
            engine=options_for(EngineKind.GRAPHTREK, planner="cost"),
            edge_layout=layout,
        ),
    )
    rng = random.Random(28)
    nloaded = config.num_vertices
    next_vid = nloaded
    victim = None
    for round_ in range(WRITE_ROUNDS):
        new = list(range(next_vid, next_vid + 4))
        next_vid += 4
        for vid in new:
            cluster.ingest_vertex(vid, config.vertex_type, {"w": rng.randrange(1000)})
        for i in range(16):
            src = rng.choice(new) if i % 2 == 0 else rng.randrange(nloaded)
            cluster.ingest_edge(src, rng.randrange(nloaded), "link", {"w": i})
        if round_ == 0:
            victim = new[0]
        if round_ == 5:
            cluster.servers[cluster.routing.owner(victim)].store.delete_vertex(victim)
        if round_ < WRITE_ROUNDS - 1:
            for server in cluster.servers:
                server.store.kv.flush()
    outcome = cluster.traverse(rmat_kstep_query(start, 3).compile(), cold=True)
    tables, restored = [], []
    for server in cluster.servers:
        path = directory / str(server.server_id)
        checkpoint_graph_store(server.store, path)
        tables.append(_sstables(server.store.kv))
        restored.append(restore_graph_store(path))
    document = {
        "result": sorted(outcome.result.vertices),
        "storage": [s.store.metrics_snapshot() for s in cluster.servers],
        "tables": tables,
        "restored": [
            {"storage": r.metrics_snapshot(), "tables": _sstables(r.kv)}
            for r in restored
        ],
    }
    return cluster, document


@pytest.mark.parametrize("layout", sorted(GOLDEN_WRITE_PATH))
def test_write_path_matches_golden_digest(layout, tmp_path):
    cluster, document = write_path_run(layout, tmp_path)
    assert document["result"], "write-path cell returned nothing; it pins no read"
    assert all(s.store.kv.stats.compactions for s in cluster.servers), (
        "a server never compacted; the cell pins no merge"
    )
    assert document["restored"][0]["tables"] == document["tables"][0]
    digest = hashlib.sha256(canonical_json(document).encode()).hexdigest()
    assert digest == GOLDEN_WRITE_PATH[layout], (
        f"write path of the {layout} cell drifted: got {digest}. Flush, "
        "compaction, insert and restore must leave every stored byte, offset "
        "and storage counter byte-identical; the digest may only be "
        "re-recorded by a PR that states why the stored data changed."
    )


#: (graph, layout) -> sha256 of the cluster-build document of the cells
#: below, recorded while the build still walked every partition twice (load,
#: then statistics) and the whole graph once more for the reverse index
GOLDEN_BUILD = {
    ("audit-seed3", "columnar"): "3ba47eefccd1b68e9dc9cf499c086434ad5e6c802aa40beda87ec2fdba8710bf",
    ("audit-seed3", "grouped"): "e4a42eb0531f27209e66635a7dc1252b666df7f375c044fcb8edf519a8fad95f",
    ("audit-seed3", "interleaved"): "cbd075ec8a3df0235a14ea2a87f063e4cff8f9026de4d9a36cbfb082296a8bfa",
    ("irregular", "columnar"): "4da465f0b44d18fa47f9325d30e3226a2d518e0d03574ecd14986eb7163969ad",
    ("irregular", "grouped"): "c7b7adf3f40edafbcc11492715bffa1544a3e6365b1ca4dc6be362995ea7f373",
    ("irregular", "interleaved"): "22706fc395ad38ceadc0d0fb28a7dc2de223150034fb18202db36c6d6e60614d",
}


def _irregular_cell():
    """A graph the generators never make: vertex ids inserted out of order,
    vertices without properties or edges, self-loops, parallel same-label
    edges, and each vertex's labels added interleaved, so the load has to
    regroup nothing and the reverse records of one vertex arrive from every
    partition."""
    from repro.graph.builder import PropertyGraph

    rng = random.Random(29)
    graph = PropertyGraph()
    vids = list(range(60))
    rng.shuffle(vids)
    for vid in vids:
        props = {} if vid % 7 == 0 else {"c": rng.randrange(4), "s": "x" * (vid % 3)}
        graph.add_vertex(vid, "ABC"[vid % 3], props)
    hub = vids[0]
    for i in range(6):
        graph.add_edge(hub, vids[1], "ab"[i % 2], {"w": i})
        graph.add_edge(hub, hub, "c", {})
    for _ in range(400):
        src, dst = rng.choice(vids[:50]), rng.choice(vids)
        props = {"w": rng.randrange(5), "t": rng.random()} if rng.random() < 0.8 else {}
        graph.add_edge(src, dst, rng.choice("abc"), props)
    return graph, GTravel.v(hub).e("a").e("b").e("c")


BUILD_CELLS = {"audit-seed3": _audit_cell, "irregular": _irregular_cell}


def build_document(cell: str, layout: str) -> dict:
    """Build the cell's graph into a 4-server cluster under every planner
    mode and record what the build left behind: every server's SSTables,
    location index and storage gauges, the planner's merged statistics,
    and the metrics and result of one traversal planned over them."""
    document = {}
    for mode in ("off", "rules", "cost"):
        graph, query = BUILD_CELLS[cell]()
        cluster = Cluster.build(
            graph,
            ClusterConfig(
                nservers=NSERVERS,
                engine=options_for(EngineKind.GRAPHTREK, planner=mode),
                edge_layout=layout,
            ),
        )
        servers = [
            {
                "tables": _sstables(s.store.kv),
                "vertices": s.store.local_vertices(),
                "by_type": {
                    t: s.store.local_vertices_of_type(t)
                    for t in sorted(graph.type_counts())
                },
                "storage": s.store.metrics_snapshot(),
            }
            for s in cluster.servers
        ]
        planner = cluster.coordinator.planner
        outcome = cluster.traverse(query.compile(), cold=True)
        document[mode] = {
            "servers": servers,
            "summary": planner.summary.payload() if planner is not None else None,
            "result": sorted(outcome.result.vertices),
            "metrics": cluster.metrics_snapshot(),
        }
    return document


@pytest.mark.parametrize("cell,layout", sorted(GOLDEN_BUILD))
def test_cluster_build_matches_golden_digest(cell, layout):
    document = build_document(cell, layout)
    assert document["cost"]["result"], "build cell returned nothing; it pins no read"
    digest = hashlib.sha256(canonical_json(document).encode()).hexdigest()
    assert digest == GOLDEN_BUILD[cell, layout], (
        f"cluster build of the {cell} cell ({layout}) drifted: got {digest}. "
        "Loading and summarising a partition must leave every stored byte, "
        "index order and planner statistic byte-identical; the digest may "
        "only be re-recorded by a PR that states why the loaded data changed."
    )
