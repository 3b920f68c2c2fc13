"""Chaos harness: differential runs under sampled fault plans.

The correctness contract for the whole fault stack is *differential*: a
traversal under drops, duplicates, delays, and a mid-flight server crash must
either return a result set identical to the fault-free run at the same seed,
or fail cleanly with :class:`~repro.errors.TraversalFailed` after
``max_restarts`` — never silently return a wrong set — and the cluster must
hold no leftover state once the run resolved (:func:`leaked_state`). On the
simulated runtime the faulty run is additionally *deterministic*: the same
fault plan and seed reproduce the same ``net.*``/``faults.*`` counters, so a
chaos failure is replayable from its seed alone.

One harness serves one query and many alike: :func:`chaos_check` submits
every query together through the admission scheduler, so a one-query check
is the one-query case of the concurrent one. Used by ``tests/test_chaos.py``
and the ``chaos`` bench experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.coordinator import CoordinatorConfig
from repro.engine.base import EngineKind
from repro.engine.options import EngineOptions
from repro.errors import TraversalCancelled, TraversalError
from repro.faults.plan import FaultPlan, sample_fault_plan
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.lang.plan import TraversalPlan
from repro.sched.scheduler import SchedulerConfig

Query = Union[GTravel, TraversalPlan]
#: one query's faulty run: (payload-or-None, error-or-None, cancelled)
QueryRun = tuple[Optional[dict], Optional[str], bool]


def _result_payload(result) -> dict:
    """Comparable payload for a differential verdict: the per-level vertex
    sets plus, when the plan carries an aggregate, its reduced value — faults
    must corrupt neither. Levels are int keys, so the string key never
    collides."""
    payload: dict = dict(result.returned)
    if result.aggregate is not None:
        agg = result.aggregate
        payload["aggregate"] = (agg.kind, agg.total, agg.groups)
    return payload


def leaked_state(cluster: Cluster, travel_ids, moved_vids=()) -> list[str]:
    """Scheduler, coordinator, registry, supervisor and migration state the
    cluster still holds for ``travel_ids`` once every event resolved — empty
    on a clean run. ``moved_vids`` adds ownership: each must be owned by
    exactly one server, and that server must hold its data."""
    leaked: list[str] = []
    if cluster.scheduler.queue_depth:
        leaked.append(f"scheduler queue depth {cluster.scheduler.queue_depth}")
    if cluster.scheduler.inflight_count:
        leaked.append(f"scheduler inflight {cluster.scheduler.inflight_count}")
    for travel_id in travel_ids:
        if cluster.registry.get(travel_id) is not None:
            leaked.append(f"registry entry for travel {travel_id}")
        if travel_id in cluster.coordinator._active:
            leaked.append(f"active coordinator state for travel {travel_id}")
        if travel_id in cluster.coordinator._composites:
            leaked.append(f"composite coordinator state for travel {travel_id}")
    inflight = cluster.coordinator.inflight_by_server()
    if inflight:
        leaked.append(f"coordinator executions in flight {inflight}")
    if cluster.supervisor is not None and cluster.supervisor.sessions:
        leaked.append(
            f"recovery supervisor sessions {len(cluster.supervisor.sessions)}"
        )
    # the migrator's audit includes the routing table's dual-owned vertices
    leaked.extend(cluster.migrator.leaked_state())
    for vid in moved_vids:
        owner = cluster.routing.owner(vid)
        if not cluster.servers[owner].store.has_vertex(vid):
            leaked.append(f"vertex {vid} lost: owner {owner} lacks it")
        holders = [
            s
            for s, server in enumerate(cluster.servers)
            if s != owner and server.store.has_vertex(vid)
        ]
        if holders:
            leaked.append(f"vertex {vid} duplicated: owner {owner}, extra {holders}")
    return leaked


def run_fault_free(
    graph: PropertyGraph,
    query: Query,
    *,
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK,
    nservers: int = 3,
    edge_layout: str = "grouped",
) -> tuple[dict, float]:
    """Baseline run; returns (result sets, virtual duration)."""
    cluster = Cluster.build(
        graph,
        ClusterConfig(nservers=nservers, engine=engine, edge_layout=edge_layout),
    )
    start = cluster.now
    outcome = cluster.traverse(query)
    duration = cluster.now - start
    return _result_payload(outcome.result), duration


def run_under_faults(
    graph: PropertyGraph,
    queries: list[Query],
    plan: FaultPlan,
    *,
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK,
    nservers: int = 3,
    coordinator_config: Optional[CoordinatorConfig] = None,
    reliable: bool = True,
    trace: bool = False,
    journal: bool = False,
    edge_layout: str = "grouped",
    scheduler_config: Optional[SchedulerConfig] = None,
    deadlines: Optional[list[Optional[float]]] = None,
    tenants: Optional[list[str]] = None,
    migrate: bool = False,
    migration=None,
) -> tuple[list[QueryRun], dict, Optional[dict], list[str], Optional[object]]:
    """The faulty leg: cold-start a cluster under ``plan`` and submit every
    query at once through the admission scheduler (``engine``'s launch
    policy; ``deadlines[i]`` and ``tenants[i]`` are query *i*'s QoS).

    Returns ``(runs, counters, traces, leaked, migration_state)``. ``traces``
    maps travel_id → execution DAG when ``trace=True`` (a run that exhausts
    its restart budget still yields one, ending in ``travel.failed``);
    ``leaked`` is :func:`leaked_state` once every event resolved.
    ``migrate=True`` races an online shard migration (half of server 1's
    vertices → server 2, knobs from ``migration``) against the workload: it
    must reach ``done`` or ``aborted``, never wedge, and the moved vertices
    join the ownership audit.
    """
    deadlines = deadlines if deadlines is not None else [None] * len(queries)
    tenants = tenants if tenants is not None else ["default"] * len(queries)
    if len(deadlines) != len(queries) or len(tenants) != len(queries):
        raise ValueError("deadlines/tenants must align with queries")
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=nservers,
            engine=engine,
            fault_plan=plan,
            reliable=reliable,
            coordinator_config=coordinator_config or CoordinatorConfig(),
            scheduler_config=scheduler_config,
            trace_enabled=trace,
            journal=journal,
            edge_layout=edge_layout,
            migration=migration,
        ),
    )
    cluster.cold_start()
    submissions = [
        cluster.submit(query, tenant=tenant, deadline=deadline)
        for query, tenant, deadline in zip(queries, tenants, deadlines)
    ]
    mig_event = None
    mig_vids: tuple = ()
    if migrate:
        local = sorted(cluster.servers[1].store.local_vertices())
        mig_vids = tuple(local[: max(1, len(local) // 2)])
        _, mig_event = cluster.rebalance(1, 2, vids=mig_vids, wait=False)

    runs: list[QueryRun] = []
    for _, event in submissions:
        try:
            outcome = cluster.runtime.run_until_complete(event)
            runs.append((_result_payload(outcome.result), None, False))
        except TraversalCancelled as exc:
            runs.append((None, f"{type(exc).__name__}: {exc}", True))
        except TraversalError as exc:
            runs.append((None, f"{type(exc).__name__}: {exc}", False))

    migration_state = None
    if mig_event is not None:
        migration_state = cluster.runtime.run_until_complete(mig_event)
    leaked = leaked_state(cluster, [tid for tid, _ in submissions], mig_vids)
    if migrate and getattr(migration_state, "phase", None) not in ("done", "aborted"):
        leaked.append(
            "migration never reached a terminal phase: "
            f"{getattr(migration_state, 'phase', None)}"
        )
    counters = {
        k: v
        for k, v in cluster.metrics_snapshot()["counters"].items()
        if k.startswith(("net.", "faults."))
    }
    traces: Optional[dict] = None
    if trace:
        from repro.obs.trace import assemble_all

        traces = {d.travel_id: d for d in assemble_all(cluster.board.obs.trace)}
    return runs, counters, traces, leaked, migration_state


def chaos_coordinator_config(baseline_duration: float) -> CoordinatorConfig:
    """Watchdog policy scaled to the traversal under test: tight enough that
    lost work is detected within a few traversal-lengths, loose enough that
    retry backoff does not trip it."""
    timeout = max(4.0 * baseline_duration, 0.05)
    return CoordinatorConfig(
        exec_timeout=timeout,
        watch_interval=timeout / 4.0,
        max_restarts=3,
        fine_grained_recovery=True,
    )


@dataclass
class QueryVerdict:
    """Differential verdict for one query of a chaos run."""

    index: int
    baseline: dict
    faulty: Optional[dict]
    error: Optional[str]
    had_deadline: bool
    cancelled: bool
    matched: bool
    failed_cleanly: bool

    @property
    def ok(self) -> bool:
        """Per-query contract: identical to its serial fault-free oracle, a
        clean declared failure, or — only if this query carried a deadline —
        a :class:`~repro.errors.TraversalCancelled`."""
        if self.cancelled:
            return self.had_deadline
        return self.matched or self.failed_cleanly


@dataclass
class ChaosOutcome:
    """One differential chaos run: the queries submitted together under a
    sampled fault plan, each judged against its own serial fault-free
    oracle."""

    seed: int
    plan: FaultPlan
    verdicts: list[QueryVerdict]
    #: :func:`leaked_state` once every event resolved — must be empty
    leaked: list[str]
    net_counters: dict = field(default_factory=dict)
    #: travel_id → reconstructed :class:`~repro.obs.trace.TraversalDag` of the
    #: faulty run, when the check ran with ``trace=True`` (None otherwise)
    traces: Optional[dict] = None
    #: terminal MigrationState of the concurrent migration (``migrate=True``
    #: runs only); its phase is ``done`` or ``aborted`` — both are clean
    migration_state: Optional[object] = None

    @property
    def ok(self) -> bool:
        """The contract: every verdict holds and nothing leaked."""
        return not self.leaked and all(v.ok for v in self.verdicts)


def chaos_check(
    graph: PropertyGraph,
    queries: list[Query],
    *,
    seed: int,
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK,
    nservers: int = 3,
    crash: bool = False,
    crash_coordinator: bool = False,
    coordinator_config: Optional[CoordinatorConfig] = None,
    reliable: bool = True,
    max_drop: float = 0.12,
    max_duplicate: float = 0.10,
    trace: bool = False,
    edge_layout: str = "grouped",
    scheduler_config: Optional[SchedulerConfig] = None,
    deadlines: Optional[list[Optional[float]]] = None,
    tenants: Optional[list[str]] = None,
    migrate: bool = False,
    migration=None,
) -> ChaosOutcome:
    """Run the differential check for one sampled fault plan: each query's
    fault-free baseline runs alone (:func:`run_fault_free`), then
    :func:`run_under_faults` submits them all at once.

    ``crash=True`` schedules one server crash inside the longest baseline,
    so it lands while work is in flight. ``crash_coordinator=True`` crashes
    and recovers the coordinator-hosting server with the journal on, so the
    verdict covers journal replay and epoch fencing. ``coordinator_config``
    overrides :func:`chaos_coordinator_config`; ``edge_layout`` applies to
    both legs; the other knobs go to the faulty leg.
    """
    baselines: list[dict] = []
    durations: list[float] = []
    for query in queries:
        base, duration = run_fault_free(
            graph, query, engine=engine, nservers=nservers, edge_layout=edge_layout
        )
        baselines.append(base)
        durations.append(duration)
    horizon = max(durations) if durations else 0.05

    crash_window = (
        (0.2 * horizon, 3.0 * horizon) if (crash or crash_coordinator) else None
    )
    plan = sample_fault_plan(
        seed,
        nservers=nservers,
        max_drop=max_drop,
        max_duplicate=max_duplicate,
        crash_window=crash_window,
        crash_servers=None if crash else (),
        crash_coordinator=crash_coordinator,
    )
    runs, counters, traces, leaked, migration_state = run_under_faults(
        graph,
        queries,
        plan,
        engine=engine,
        nservers=nservers,
        coordinator_config=coordinator_config or chaos_coordinator_config(horizon),
        reliable=reliable,
        trace=trace,
        journal=crash_coordinator or migrate,
        edge_layout=edge_layout,
        scheduler_config=scheduler_config,
        deadlines=deadlines,
        tenants=tenants,
        migrate=migrate,
        migration=migration,
    )
    verdicts = [
        QueryVerdict(
            index=i,
            baseline=baseline,
            faulty=faulty,
            error=error,
            had_deadline=deadlines is not None and deadlines[i] is not None,
            cancelled=cancelled,
            matched=faulty is not None and faulty == baseline,
            failed_cleanly=not cancelled and faulty is None and error is not None,
        )
        for i, (baseline, (faulty, error, cancelled)) in enumerate(zip(baselines, runs))
    ]
    return ChaosOutcome(
        seed=seed,
        plan=plan,
        verdicts=verdicts,
        leaked=leaked,
        net_counters=counters,
        traces=traces,
        migration_state=migration_state,
    )
