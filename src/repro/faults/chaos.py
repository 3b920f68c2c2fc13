"""Chaos harness: differential runs under sampled fault plans.

The correctness contract for the whole fault stack is *differential*: a
traversal under drops, duplicates, delays, and a mid-flight server crash must
either return a result set identical to the fault-free run at the same seed,
or fail cleanly with :class:`~repro.errors.TraversalFailed` after
``max_restarts`` — never silently return a wrong set. On the simulated
runtime the faulty run is additionally *deterministic*: the same fault plan
and seed reproduce the same ``net.*``/``faults.*`` counters, so a chaos
failure is replayable from its seed alone.

Used by ``tests/test_chaos.py`` and the ``chaos`` bench experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.coordinator import CoordinatorConfig
from repro.engine.base import EngineKind
from repro.engine.options import EngineOptions, options_for
from repro.errors import TraversalCancelled, TraversalError
from repro.faults.plan import FaultPlan, sample_fault_plan
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.lang.plan import TraversalPlan
from repro.sched.scheduler import SchedulerConfig


def _net_counters(snapshot: dict) -> dict:
    return {
        k: v
        for k, v in snapshot.get("counters", {}).items()
        if k.startswith(("net.", "faults."))
    }


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


@dataclass
class ChaosOutcome:
    """One differential chaos run: fault-free baseline vs. faulty rerun."""

    seed: int
    plan: FaultPlan
    baseline: dict
    #: vertex sets of the faulty run, or None if it failed
    faulty: Optional[dict]
    matched: bool
    failed_cleanly: bool
    error: Optional[str]
    baseline_duration: float
    net_counters: dict = field(default_factory=dict)
    #: travel_id → reconstructed :class:`~repro.obs.trace.TraversalDag` of the
    #: faulty run, when the check ran with ``trace=True`` (None otherwise)
    traces: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """The contract: identical results, or a clean declared failure."""
        return self.matched or self.failed_cleanly


def run_fault_free(
    graph: PropertyGraph,
    query: Union[GTravel, TraversalPlan],
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
    query: Union[GTravel, TraversalPlan],
    plan: FaultPlan,
    *,
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK,
    nservers: int = 3,
    coordinator_config: Optional[CoordinatorConfig] = None,
    reliable: bool = True,
    trace: bool = False,
    journal: bool = False,
    edge_layout: str = "grouped",
) -> tuple[Optional[dict], Optional[str], dict, Optional[dict]]:
    """One traversal under ``plan``.

    Returns ``(results-or-None, error, counters, traces)``; ``traces`` maps
    travel_id → reconstructed execution DAG when ``trace=True``, else None.
    Because the recorder survives the traversal (it lives on the cluster, not
    the exception path), a run that exhausts its restart budget still yields
    a DAG — one whose event stream ends in ``travel.failed``.
    """
    config = ClusterConfig(
        nservers=nservers,
        engine=engine,
        fault_plan=plan,
        reliable=reliable,
        coordinator_config=coordinator_config or CoordinatorConfig(),
        trace_enabled=trace,
        journal=journal,
        edge_layout=edge_layout,
    )
    cluster = Cluster.build(graph, config)
    returned: Optional[dict] = None
    error: Optional[str] = None
    try:
        outcome = cluster.traverse(query)
        returned = _result_payload(outcome.result)
    except TraversalError as exc:
        error = f"{type(exc).__name__}: {exc}"
    counters = _net_counters(cluster.metrics_snapshot())
    traces: Optional[dict] = None
    if trace:
        from repro.obs.trace import assemble_all

        traces = {d.travel_id: d for d in assemble_all(cluster.board.obs.trace)}
    return returned, error, counters, traces


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


def chaos_check(
    graph: PropertyGraph,
    query: Union[GTravel, TraversalPlan],
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
) -> ChaosOutcome:
    """Run the differential check for one sampled fault plan.

    ``crash=True`` additionally schedules one mid-traversal server crash,
    with the crash window placed inside the fault-free run's duration so the
    crash lands while work is in flight. ``crash_coordinator=True`` also
    crashes the *coordinator-hosting* server mid-traversal (with a scheduled
    recovery) and runs the faulty leg with the traversal journal enabled, so
    the differential verdict covers journal replay and epoch fencing.
    ``trace=True`` runs the faulty leg with the flight recorder on and
    attaches the reconstructed execution DAG(s) to ``ChaosOutcome.traces``.
    ``edge_layout`` runs both legs under the named storage layout (the
    columnar chaos leg of the batch-equivalence suite uses it).
    """
    baseline, duration = run_fault_free(
        graph, query, engine=engine, nservers=nservers, edge_layout=edge_layout
    )
    crash_window = (
        (0.2 * duration, 3.0 * duration) if (crash or crash_coordinator) else None
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
    cc = coordinator_config or chaos_coordinator_config(duration)
    faulty, error, counters, traces = run_under_faults(
        graph,
        query,
        plan,
        engine=engine,
        nservers=nservers,
        coordinator_config=cc,
        reliable=reliable,
        trace=trace,
        journal=crash_coordinator,
        edge_layout=edge_layout,
    )
    return ChaosOutcome(
        seed=seed,
        plan=plan,
        baseline=baseline,
        faulty=faulty,
        matched=faulty is not None and faulty == baseline,
        failed_cleanly=faulty is None and error is not None,
        error=error,
        baseline_duration=duration,
        net_counters=counters,
        traces=traces,
    )


# -- concurrent chaos: mixed cancel + crash schedules ------------------------


@dataclass
class QueryVerdict:
    """Differential verdict for one query of a concurrent chaos run."""

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
class ChaosManyOutcome:
    """One concurrent differential chaos run: N queries submitted together
    through the scheduler under a sampled fault plan, each judged against
    its own serial fault-free oracle."""

    seed: int
    plan: FaultPlan
    policy: str
    verdicts: list[QueryVerdict]
    #: coordinator/scheduler state left behind after every event resolved —
    #: must be empty (no leaked registry entries, active travels, or queue)
    leaked: list[str]
    baseline_horizon: float
    net_counters: dict = field(default_factory=dict)
    #: terminal MigrationState of the concurrent migration (``migrate=True``
    #: runs only); its phase is ``done`` or ``aborted`` — both are clean
    migration_state: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.leaked and all(v.ok for v in self.verdicts)


def chaos_check_many(
    graph: PropertyGraph,
    queries: list[Union[GTravel, TraversalPlan]],
    *,
    seed: int,
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK,
    nservers: int = 3,
    scheduler: str = "fifo",
    scheduler_config: Optional[SchedulerConfig] = None,
    deadlines: Optional[list[Optional[float]]] = None,
    tenants: Optional[list[str]] = None,
    crash: bool = False,
    crash_coordinator: bool = False,
    reliable: bool = True,
    max_drop: float = 0.12,
    max_duplicate: float = 0.10,
    migrate: bool = False,
    migration=None,
) -> ChaosManyOutcome:
    """The concurrent variant of :func:`chaos_check`: submit every query at
    once through the admission scheduler, under one sampled fault plan.

    ``deadlines[i]`` (virtual seconds from admission, or None) arms
    scheduler-driven cancellation for query *i*, so the run exercises mixed
    cancel + crash schedules. ``crash_coordinator=True`` crashes (and
    recovers) the coordinator-hosting server mid-workload with the journal
    enabled, so queued, running, and composite travels all cross a
    coordinator epoch. The contract, per query: match its serial
    fault-free oracle, fail cleanly, or — deadline queries only — cancel
    cleanly. Co-running queries must be unaffected by a neighbour's
    cancellation, and the cluster must hold zero scheduler/coordinator/
    registry state once every completion event has resolved
    (``ChaosManyOutcome.leaked``).

    ``migrate=True`` additionally races an online shard migration
    (half of server 1's vertices → server 2, knobs from ``migration``)
    against the workload: the same per-query contract must hold while
    ownership moves, the migration must reach a clean terminal phase
    (``done``, or ``aborted`` under fatal faults — never wedged), every
    migrated vertex must end up owned by exactly one server that actually
    holds it, and the migrator must leak no per-migration state.
    """
    deadlines = deadlines if deadlines is not None else [None] * len(queries)
    tenants = tenants if tenants is not None else ["default"] * len(queries)
    if len(deadlines) != len(queries) or len(tenants) != len(queries):
        raise ValueError("deadlines/tenants must align with queries")

    baselines: list[dict] = []
    durations: list[float] = []
    for query in queries:
        base, duration = run_fault_free(
            graph, query, engine=engine, nservers=nservers
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
    opts = engine if isinstance(engine, EngineOptions) else options_for(engine)
    opts = replace(opts, scheduler=scheduler)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=nservers,
            engine=opts,
            fault_plan=plan,
            reliable=reliable,
            coordinator_config=chaos_coordinator_config(horizon),
            scheduler_config=scheduler_config,
            journal=crash_coordinator or migrate,
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

    verdicts: list[QueryVerdict] = []
    for i, (travel_id, event) in enumerate(submissions):
        faulty: Optional[dict] = None
        error: Optional[str] = None
        cancelled = False
        try:
            outcome = cluster.runtime.run_until_complete(event)
            faulty = _result_payload(outcome.result)
        except TraversalCancelled as exc:
            cancelled = True
            error = f"{type(exc).__name__}: {exc}"
        except TraversalError as exc:
            error = f"{type(exc).__name__}: {exc}"
        verdicts.append(
            QueryVerdict(
                index=i,
                baseline=baselines[i],
                faulty=faulty,
                error=error,
                had_deadline=deadlines[i] is not None,
                cancelled=cancelled,
                matched=faulty is not None and faulty == baselines[i],
                failed_cleanly=not cancelled and faulty is None and error is not None,
            )
        )

    migration_state = None
    if mig_event is not None:
        migration_state = cluster.runtime.run_until_complete(mig_event)

    leaked: list[str] = []
    if cluster.scheduler.queue_depth:
        leaked.append(f"scheduler queue depth {cluster.scheduler.queue_depth}")
    if cluster.scheduler.inflight_count:
        leaked.append(f"scheduler inflight {cluster.scheduler.inflight_count}")
    for travel_id, _ in submissions:
        if cluster.registry.get(travel_id) is not None:
            leaked.append(f"registry entry for travel {travel_id}")
        if travel_id in cluster.coordinator._active:
            leaked.append(f"active coordinator state for travel {travel_id}")
        if travel_id in cluster.coordinator._composites:
            leaked.append(f"composite coordinator state for travel {travel_id}")
    if cluster.supervisor is not None and cluster.supervisor.sessions:
        leaked.append(
            f"recovery supervisor sessions {len(cluster.supervisor.sessions)}"
        )
    if migrate:
        if migration_state is None or migration_state.phase not in (
            "done",
            "aborted",
        ):
            leaked.append(
                "migration never reached a terminal phase: "
                f"{getattr(migration_state, 'phase', None)}"
            )
        leaked.extend(cluster.migrator.leaked_state())
        # ownership consistency: every migrated vertex is owned by exactly
        # one server, and that server actually holds its data
        for vid in mig_vids:
            owner = cluster.routing.owner(vid)
            if not cluster.servers[owner].store.has_vertex(vid):
                leaked.append(f"vertex {vid} lost: owner {owner} lacks it")
            holders = [
                s
                for s in range(nservers)
                if s != owner and cluster.servers[s].store.has_vertex(vid)
            ]
            if holders:
                leaked.append(
                    f"vertex {vid} duplicated: owner {owner}, extra {holders}"
                )
    counters = _net_counters(cluster.metrics_snapshot())
    return ChaosManyOutcome(
        seed=seed,
        plan=plan,
        policy=scheduler,
        verdicts=verdicts,
        leaked=leaked,
        baseline_horizon=horizon,
        net_counters=counters,
        migration_state=migration_state,
    )
