"""Cluster assembly: build N backend servers over a partitioned graph and
run traversals on them.

This is the top-level entry point benchmarks and examples use::

    cluster = Cluster.build(graph, ClusterConfig(nservers=8, engine=EngineKind.GRAPHTREK))
    outcome = cluster.traverse(GTravel.v(src).e("run").e("read"))
    print(outcome.stats.elapsed, sorted(outcome.result.vertices))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.engine.async_engine import AsyncServerEngine
from repro.engine.base import EngineKind, TraversalOutcome
from repro.engine.options import EngineOptions, options_for
from repro.engine.registry import TravelRegistry
from repro.engine.statistics import StatsBoard
from repro.engine.sync_engine import SyncServerEngine
from repro.cluster.coordinator import Coordinator, CoordinatorConfig
from repro.cluster.journal import TraversalJournal
from repro.cluster.recovery import RecoverySupervisor
from repro.cluster.server import BackendServer
from repro.errors import SimulationError, UnsupportedProfileTarget
from repro.faults.plan import FaultPlan
from repro.graph.builder import PropertyGraph
from repro.graph.stats import GraphSummary, SummaryBuilder
from repro.lang.optimizer import QueryPlanner
from repro.ids import COORDINATOR, ServerId, TravelId
from repro.net.message import MigrateAck, MigrateChunk
from repro.net.reliable import ReliableChannel
from repro.lang.composite import CompositePlan
from repro.lang.gtravel import GTravel
from repro.lang.plan import TraversalPlan
from repro.net.topology import INFINIBAND_QDR, NetworkModel
from repro.obs import Observability
from repro.obs.slo import SLOConfig
from repro.obs.trace import SamplingPolicy
from repro.partition.edge_cut import Partitioner, make_partitioner
from repro.rebalance.migrate import MigrationConfig, ShardMigrator
from repro.rebalance.policy import Rebalancer, RebalancerConfig
from repro.rebalance.routing import RoutingTable
from repro.runtime.simulated import InterferencePolicy, SimRuntime
from repro.sched.scheduler import SchedulerConfig, TraversalScheduler
from repro.storage.costmodel import GPFS, DiskCostModel
from repro.storage.layout import GraphStore, load_partitions
from repro.storage.lsm import LSMConfig


@dataclass
class ClusterConfig:
    """Everything needed to stand up a simulated deployment."""

    nservers: int = 4
    engine: Union[EngineKind, EngineOptions] = EngineKind.GRAPHTREK
    partitioner: str = "hash"  # "hash" (paper default) or "greedy"
    network: NetworkModel = INFINIBAND_QDR
    disk_model: DiskCostModel = field(default_factory=lambda: GPFS)
    disk_capacity: int = 1
    #: server page/block cache, in 4 KiB blocks (16 MiB default). The paper's
    #: nodes have 36 GB RAM, so data is warm after first touch; "cold start"
    #: means the cache is *cleared before each measured run* (which
    #: ``Cluster.traverse(cold=True)`` does), not that it stays cold.
    block_cache_blocks: int = 4096
    coordinator_server: ServerId = 0
    coordinator_config: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    interference: Optional[InterferencePolicy] = None
    #: "grouped" (paper layout: same-label edges contiguous), "interleaved"
    #: (generic column layout; the §IV-B ablation baseline), or "columnar"
    #: (delta/varint-compressed per-(vertex, label) adjacency blocks,
    #: DESIGN.md §16). Unknown names raise the typed
    #: :class:`~repro.errors.UnknownEdgeLayout` at build time.
    edge_layout: str = "grouped"
    #: declarative fault injection (drops/dups/delays/crashes), compiled
    #: into the runtime's one injection slot (``runtime.fault_injector``).
    fault_plan: Optional[FaultPlan] = None
    #: wrap all messaging in the at-least-once ReliableChannel (acks,
    #: seeded-backoff retries, receiver dedup). Off by default: the fault-free
    #: wire needs no acks and the paper's timings are measured without them.
    reliable: bool = False
    #: per-traversal flight recorder (exec lifecycle, forwards, retries,
    #: fault verdicts — see :mod:`repro.obs.trace`). Off by default; recording
    #: is out-of-band and never affects simulated timings, but the event
    #: stream costs memory on long runs (bounded by
    #: ``Cluster.enable_tracing(max_events=)``).
    trace_enabled: bool = False
    #: admission/fairness/backpressure limits for the traversal scheduler
    #: (:mod:`repro.sched`). None = the transparent default config: no
    #: bounds, no quotas — submissions launch immediately, as before. The
    #: launch *policy* is selected by ``EngineOptions.scheduler``.
    scheduler_config: Optional[SchedulerConfig] = None
    #: durable traversal journal + crash recovery for the coordinator
    #: (DESIGN.md §13). Off by default: without it a coordinator-hosting
    #: server crash keeps the legacy semantics (the coordinator actor's
    #: state survives; only the co-located engine loses memory).
    journal: bool = False
    #: per-tenant objectives of the SLO tracker every cluster's telemetry
    #: plane (DESIGN.md §14) feeds; None uses the defaults
    slo_config: Optional[SLOConfig] = None
    #: tail-based trace sampling policy (requires ``trace_enabled``; the
    #: telemetry plane drives the per-traversal keep decision). None =
    #: every recorded event is retained.
    trace_sampling: Optional[SamplingPolicy] = None
    #: knobs for online shard migrations (:mod:`repro.rebalance`); None uses
    #: the defaults. The migrator itself is always wired — migrations only
    #: run when :meth:`Cluster.rebalance` or the rebalancer loop asks.
    migration: Optional[MigrationConfig] = None

    def engine_options(self) -> EngineOptions:
        if isinstance(self.engine, EngineOptions):
            return self.engine
        return options_for(self.engine)


class Cluster:
    """A running (simulated) GraphTrek deployment.

    Single-threaded, like its runtime: calls run, and drive the simulator,
    on the caller's thread. Do not share one cluster across OS threads.
    """

    def __init__(
        self,
        config: ClusterConfig,
        runtime: SimRuntime,
        partitioner: Partitioner,
        servers: list[BackendServer],
        coordinator: Coordinator,
        registry: TravelRegistry,
        board: StatsBoard,
        scheduler: TraversalScheduler,
        routing: RoutingTable,
        migrator: ShardMigrator,
        supervisor: Optional[RecoverySupervisor] = None,
    ):
        self.config = config
        self.runtime = runtime
        self.partitioner = partitioner
        self.servers = servers
        self.coordinator = coordinator
        self.registry = registry
        self.board = board
        self.scheduler = scheduler
        self.supervisor = supervisor
        self.routing = routing
        self.migrator = migrator
        #: the policy loop, once ``start_rebalancer`` has been called
        self.rebalancer: Optional[Rebalancer] = None

    @property
    def journal(self):
        """The coordinator's traversal journal, or None when disabled."""
        return self.coordinator.journal

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, graph: PropertyGraph, config: Optional[ClusterConfig] = None) -> "Cluster":
        config = config or ClusterConfig()
        opts = config.engine_options()
        runtime = SimRuntime(
            config.nservers,
            network=config.network,
            disk_model=config.disk_model,
            disk_capacity=config.disk_capacity,
            interference=config.interference,
        )
        runtime.coordinator_server = config.coordinator_server
        partitioner = make_partitioner(config.partitioner, config.nservers, graph=graph)
        assignment = partitioner.assign(graph)
        # every routing decision in the cluster goes through the versioned
        # table so shard migrations can move ownership under live traffic
        routing = RoutingTable(partitioner.owner, config.nservers)
        registry = TravelRegistry()
        # the metrics registry, flight recorder, SLO tracker and telemetry
        # plane are built together; everything below records into them
        obs = Observability(config.slo_config)
        board = StatsBoard(opts.kind, obs)
        lsm_config = LSMConfig(
            block_cache_blocks=config.block_cache_blocks,
            cost_model=config.disk_model,
        )

        # One walk of each partition loads its server's store and, with a
        # planner ("rules"/"cost"), feeds that server's statistics summary
        # (the coordinator plans over their merge). "cost" additionally
        # materializes reverse adjacency (~label edge records) so reversed
        # chains are executable.
        stores = [
            GraphStore(replace(lsm_config), edge_layout=config.edge_layout)
            for _ in range(config.nservers)
        ]
        builders = (
            [SummaryBuilder(graph) for _ in stores] if opts.planner != "off" else []
        )
        load_partitions(
            graph,
            stores,
            assignment,
            reverse=opts.planner == "cost",
            observers=[builder.add for builder in builders],
        )
        planner: Optional[QueryPlanner] = None
        if builders:
            planner = QueryPlanner(
                mode=opts.planner,
                summary=GraphSummary.merged(builder.build() for builder in builders),
                reverse_available=opts.planner == "cost",
            )

        engine_cls = SyncServerEngine if opts.kind is EngineKind.SYNC else AsyncServerEngine
        servers: list[BackendServer] = []
        for server_id, store in enumerate(stores):
            ctx = runtime.context(server_id)
            engine = engine_cls(ctx, store, registry, routing, opts, board)
            servers.append(BackendServer(server_id, ctx, store, engine))

        channel: Optional[ReliableChannel] = None  # assigned below if reliable

        def _forget(travel_id: TravelId) -> None:
            for server in servers:
                server.engine.forget_travel(travel_id)
            if channel is not None:
                channel.forget_travel(travel_id)

        journal: Optional[TraversalJournal] = None
        if config.journal:
            journal = TraversalJournal()
        coordinator = Coordinator(
            ctx=runtime.context(config.coordinator_server),
            runtime=runtime,
            registry=registry,
            routing=routing,
            board=board,
            engine_kind=opts.kind,
            on_complete=_forget,
            config=config.coordinator_config,
            planner=planner,
            journal=journal,
        )
        runtime.register_handler(COORDINATOR, coordinator.on_message)

        # The admission scheduler sits between Cluster.submit and the
        # coordinator; with the default (transparent) SchedulerConfig every
        # admitted traversal launches synchronously inside submit(). Refused
        # submissions spend the tenant's SLO error budget.
        scheduler = TraversalScheduler.for_cluster(
            runtime, coordinator, opts.scheduler, obs.slo.record_rejection,
            config.scheduler_config,
        )

        # Online shard rebalancing (repro.rebalance): the migrator moves
        # vertex ranges between servers while traversals run, pacing its copy
        # traffic through the scheduler as the low-priority tenant above.
        migrator = ShardMigrator(
            runtime,
            routing,
            servers,
            scheduler,
            coordinator,
            board,
            config.migration,
            forget=_forget,
            journal=journal,
            host=config.coordinator_server,
        )

        # Per-server handlers: migration wire traffic goes to the migrator,
        # everything else to the server's engine. Handlers are only read at
        # delivery time; they must be registered before install_channel
        # (below) captures them.
        for server in servers:

            def handler(msg, server_id=server.server_id, engine=server.engine):
                if isinstance(msg, (MigrateChunk, MigrateAck)):
                    migrator.on_message(server_id, msg)
                else:
                    engine.on_message(msg)

            runtime.register_handler(server.server_id, handler)

        # Observability wiring: trace events timestamp off the runtime clock,
        # and a pull collector turns the push-free layers (storage, network)
        # into gauges at snapshot time. Collectors must SET, never increment
        # — snapshot() may run any number of times.
        obs.bind_clock(runtime.now)
        runtime.bind_metrics(obs.metrics)
        obs.trace.configure(
            enabled=config.trace_enabled, sampling=config.trace_sampling
        )
        runtime.bind_trace(obs.trace)

        # Fault machinery: crashes clear engine memory (LSM storage keeps its
        # state inside GraphStore, untouched); the reliable channel interposes
        # on deliver() and feeds ack-exhaustion back as crash suspicion.
        runtime.add_crash_listener(lambda s: servers[s].engine.crash())
        if config.fault_plan is not None:
            runtime.install_faults(config.fault_plan)
        if config.reliable:
            channel = ReliableChannel(
                runtime,
                metrics=obs.metrics,
                trace=obs.trace,
                seed=config.fault_plan.seed if config.fault_plan is not None else 0,
            )
            runtime.install_channel(channel)

            def _suspect(src: ServerId, dst: ServerId, payload) -> None:
                if dst != COORDINATOR:
                    coordinator.on_suspect(dst)

            channel.on_delivery_failure = _suspect

        # Crash recovery for the control plane: with a journal configured,
        # a coordinator-host crash wipes coordinator+scheduler state and the
        # supervisor rebuilds both from the journal on recovery.
        supervisor: Optional[RecoverySupervisor] = None
        if journal is not None:
            supervisor = RecoverySupervisor(
                runtime, coordinator, scheduler, journal, migrator,
                channel=channel,
            )

        # The live telemetry plane (DESIGN.md §14): windows close at runtime
        # clock boundaries, so the record path pays nothing.
        telemetry = obs.telemetry
        telemetry.install(runtime, obs.metrics)

        def _on_crash(server: ServerId) -> None:
            if server == config.coordinator_server:
                telemetry.on_coordinator_crash()

        runtime.add_crash_listener(_on_crash)

        # Terminal listeners, in the order notify_terminal walks them.
        # Telemetry is first: it reads tenant and admission clock off the
        # scheduler's QoS entry, which the scheduler's listener pops; the
        # supervisor's session drop is last.
        coordinator.terminal_listeners.append(
            lambda travel_id, status: telemetry.on_terminal(
                travel_id, status, entry=scheduler.entry_for(travel_id)
            )
        )
        coordinator.terminal_listeners.append(scheduler.on_travel_terminal)
        if supervisor is not None:
            coordinator.terminal_listeners.append(supervisor.drop_session)

        def _collect_storage(metrics) -> None:
            for server in servers:
                for name, value in server.storage_metrics().items():
                    metrics.set_gauge(f"storage.{name}", value, server=server.server_id)
            metrics.set_gauge("runtime.messages_sent", runtime.messages_sent)
            metrics.set_gauge("runtime.bytes_sent", runtime.bytes_sent)
            metrics.set_gauge("runtime.messages_dropped", runtime.messages_dropped)
            metrics.set_gauge("sched.queue_depth", scheduler.queue_depth)
            metrics.set_gauge("sched.inflight", scheduler.inflight_count)
            metrics.set_gauge("coord.epoch", coordinator.epoch)
            metrics.set_gauge("rebalance.routing_version", routing.version)
            metrics.set_gauge("rebalance.active", migrator.active_count)
            metrics.set_gauge("rebalance.dual_vertices", routing.dual_count)
            metrics.set_gauge("rebalance.overrides", routing.override_count)
            if journal is not None:
                metrics.set_gauge("journal.size_bytes", journal.size_bytes())
                metrics.set_gauge("journal.records", journal.records_appended)
                metrics.set_gauge("journal.bytes_appended", journal.bytes_appended)
                metrics.set_gauge("journal.checkpoints", journal.checkpoints_written)

        obs.metrics.add_collector(_collect_storage)
        if config.interference is not None and hasattr(config.interference, "bind_metrics"):
            config.interference.bind_metrics(obs.metrics)
        return cls(
            config, runtime, partitioner, servers, coordinator, registry, board,
            scheduler, routing, migrator, supervisor,
        )

    # -- client API (paper §IV-A: submit the whole GTravel instance) ------------

    def _compile(
        self, query: Union[GTravel, TraversalPlan, CompositePlan]
    ) -> Union[TraversalPlan, CompositePlan]:
        return query.compile() if isinstance(query, GTravel) else query

    def submit(
        self,
        query: Union[GTravel, TraversalPlan, CompositePlan],
        *,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        """Asynchronously submit; returns (travel_id, completion event).

        ``tenant`` attributes the submission for fair queueing and quotas,
        ``priority`` overrides the priority policy's default class, and
        ``deadline`` (seconds from admission) arms cancellation: if the
        traversal has not completed by then it fails with
        :class:`~repro.errors.TraversalCancelled`. Raises
        :class:`~repro.errors.AdmissionRejected` when the scheduler's
        pending queue is full.
        """
        travel_id, event = self.scheduler.submit(
            self._compile(query),
            tenant=tenant,
            priority=priority,
            deadline=deadline,
        )
        entry = self.scheduler.entry_for(travel_id)
        if self.supervisor is not None and entry is not None:  # None: terminal
            self.supervisor.note_submission(entry)
        return travel_id, event

    def cancel(self, travel_id: TravelId, reason: str = "cancelled") -> bool:
        """Cancel a queued or running traversal; True if anything happened."""
        return self.scheduler.cancel(travel_id, reason)

    def traverse(
        self,
        query: Union[GTravel, TraversalPlan, CompositePlan],
        *,
        cold: bool = True,
        limit: Optional[float] = None,
    ) -> TraversalOutcome:
        """Run one traversal to completion and return its outcome.

        ``cold=True`` drops every server's block cache first, matching the
        paper's cold-start methodology. ``limit`` is an absolute virtual time
        (compare :attr:`now`), not a duration: the run raises
        :class:`~repro.errors.SimulationError` if the clock would pass it
        before the traversal completes.
        """
        if cold:
            self.cold_start()
        _, event = self.submit(query)
        return self.runtime.run_until_complete(event, limit=limit)

    def traverse_many(
        self,
        queries: list[Union[GTravel, TraversalPlan, CompositePlan]],
        *,
        cold: bool = True,
        qos: Optional[list[dict]] = None,
    ) -> list[TraversalOutcome]:
        """Run several traversals concurrently (the paper's online workload:
        'as an online database system, our system needs to support concurrent
        graph traversals').

        ``qos`` optionally carries one per-query dict of :meth:`submit`
        keyword arguments (``tenant`` / ``priority`` / ``deadline``).
        """
        if cold:
            self.cold_start()
        specs = qos if qos is not None else [{} for _ in queries]
        events = [self.submit(q, **spec)[1] for q, spec in zip(queries, specs)]
        outcomes = []
        for event in events:
            outcomes.append(self.runtime.run_until_complete(event))
        return outcomes

    def progress(self, travel_id: TravelId) -> dict[int, int]:
        """Outstanding work per step for an in-flight traversal (§IV-C)."""
        return self.coordinator.progress(travel_id)

    # -- elastic scale-out (repro.rebalance) ---------------------------------

    def rebalance(
        self,
        src: ServerId,
        dst: ServerId,
        *,
        vids=None,
        key_range: Optional[tuple[int, int]] = None,
        wait: bool = True,
    ):
        """Migrate a vertex set (or ``[lo, hi)`` key range) from ``src`` to
        ``dst`` while traversals run. With ``wait=True`` (default) the
        simulation runs until the migration is terminal and the
        :class:`~repro.rebalance.migrate.MigrationState` is returned —
        check ``state.phase`` (``done`` / ``aborted``). With ``wait=False``
        returns ``(mid, completion event)`` immediately."""
        mid, event = self.migrator.migrate(src, dst, vids=vids, key_range=key_range)
        if not wait:
            return mid, event
        return self.runtime.run_until_complete(event)

    def start_rebalancer(
        self, config: Optional[RebalancerConfig] = None
    ) -> Rebalancer:
        """Start the closed-loop rebalancer: it samples the hot-shard report
        every ``config.interval`` seconds and migrates ranges off flagged
        servers."""
        telemetry = self.board.obs.telemetry
        nservers = self.config.nservers

        def report_fn():
            return telemetry.hot_shards(
                self.coordinator.inflight_by_server(), nservers
            )

        def loads_fn():
            return {
                s.server_id: sorted(s.store.local_vertices())
                for s in self.servers
            }

        rebalancer = Rebalancer(self.migrator, report_fn, loads_fn, config)
        self.rebalancer = rebalancer
        rebalancer.start()
        return rebalancer

    def stop_rebalancer(self) -> None:
        if self.rebalancer is not None:
            self.rebalancer.stop()

    # -- observability -------------------------------------------------------------

    @property
    def obs(self):
        """The cluster-wide :class:`~repro.obs.Observability` instance."""
        return self.board.obs

    @property
    def telemetry(self):
        """The live :class:`~repro.obs.telemetry.TelemetryPlane`."""
        return self.board.obs.telemetry

    @property
    def slo(self):
        """The per-tenant :class:`~repro.obs.slo.SLOTracker`."""
        return self.board.obs.slo

    def metrics_snapshot(self) -> dict:
        """Deterministic metrics snapshot (counters, gauges, histograms)."""
        return self.board.obs.metrics.snapshot()

    def rollups(self) -> dict:
        """The telemetry plane's windowed rollup payload."""
        return self.board.obs.telemetry.rollups()

    def alert_log(self) -> list:
        """Every SLO burn-rate alert transition so far, in order."""
        return self.board.obs.slo.alert_log_payload()

    def hot_shard_report(self):
        """Ranked per-server load skew (rate + in-flight) right now."""
        return self.board.obs.telemetry.hot_shards(
            self.coordinator.inflight_by_server(), self.config.nservers
        )

    def health(self) -> dict:
        """The JSON health/readiness document: per-server liveness,
        coordinator epoch, scheduler depths, firing SLO alerts."""
        from repro.obs.exporter import health_payload

        journal = self.coordinator.journal
        journal_doc = None
        if journal is not None:
            journal_doc = {
                "size_bytes": journal.size_bytes(),
                "records": journal.records_appended,
            }
        return health_payload(
            epoch=self.coordinator.epoch,
            servers_up=[
                not self.runtime.is_down(s)
                for s in range(self.config.nservers)
            ],
            coordinator_server=self.config.coordinator_server,
            queue_depth=self.scheduler.queue_depth,
            inflight=self.scheduler.inflight_count,
            policy=self.scheduler.policy.name,
            active_alerts=self.board.obs.slo.active_alerts(),
            journal=journal_doc,
        )

    def health_json(self) -> str:
        """Canonical byte-stable health document."""
        from repro.obs.metrics import canonical_json

        return canonical_json(self.health())

    def openmetrics(self) -> str:
        """One OpenMetrics text exposition: the metrics snapshot plus the
        latest-window rollups and health gauges."""
        from repro.obs.exporter import render_openmetrics

        return render_openmetrics(
            self.metrics_snapshot(),
            rollups=self.rollups(),
            health=self.health(),
        )

    def export_observability(self, path):
        """Write the canonical metrics+trace payload to ``path``."""
        from repro.obs.exporter import write_observability

        return write_observability(path, self.board.obs.metrics, self.board.obs.trace)

    # -- tracing / EXPLAIN / PROFILE ------------------------------------------------

    def enable_tracing(self, max_events: Optional[int] = None) -> None:
        """Turn the flight recorder on (equivalent to building the cluster
        with ``trace_enabled=True``)."""
        self.board.obs.trace.configure(enabled=True, max_events=max_events)

    def trace_dag(self, travel_id: TravelId):
        """Reconstruct one traversal's execution DAG from recorded events.

        Raises :class:`~repro.errors.TraceError` on orphan executions or
        cycles (degraded to warnings when the ring buffer truncated).
        """
        from repro.obs.trace import assemble_trace

        recorder = self.board.obs.trace
        return assemble_trace(
            recorder.events(), travel_id, dropped=recorder.dropped_for(travel_id)
        )

    def trace_payload(self, *, label: Optional[str] = None) -> dict:
        """Every recorded traversal in Chrome ``trace_event`` format
        (open in chrome://tracing or https://ui.perfetto.dev)."""
        from repro.obs.trace import chrome_trace

        return chrome_trace(self.board.obs.trace, label=label)

    def explain(self, query: Union[GTravel, TraversalPlan, CompositePlan]) -> dict:
        """EXPLAIN against *this* cluster's planner: when a planner mode is
        configured, the document shows original vs. optimized plan with the
        applied rewrites and (in ``cost`` mode) per-level cost estimates;
        with the planner off it is the plain plan document. Composite plans
        (repeat/union/back) get the operator-tree document with per-operator
        cost estimates in ``cost`` mode; child plans are (re)planned
        individually at dispatch, so rewrites never cross operator scopes.
        No traversal runs."""
        from repro.obs.explain import explain_composite, explain_plan, explain_planned

        plan = self._compile(query)
        if isinstance(plan, CompositePlan):
            return explain_composite(plan, planner=self.coordinator.planner)
        if self.coordinator.planner is not None:
            return explain_planned(self.coordinator.planner.plan(plan))
        return explain_plan(plan)

    def profile(
        self,
        query: Union[GTravel, TraversalPlan, CompositePlan],
        *,
        cold: bool = True,
        limit: Optional[float] = None,
    ):
        """Run ``query`` with the flight recorder on and return
        ``(outcome, ProfileReport)`` — the Gremlin-style ``profile()`` step.

        The report carries per-step fan-out, visit/cache attribution,
        per-server execution counts and skew, wall-clock per step on the
        virtual clock, and the full reconstructed trace — plus, when a
        planner is configured, the rewrite audit trail and estimated-vs-
        actual cardinality rows. Deterministic per (seed, config) on the
        simulated runtime.
        """
        from repro.errors import TraversalFailed
        from repro.obs.explain import profile_traversal

        self.enable_tracing()
        plan = self._compile(query)
        if isinstance(plan, CompositePlan):
            # Composite parents fan out into per-child linear traversals; each
            # child is profilable on its own, but the parent has no single
            # step timeline to attribute. Use explain() for the operator tree.
            raise UnsupportedProfileTarget(
                kind="composite",
                hint="use explain() for the operator tree, or profile the "
                "child plans individually",
            )
        # re-planning here is safe: the planner is pure, so this PlannedQuery
        # matches the one the coordinator derives at submit time
        planned = (
            self.coordinator.planner.plan(plan)
            if self.coordinator.planner is not None
            else None
        )
        # tail sampling must not sample out the profile's own traversal
        recorder = self.board.obs.trace
        saved_sampling = recorder.sampling
        recorder.configure(sampling=None)
        try:
            outcome = self.traverse(plan, cold=cold, limit=limit)
        except TraversalFailed as err:
            dag = self.trace_dag(err.travel_id)
            report = profile_traversal(dag, plan, planned=planned)
            return None, report
        finally:
            recorder.configure(sampling=saved_sampling)
        travel_id = outcome.result.travel_id
        dag = self.trace_dag(travel_id)
        report = profile_traversal(
            dag,
            plan,
            elapsed=outcome.stats.elapsed,
            result_count=len(outcome.result.vertices),
            queue_wait=self._queue_wait(travel_id),
            planned=planned,
        )
        return outcome, report

    def _queue_wait(self, travel_id: TravelId) -> Optional[float]:
        """Admission-queue wait from the flight recorder (sched.submit →
        sched.launch), or None if either event was not captured."""
        submitted = launched = None
        for ev in self.board.obs.trace.events_for(travel_id):
            if ev.kind == "sched.submit" and submitted is None:
                submitted = ev.clock
            elif ev.kind == "sched.launch" and launched is None:
                launched = ev.clock
        if submitted is None or launched is None:
            return None
        return launched - submitted

    # -- maintenance --------------------------------------------------------------

    def cold_start(self) -> None:
        for server in self.servers:
            server.store.cold_start()

    @property
    def now(self) -> float:
        return self.runtime.now()

    def server_loads(self) -> list[int]:
        """Vertices per server (partition skew introspection)."""
        return [s.vertex_count for s in self.servers]

    # -- live updates (the metadata store ingests production data in real time) ----

    def ingest_vertex(self, vid: int, vtype: str, props: Optional[dict] = None) -> None:
        """Insert a vertex through the owning server's storage engine.

        Ownership is resolved through the routing table, so ingest lands on
        the post-migration owner of a rebalanced key."""
        owner = self.routing.owner(vid)
        self.servers[owner].store.insert_vertex(vid, vtype, dict(props or {}))

    def ingest_edge(
        self, src: int, dst: int, label: str, props: Optional[dict] = None
    ) -> None:
        """Insert an out-edge on the source vertex's owning server.

        On a cluster built with the reverse index (``planner="cost"``) the
        ``~label`` record is also written on the destination's owner, so
        reversed chains and ``back()`` see the edge; a destination not
        stored there is skipped, as at load time."""
        owner = self.routing.owner(src)
        if not self.servers[owner].store.has_vertex(src):
            raise SimulationError(f"edge source {src} has not been ingested")
        props = dict(props or {})
        self.servers[owner].store.insert_edge(src, dst, label, props)
        planner = self.coordinator.planner
        if planner is not None and planner.reverse_available:
            dst_store = self.servers[self.routing.owner(dst)].store
            if dst_store.has_vertex(dst):
                dst_store.insert_reverse_edge(dst, src, label, props)
