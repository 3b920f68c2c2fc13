"""The coordinator: traversal submission, tracing, completion, and restart.

The client ships a compiled plan to one selected backend server which acts as
the coordinator for that traversal (paper §IV-A, Fig. 2b). For asynchronous
engines the coordinator hosts the execution tracker (§IV-C); for the
synchronous baseline it is the barrier controller (§VI). Either way it
assembles the returned vertex sets, stamps the elapsed time, and resolves
the client's completion event.

Failure handling follows the paper: an execution that was created but does
not terminate within a timeout marks the traversal failed, and "this failure
will simply cause the traversal to be restarted" — up to ``max_restarts``
attempts, after which the client's event fails with
:class:`~repro.errors.TraversalFailed`.

The coordinator itself is crash-recoverable (DESIGN.md §13): with a
:class:`~repro.cluster.journal.TraversalJournal` attached, every state
transition is journaled *before* its side effects, ``on_host_crash`` models
losing all in-memory travel state, and ``begin_epoch`` / ``resume`` /
``orphan`` rebuild the coordinator from a journal replay under a new epoch,
through the same launch sequence a live submission uses. Every outbound
message is stamped with the current epoch and :meth:`on_message` fences
reports carrying an older one, so a recovered coordinator can never be
confused by its dead predecessor's in-flight traffic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Optional, Union

from repro.engine.base import (
    EngineKind,
    TraversalOutcome,
    TraversalResult,
    TraversalStats,
)
from repro.cluster.journal import TraversalJournal
from repro.engine.registry import TravelEntry, TravelRegistry
from repro.engine.statistics import StatsBoard
from repro.engine.tracing import ExecTracker, SyncBarrierState
from repro.errors import TraversalCancelled, TraversalError, TraversalFailed
from repro.ids import COORDINATOR, ServerId, TravelId, VertexId
from repro.lang.composite import CompositePlan, composite_program
from repro.lang.optimizer import PlannedQuery, QueryPlanner
from repro.lang.plan import TraversalPlan, reduce_aggregate
from repro.obs.trace import sync_exec_id
from repro.rebalance.routing import RoutingTable
from repro.net.message import (
    ExecStatus,
    Message,
    ReplayExec,
    ResultReport,
    SyncBatch,
    SyncStartStep,
    SyncStepDone,
    TraverseRequest,
)
from repro.runtime.simulated import SimRuntime, SimServerContext


@dataclass(frozen=True)
class CoordinatorConfig:
    """Timeout, restart, and control-plane cost policy."""

    exec_timeout: float = 60.0  # idle seconds before declaring failure
    watch_interval: float = 5.0
    max_restarts: int = 2
    #: fine-grained recovery (the paper's future work): before falling back
    #: to a full restart, ask the creators of the lost executions to replay
    #: their original dispatches. Receiver-side (travel, step, vertex)
    #: deduplication makes replays idempotent. Async engines only.
    fine_grained_recovery: bool = False
    #: per-control-message handling time at the barrier controller. The
    #: synchronous engine's coordinator must receive N step-done reports and
    #: send N step-start orders *on the critical path* of every step; the
    #: asynchronous engines' status tracing is processed off the critical
    #: path, so only sync barriers pay this.
    control_overhead_per_msg: float = 15e-6


@dataclass
class ActiveTravel:
    """Coordinator-side state of one in-flight traversal."""

    travel_id: TravelId
    entry: TravelEntry
    submit_time: float
    client_event: object
    #: this attempt's completion protocol; ``Coordinator._launch`` binds a
    #: fresh one before anything reads it
    tracker: Union[ExecTracker, SyncBarrierState] = field(init=False)
    returned: dict[int, set[VertexId]] = field(default_factory=dict)
    #: final-level group keys reported by the servers (``group_count`` plans)
    groups: dict[VertexId, Any] = field(default_factory=dict)
    done: bool = False
    #: coordinator-side replay buffer for its own initial dispatches
    initial_sent: dict[int, tuple[ServerId, object]] = field(default_factory=dict)
    replay_rounds: int = 0
    #: the planner's audit trail; None when the traversal runs as written
    planned: Optional[PlannedQuery] = None
    #: parent composite travel id when this is an orchestrated child; its
    #: client_event is then coordinator-internal, not client-facing
    child_of: Optional[TravelId] = None
    #: journal progress-delta batching (flushed every ~32 fresh reports)
    pend_statuses: int = 0
    pend_results: int = 0

    @property
    def plan(self) -> TraversalPlan:
        """The *executed* plan (post-rewrite when a planner is active)."""
        return self.entry.plan


@dataclass
class CompositeTravel:
    """Coordinator-side state of one composite (repeat/union/back) traversal.

    The coordinator spawns an orchestrator process that drives the shared
    :func:`~repro.lang.composite.composite_program`; every child plan the
    program yields runs as an ordinary linear traversal, so the distributed
    machinery (tracking, restarts, caches) is reused unchanged.
    """

    travel_id: TravelId
    plan: CompositePlan
    client_event: object
    submit_time: float
    stats: TraversalStats
    current_child: Optional[TravelId] = None
    children: int = 0
    done: bool = False


#: terminal status -> (outcome counter, flight-recorder event kind)
_TERMINAL = {
    "ok": ("coord.completed", "travel.complete"),
    "failed": ("coord.failed", "travel.failed"),
    "cancelled": ("coord.cancelled", "travel.cancelled"),
}

#: fine-grained replay rounds per traversal before :meth:`Coordinator._replay`
#: gives up and the watchdog falls back to a full restart
MAX_REPLAY_ROUNDS = 2


class Coordinator:
    """One coordinator actor per cluster (hosted on a backend server)."""

    def __init__(
        self,
        ctx: SimServerContext,
        runtime: SimRuntime,
        registry: TravelRegistry,
        routing: RoutingTable,
        board: StatsBoard,
        engine_kind: EngineKind,
        on_complete: Callable[[TravelId], None],
        config: Optional[CoordinatorConfig] = None,
        planner: Optional[QueryPlanner] = None,
        journal: Optional[TraversalJournal] = None,
    ):
        self.ctx = ctx
        self.runtime = runtime
        self.registry = registry
        self.board = board
        self.metrics = board.obs.metrics
        self.trace = board.obs.trace
        self.engine_kind = engine_kind
        self.config = config or CoordinatorConfig()
        self.on_complete = on_complete
        self.planner = planner
        #: called in order with (travel_id, "ok"|"failed"|"cancelled") by
        #: :meth:`notify_terminal`; ``Cluster.build`` states the order
        self.terminal_listeners: list[Callable[[TravelId, str], None]] = []
        #: durable WAL of state transitions; None runs journal-free (legacy)
        self.journal = journal
        #: versioned routing table (repro.rebalance); when set, level-0
        #: dispatch consults ``routing.owners`` so vertices inside a
        #: migration's double-routing window go to *both* owners
        self.routing = routing
        #: coordinator incarnation; bumped by ``begin_epoch`` on recovery and
        #: stamped on every outbound message for fencing
        self.epoch = 0
        #: pre-bound ``coord.exec_status{server}`` handles: one status
        #: arrives per work unit
        self._exec_status: dict[ServerId, Callable[..., None]] = {}
        self._active: dict[TravelId, ActiveTravel] = {}
        self._composites: dict[TravelId, CompositeTravel] = {}
        self._travel_ids = itertools.count(1)
        self._next_exec = itertools.count((ctx.nservers + 1) << 32)
        # The one place the engine kind is consulted: it selects the
        # completion protocol (paper §IV-C status tracing, or the §VI
        # barrier controller) and that protocol's level-0 dispatch.
        self._new_tracker: Callable[..., Union[ExecTracker, SyncBarrierState]]
        self._dispatch: Callable[[ActiveTravel], None]
        if engine_kind is EngineKind.SYNC:
            self._new_tracker = partial(SyncBarrierState, ctx.nservers)
            self._dispatch = self._dispatch_sync
        else:
            self._new_tracker = ExecTracker
            self._dispatch = self._dispatch_async

    # -- submission --------------------------------------------------------

    def allocate_travel_id(self) -> TravelId:
        """Hand out the next travel id (the scheduler allocates at admission
        so a still-queued traversal is already addressable for cancel)."""
        return next(self._travel_ids)

    def submit(
        self,
        plan: TraversalPlan,
        *,
        travel_id: Optional[TravelId] = None,
        client_event: Optional[object] = None,
        submit_time: Optional[float] = None,
        _child_of: Optional[TravelId] = None,
    ):
        """Register and launch a traversal; returns (travel_id, event).

        The coordinator plans *once*: when a planner is configured, the
        rewritten plan is what gets registered and shipped to every server
        (restarts re-dispatch the same executed plan — no replanning
        mid-traversal).

        The scheduler pre-allocates ``travel_id``/``client_event`` at
        admission and passes the admission time as ``submit_time`` so the
        reported elapsed time includes queue wait; direct callers omit all
        three and get the legacy launch-immediately behaviour."""
        if travel_id is None:
            travel_id = next(self._travel_ids)
        if submit_time is None:
            submit_time = self.ctx.now()
        event = (
            client_event
            if client_event is not None
            else self.runtime.completion_event()
        )
        if isinstance(plan, CompositePlan):
            return self._submit_composite(plan, travel_id, event, submit_time)
        planned: Optional[PlannedQuery] = None
        executed = plan
        if self.planner is not None:
            planned = self.planner.plan(plan)
            executed = planned.executed
            if planned.mode != "off":
                self.metrics.count("planner.planned")
                for rewrite in planned.rewrites:
                    self.metrics.count(f"planner.rewrite.{rewrite.name}")
        entry = self.registry.register(travel_id, executed)
        entry.epoch = self.epoch
        at = ActiveTravel(
            travel_id=travel_id,
            entry=entry,
            submit_time=submit_time,
            client_event=event,
            planned=planned,
            child_of=_child_of,
        )
        self.metrics.count("coord.submitted")
        self.trace.record(
            "travel.submit",
            travel_id=travel_id,
            server_id=self.ctx.server_id,
            engine=self.engine_kind.value,
            steps=executed.final_level,
            planner_mode=planned.mode if planned is not None else "off",
        )
        self._start(at)
        return travel_id, event

    def _start(self, at: ActiveTravel) -> None:
        """Make ``at`` active, launch its current attempt and watch it (first
        submit and post-crash resume)."""
        self._active[at.travel_id] = at
        self._launch(at)
        self.ctx.spawn(self._watchdog(at), name=f"watchdog-{at.travel_id}")

    def _launch(self, at: ActiveTravel) -> None:
        """The launch tail of first submit, watchdog restart and post-crash
        resume: a fresh tracker for the entry's current attempt, then the
        WAL record, then level-0 dispatch — the launch is durable before any
        of its side effects (messages, tracker registration) can run."""
        attempt = at.entry.attempt
        at.tracker = self._new_tracker(attempt=attempt, last_activity=self.ctx.now())
        self._journal_dispatch(
            at.travel_id, at.plan, attempt,
            child_of=at.child_of, submit_time=at.submit_time, planned=at.planned,
        )
        self._dispatch(at)

    def _source_groups(self, plan: TraversalPlan) -> dict[ServerId, list[VertexId]]:
        groups: dict[ServerId, list[VertexId]] = {}
        for vid in plan.source_ids or ():
            # double-routing: a vertex mid-migration dispatches to both its
            # source and target; set-union result merging (async) and
            # per-vid batch merging (sync) dedupe downstream
            for server in self.routing.owners(vid):
                groups.setdefault(server, []).append(vid)
        return groups

    def _dispatch_async(self, at: ActiveTravel) -> None:
        plan, attempt = at.plan, at.entry.attempt
        tracker: ExecTracker = at.tracker  # type: ignore[assignment]
        initial: list[tuple[int, ServerId, int]] = []
        if plan.source_ids is None:
            groups: list[tuple[ServerId, Optional[list]]] = [
                (server, None) for server in range(self.ctx.nservers)
            ]
        else:
            groups = sorted(self._source_groups(plan).items())  # type: ignore[assignment]
        for server, vids in groups:
            eid = next(self._next_exec)
            initial.append((eid, server, 0))
            self.trace.record(
                "exec.created",
                travel_id=at.travel_id,
                exec_id=eid,
                parent_exec_id=None,
                server_id=server,
                step=0,
                attempt=attempt,
                edge="dispatch",
            )
            request = TraverseRequest(
                at.travel_id,
                level=0,
                entries={} if vids is None else {vid: () for vid in vids},
                exec_id=eid,
                from_server=self.ctx.server_id,
                all_sources=vids is None,
                attempt=attempt,
            )
            at.initial_sent[eid] = (server, request)
            self._send(at.travel_id, server, request)
        tracker.register_initial(initial, self.ctx.now())
        self._check_complete(at)  # zero-source traversals complete immediately

    def _dispatch_sync(self, at: ActiveTravel) -> None:
        plan, attempt = at.plan, at.entry.attempt
        counts: Counter = Counter()
        if plan.source_ids is not None:
            for server, vids in sorted(self._source_groups(plan).items()):
                counts[server] += 1
                self._send(
                    at.travel_id,
                    server,
                    SyncBatch(
                        at.travel_id,
                        level=0,
                        entries={vid: () for vid in vids},
                        from_server=self.ctx.server_id,
                        attempt=attempt,
                    ),
                )
        for server in range(self.ctx.nservers):
            # The barrier release is the sync engine's root "creation": one
            # synthetic execution per (attempt, level, server) work unit.
            self.trace.record(
                "exec.created",
                travel_id=at.travel_id,
                exec_id=sync_exec_id(attempt, 0, server),
                parent_exec_id=None,
                server_id=server,
                step=0,
                attempt=attempt,
                edge="barrier",
            )
            self._send(
                at.travel_id,
                server,
                SyncStartStep(
                    at.travel_id,
                    level=0,
                    expect_batches=counts.get(server, 0),
                    all_sources=plan.source_ids is None,
                    attempt=attempt,
                ),
            )
        self.board.stats(at.travel_id).barrier_rounds += 1
        self.metrics.count("coord.barrier_rounds")

    # -- composite orchestration (repeat / union / back) ---------------------------

    def _submit_composite(
        self, plan: CompositePlan, travel_id: TravelId, event: object, submit_time: float
    ):
        """Register a composite traversal and spawn its orchestrator."""
        self._start_composite(travel_id, plan, event, submit_time)
        self.metrics.count("coord.submitted")
        self.metrics.count("coord.composite_submitted")
        self.trace.record(
            "travel.submit",
            travel_id=travel_id,
            server_id=self.ctx.server_id,
            engine=self.engine_kind.value,
            steps=plan.final_level,
            planner_mode=self.planner.mode if self.planner is not None else "off",
            composite=True,
        )
        return travel_id, event

    def _start_composite(
        self,
        travel_id: TravelId,
        plan: CompositePlan,
        client_event: object,
        submit_time: float,
    ) -> CompositeTravel:
        """Journal, register and start one composite's orchestrator (first
        submit and post-crash resume). The orchestrator's first step runs on
        the next scheduling round, after the caller's own bookkeeping."""
        ct = CompositeTravel(
            travel_id=travel_id,
            plan=plan,
            client_event=client_event,
            submit_time=submit_time,
            stats=TraversalStats(engine=self.engine_kind),
        )
        self._journal_dispatch(travel_id, plan, 0, submit_time=submit_time)
        self._composites[travel_id] = ct
        self.ctx.spawn(self._orchestrate(ct), name=f"composite-{travel_id}")
        return ct

    def _orchestrate(self, ct: CompositeTravel):
        """Drive the shared composite program as a coordinator process.

        Every child plan the program yields is submitted like an ordinary
        traversal (planned, tracked, restartable) and its result is sent
        back into the program. A failed child's completion event throws its
        exception into this process, which fails the composite with the
        child's typed error.
        """
        reverse = bool(getattr(self.planner, "reverse_available", False))
        prog = composite_program(
            ct.plan, reverse_available=reverse, travel_id=ct.travel_id
        )
        try:
            try:
                child_plan = next(prog)
                while True:
                    if ct.done:
                        return  # cancelled/crashed before the next child launch
                    child_id, child_event = self.submit(
                        child_plan, _child_of=ct.travel_id
                    )
                    ct.current_child = child_id
                    ct.children += 1
                    outcome = yield child_event
                    ct.current_child = None
                    if ct.done:
                        return  # cancelled while the child was completing
                    _merge_child_stats(ct.stats, outcome.stats)
                    child_plan = prog.send(outcome.result)
            except StopIteration as stop:
                frontier, aggregate = stop.value
        except TraversalError as exc:
            ct.current_child = None
            if not ct.done:
                self._fail_composite(ct, self._rewrap(ct, exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            ct.current_child = None
            if not ct.done:
                self._fail_composite(
                    ct,
                    TraversalFailed(
                        ct.travel_id, f"composite orchestration error: {exc}"
                    ),
                )
            return
        if not ct.done:
            self._finish_composite(ct, frontier, aggregate)

    @staticmethod
    def _rewrap(ct: CompositeTravel, exc: TraversalError) -> TraversalError:
        """Surface child errors under the composite's travel id."""
        child_id = getattr(exc, "travel_id", ct.travel_id)
        if child_id == ct.travel_id:
            return exc
        if isinstance(exc, TraversalCancelled):
            return TraversalCancelled(
                ct.travel_id, f"child traversal {child_id} cancelled: {exc.reason}"
            )
        reason = getattr(exc, "reason", str(exc))
        return TraversalFailed(
            ct.travel_id, f"child traversal {child_id} failed: {reason}"
        )

    def _finish_composite(self, ct: CompositeTravel, frontier, aggregate) -> None:
        stats = ct.stats
        total = len(frontier)
        reply_bytes = 64 + 8 * total
        if aggregate is not None:
            # aggregates reply with the reduced groups, not the vertex set
            reply_bytes = 64 + 16 * max(1, len(aggregate.groups))
        self._stamp_reply(stats, ct.submit_time, reply_bytes, total)
        result = TraversalResult(
            travel_id=ct.travel_id,
            returned={ct.plan.final_level: frozenset(frontier)},
            aggregate=aggregate,
        )
        self._terminate(
            ct,
            "ok",
            TraversalOutcome(
                result=result, stats=stats, plan=ct.plan, executed_plan=None
            ),
            results=total,
            restarts=stats.restarts,
            children=ct.children,
        )

    def _fail_composite(self, ct: CompositeTravel, exc: TraversalError) -> None:
        status = "cancelled" if isinstance(exc, TraversalCancelled) else "failed"
        self._terminate(ct, status, exc, restarts=ct.stats.restarts, reason=str(exc))

    def _stamp_reply(
        self, stats: TraversalStats, submit_time: float, reply_bytes: int, results: int
    ) -> None:
        """Stamp the client-observed elapsed time — coordinator time until
        now plus the GTravel upload hop and a reply of ``reply_bytes`` over
        the client link — and feed the two per-travel histograms."""
        network = self.runtime.network  # type: ignore[attr-defined]
        stats.elapsed = (
            self.ctx.now() - submit_time
            + network.client_latency(512) + network.client_latency(reply_bytes)
        )
        self.metrics.observe(
            "travel.elapsed_seconds", stats.elapsed, engine=self.engine_kind.value
        )
        self.metrics.observe("travel.result_vertices", results)

    def _journal_dispatch(
        self,
        travel_id: TravelId,
        plan: Union[TraversalPlan, CompositePlan],
        attempt: int,
        *,
        submit_time: float,
        child_of: Optional[TravelId] = None,
        planned: Optional[PlannedQuery] = None,
    ) -> None:
        """Append the ``dispatch`` record of one launch (see :meth:`_launch`
        and :meth:`_start_composite`, its only callers)."""
        if self.journal is not None:
            self.journal.append(
                "dispatch",
                tid=travel_id,
                plan=plan,
                attempt=attempt,
                epoch=self.epoch,
                composite=isinstance(plan, CompositePlan),
                child_of=child_of,
                submit_time=submit_time,
                planned=planned,
            )

    def _terminate(
        self,
        travel: Union[ActiveTravel, CompositeTravel],
        status: str,
        resolution,
        **trace_attrs,
    ) -> None:
        """The one terminal sequence of a traversal, linear or composite.
        ``resolution`` is the outcome for ``"ok"``, else the error. The
        listeners run last, after the client's event is settled."""
        travel_id = travel.travel_id
        travel.done = True
        if self.journal is not None:
            self.journal.append("terminal", tid=travel_id, status=status)
        self._active.pop(travel_id, None)
        self._composites.pop(travel_id, None)
        self.registry.unregister(travel_id)
        self.board.pop(travel_id)
        counter, kind = _TERMINAL[status]
        self.metrics.count(counter)
        self.trace.record(
            kind, travel_id=travel_id, server_id=self.ctx.server_id, **trace_attrs
        )
        self.on_complete(travel_id)
        if status == "ok":
            travel.client_event.succeed(resolution)
        else:
            travel.client_event.fail(resolution)
        self.notify_terminal(travel_id, status)

    def notify_terminal(self, travel_id: TravelId, status: str) -> None:
        """Tell every terminal listener, in registration order, that
        ``travel_id`` is over — called by :meth:`_terminate`, and by the
        scheduler for a travel cancelled in its queue, which the coordinator
        never saw."""
        for listener in self.terminal_listeners:
            listener(travel_id, status)

    # -- message handling --------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        msg_epoch = getattr(msg, "epoch", 0)
        if msg_epoch != self.epoch:
            # Epoch fence: a report stamped by (or derived from) a previous
            # coordinator incarnation. Its travel was either restarted under
            # a new attempt or cleaned up during recovery — dropping the
            # message is always safe and never loses information.
            self.metrics.count("coord.fenced")
            self.trace.record(
                "coord.fenced",
                travel_id=msg.travel_id,
                server_id=self.ctx.server_id,
                msg_epoch=msg_epoch,
                epoch=self.epoch,
            )
            return
        at = self._active.get(msg.travel_id)
        if at is None or at.done:
            return
        attempt = getattr(msg, "attempt", 0)
        if attempt != at.entry.attempt:
            return  # stale report from a restarted attempt
        if isinstance(msg, ExecStatus):
            tracker: ExecTracker = at.tracker  # type: ignore[assignment]
            fresh = tracker.on_status(msg, self.ctx.now())
            count_status = self._exec_status.get(msg.server)
            if count_status is None:
                count_status = self._exec_status[msg.server] = self.metrics.counter(
                    "coord.exec_status", server=msg.server
                )
            count_status()
            if self.trace.enabled:
                self.trace.record(
                    "coord.status",
                    travel_id=msg.travel_id,
                    exec_id=msg.exec_id,
                    server_id=msg.server,
                    step=msg.level,
                    attempt=attempt,
                    fresh=fresh,
                    created=len(msg.created),
                    results_sent=msg.results_sent,
                )
            if fresh:
                # Fresh terminations only: duplicate reports from replayed
                # executions must not inflate the executions statistic.
                self.board.execution(msg.travel_id)
                self._journal_progress(at, statuses=1)
            else:
                self.metrics.count("coord.duplicate_status")
            self._check_complete(at)
        elif isinstance(msg, ResultReport):
            self.metrics.count("coord.result_reports")
            self.trace.record(
                "coord.result",
                travel_id=msg.travel_id,
                step=msg.level,
                attempt=attempt,
                vertices=len(msg.vertices),
            )
            at.returned.setdefault(msg.level, set()).update(msg.vertices)
            if msg.groups:
                at.groups.update(msg.groups)
            at.tracker.on_result(self.ctx.now())
            self._journal_progress(at, results=1)
            self._check_complete(at)
        elif isinstance(msg, SyncStepDone):
            self.metrics.count("coord.step_done", server=msg.server)
            self._journal_progress(at, statuses=1)
            self._on_step_done(at, msg)
        else:  # pragma: no cover - protocol misuse guard
            raise TypeError(f"coordinator got unexpected {type(msg).__name__}")

    def _on_step_done(self, at: ActiveTravel, msg: SyncStepDone) -> None:
        barrier: SyncBarrierState = at.tracker  # type: ignore[assignment]
        expected = barrier.on_step_done(
            msg, self.ctx.now(), at.plan.effective_final_level
        )
        if expected is None:
            # a no-op unless that report finished the last level
            self._check_complete(at)
            return
        self.ctx.spawn(
            self._release_step(at, barrier.level, expected),
            name=f"barrier-{at.travel_id}-{barrier.level}",
        )
        self.board.stats(at.travel_id).barrier_rounds += 1
        self.metrics.count("coord.barrier_rounds")

    def _release_step(self, at: ActiveTravel, level: int, expected) -> None:
        """Release the next barrier after the controller's handling time:
        it just received N done-reports and must send N start orders."""
        overhead = 2 * self.ctx.nservers * self.config.control_overhead_per_msg
        if overhead > 0:
            yield self.ctx.sleep(overhead)
        attempt = at.entry.attempt
        if at.done or attempt != at.entry.attempt:
            return
        for server in range(self.ctx.nservers):
            self.trace.record(
                "exec.created",
                travel_id=at.travel_id,
                exec_id=sync_exec_id(attempt, level, server),
                parent_exec_id=None,
                server_id=server,
                step=level,
                attempt=attempt,
                edge="barrier",
            )
            self._send(
                at.travel_id,
                server,
                SyncStartStep(
                    at.travel_id,
                    level=level,
                    expect_batches=expected.get(server, 0),
                    attempt=attempt,
                ),
            )

    # -- completion ------------------------------------------------------------------

    def _check_complete(self, at: ActiveTravel) -> None:
        if at.done or not at.tracker.complete:
            return
        stats = self.board.stats(at.travel_id)
        total_results = sum(len(v) for v in at.returned.values())
        # bulk reply: the whole result set crosses the client link now
        self._stamp_reply(
            stats, at.submit_time, 64 + 8 * total_results, total_results
        )
        # a reversed plan returns levels in its own numbering; map them back
        # to the original chain's levels before the client sees them
        returned: dict[int, set[VertexId]] = at.returned
        if at.planned is not None and at.planned.level_map:
            returned = {}
            for lvl, vids in at.returned.items():
                returned.setdefault(at.planned.map_level(lvl), set()).update(vids)
        aggregate = None
        spec = at.plan.aggregate
        if spec is not None:
            # reduce over the deduplicated final frontier — idempotent under
            # at-least-once report delivery and replayed executions
            final = frozenset(returned.get(at.plan.final_level, set()))
            aggregate = reduce_aggregate(spec, final, at.groups)
        result = TraversalResult(
            travel_id=at.travel_id,
            returned={lvl: frozenset(v) for lvl, v in returned.items()},
            aggregate=aggregate,
        )
        original = at.planned.original if at.planned is not None else at.plan
        executed = at.plan if original is not at.plan else None
        self._terminate(
            at,
            "ok",
            TraversalOutcome(
                result=result, stats=stats, plan=original, executed_plan=executed
            ),
            attempt=at.entry.attempt,
            results=total_results,
            restarts=stats.restarts,
        )

    # -- cancellation (scheduler deadlines / explicit cancel) ---------------------------

    def cancel(self, travel_id: TravelId, reason: str = "cancelled") -> bool:
        """Cleanly cancel a running traversal; True if it was active.

        Unregistering from the travel registry is the whole termination
        protocol: every outstanding execution checks the registry on
        arrival and terminates itself as stale (the same machinery that
        quiesces superseded attempts after a restart), so no per-execution
        kill messages are needed. Coordinator state, engine caches, and
        channel dedup state are all dropped; the client's event fails with
        :class:`~repro.errors.TraversalCancelled`.
        """
        ct = self._composites.get(travel_id)
        if ct is not None:
            return self._cancel_composite(ct, reason)
        at = self._active.get(travel_id)
        if at is None or at.done:
            return False
        self._terminate(
            at,
            "cancelled",
            TraversalCancelled(travel_id, reason),
            attempt=at.entry.attempt,
            reason=reason,
        )
        return True

    def _cancel_composite(self, ct: CompositeTravel, reason: str) -> bool:
        """Cancel a composite: mark it done (the orchestrator checks the
        flag after every resume and exits silently), cancel the in-flight
        child, and fail the client's event."""
        if ct.done:
            return False
        child = ct.current_child
        self._fail_composite(ct, TraversalCancelled(ct.travel_id, reason))
        if child is not None:
            self.cancel(child, reason=f"parent composite {ct.travel_id} cancelled")
        return True

    def inflight_by_server(self) -> dict[ServerId, int]:
        """Outstanding executions per backend server across every active
        traversal — the in-flight skew of the hot-shard report. Async engines
        count tracker-pending executions at their target servers; the sync
        barrier counts one outstanding unit per server still owing its
        step-done report."""
        counts: dict[ServerId, int] = {}
        for at in self._active.values():
            if not at.done:
                for server in at.tracker.owing_servers():
                    counts[server] = counts.get(server, 0) + 1
        return counts

    # -- failure detection and restart (paper §IV-C) ------------------------------------

    def _watchdog(self, at: ActiveTravel):
        restarts = 0
        while not at.done:
            yield self.ctx.sleep(self.config.watch_interval)
            if at.done:
                return
            idle = self.ctx.now() - at.tracker.last_activity
            if idle <= self.config.exec_timeout:
                continue
            self.metrics.count("coord.timeouts")
            if self._replay(at):
                continue
            if restarts >= self.config.max_restarts:
                self._terminate(
                    at,
                    "failed",
                    TraversalFailed(
                        at.travel_id,
                        f"no progress for {idle:.1f}s after {restarts} restarts",
                    ),
                    attempt=at.entry.attempt,
                    restarts=restarts,
                    reason=f"no progress for {idle:.1f}s",
                )
                return
            restarts += 1
            self._restart(at)

    def _replay(self, at: ActiveTravel, server: Optional[ServerId] = None) -> bool:
        """Fine-grained recovery: re-request every lost execution — or only
        those pending on ``server`` — from its creator instead of restarting
        the traversal. Returns False when the policy is off, the travel's
        replay rounds are spent, or the tracker has nothing it can replay
        (the watchdog then falls back to a restart)."""
        if (
            not self.config.fine_grained_recovery
            or at.replay_rounds >= MAX_REPLAY_ROUNDS
        ):
            return False
        lost = at.tracker.replayable(server)
        if not lost:
            return False
        at.replay_rounds += 1
        self.metrics.count("coord.replay_rounds")
        stats = self.board.stats(at.travel_id)
        attempt = at.entry.attempt
        for eid, origin in lost:
            stats.replays += 1
            self.metrics.count("coord.replays")
            self.trace.record(
                "exec.replayed",
                travel_id=at.travel_id,
                exec_id=eid,
                server_id=origin,
                attempt=attempt,
            )
            if origin == COORDINATOR:
                dst, request = at.initial_sent[eid]
                self._send(at.travel_id, dst, request)
            else:
                self._send(
                    at.travel_id,
                    origin,
                    ReplayExec(at.travel_id, exec_id=eid, attempt=attempt),
                )
        at.tracker.last_activity = self.ctx.now()  # give replays time to land
        return True

    def on_suspect(self, server: ServerId) -> None:
        """Crash suspicion from the reliable transport (ack retries
        exhausted against ``server``). Instead of waiting out the watchdog
        timeout, immediately replay the executions pending *on the suspected
        server* from their creators' buffers (paper §IV-C's status trace
        tells us exactly which those are). The barrier has nothing to
        replay; the watchdog restart stays its only recovery.
        """
        self.metrics.count("coord.suspected", server=server)
        for at in list(self._active.values()):
            if not at.done:
                self._replay(at, server)

    def _restart(self, at: ActiveTravel) -> None:
        """Restart the traversal from scratch under a new attempt number."""
        at.returned.clear()
        at.groups.clear()
        at.initial_sent.clear()
        at.replay_rounds = 0
        # the failed attempt's unflushed progress deltas die with it
        at.pend_statuses = 0
        at.pend_results = 0
        self._new_attempt(at, "coord.restarts", "travel.restart")
        self._launch(at)

    def _new_attempt(
        self, at: ActiveTravel, counter: str, kind: str, **trace_attrs
    ) -> None:
        """Bump the attempt — every execution of the old one quiesces as
        stale — count and trace why, and reset the travel's stats board
        (watchdog restart and post-crash resume)."""
        attempt = self.registry.bump_attempt(at.travel_id)
        self.metrics.count(counter)
        self.trace.record(
            kind,
            travel_id=at.travel_id,
            server_id=self.ctx.server_id,
            attempt=attempt,
            **trace_attrs,
        )
        self.board.reset(at.travel_id)
        self.board.stats(at.travel_id).restarts = attempt

    # -- progress (paper §IV-C) -----------------------------------------------------------

    def progress(self, travel_id: TravelId) -> dict[int, int]:
        """Outstanding executions per step (async) or the current barrier
        level (sync), for user-facing progress estimation."""
        ct = self._composites.get(travel_id)
        if ct is not None:
            if ct.current_child is not None:
                return self.progress(ct.current_child)
            return {}
        at = self._active.get(travel_id)
        if at is None:
            return {}
        return at.tracker.progress()

    # -- coordinator crash recovery (DESIGN.md §13) -------------------------------------

    def on_host_crash(self) -> None:
        """The coordinator-hosting server crashed: every piece of in-memory
        travel state is lost. Composite orchestrators parked on a child's
        internal completion event are woken by failing that event (they
        observe ``done`` and exit silently — a real crash would simply have
        killed the process); watchdogs, streamers, and barrier releases exit
        through their ``done`` flags. Client-facing events are *not* failed:
        the recovery supervisor keeps them and resumes or readmits every
        travel under the next epoch.
        """
        self.metrics.count("coord.crash")
        self.trace.record(
            "coord.crash",
            server_id=self.ctx.server_id,
            epoch=self.epoch,
            active=len(self._active),
            composites=len(self._composites),
        )
        for ct in list(self._composites.values()):
            ct.done = True
        for at in list(self._active.values()):
            was_done = at.done
            at.done = True
            if not was_done and at.child_of is not None:
                # internal child event: wake the parked orchestrator
                at.client_event.fail(
                    TraversalFailed(at.travel_id, "coordinator crashed")
                )
        self._active.clear()
        self._composites.clear()

    def begin_epoch(
        self, epoch: int, *, next_travel_id: Optional[int] = None
    ) -> None:
        """Start a new coordinator incarnation during recovery.

        Re-seeds the travel-id allocator past the journal's high-water mark
        (surviving registry entries make reuse an error) and moves the
        exec-id allocator into an epoch-disjoint range so replayed trace
        DAGs never alias executions across incarnations.
        """
        self.epoch = epoch
        if next_travel_id is not None:
            self._travel_ids = itertools.count(max(next_travel_id, 1))
        self._next_exec = itertools.count(
            ((self.ctx.nservers + 1) << 32) + (epoch << 40)
        )
        self.metrics.count("coord.recover")
        self.trace.record(
            "coord.recover", server_id=self.ctx.server_id, epoch=epoch
        )

    def resume(self, travel_id: TravelId, record: dict, client_event: object) -> None:
        """Launch one in-doubt travel of a dead epoch again, from its
        journal ``dispatch`` record, bound to the client's surviving event.

        A linear travel's executed plan lives in the cluster-shared
        registry, which outlives the coordinator; the record adds the
        admission time and the planner's audit trail, so reversed plans
        still map their levels back. It relaunches like a watchdog restart
        under a fresh attempt. A composite restarts its deterministic
        program from the first child (:meth:`orphan` disposes of the dead
        epoch's children), so its result is element-identical.
        """
        submit_time = record["submit_time"]
        if record["composite"]:
            ct = self._start_composite(
                travel_id, record["plan"], client_event, submit_time
            )
            ct.stats.restarts += 1
            self.metrics.count("coord.resumed")
            self.trace.record(
                "coord.replay",
                travel_id=travel_id,
                server_id=self.ctx.server_id,
                epoch=self.epoch,
                composite=True,
            )
            return
        at = ActiveTravel(
            travel_id=travel_id,
            entry=self.registry.get(travel_id),
            submit_time=submit_time,
            client_event=client_event,
            planned=record["planned"],
        )
        at.entry.epoch = self.epoch
        self._new_attempt(at, "coord.resumed", "coord.replay", epoch=self.epoch)
        self._start(at)

    def orphan(self, travel_id: TravelId) -> None:
        """Dispose of a dead epoch's composite child (its parent restarts
        from scratch): journal its ``orphaned`` terminal, then drop its
        registry, board, engine and channel state. Its stale in-flight
        executions quiesce through the registry check as usual."""
        self.journal.append("terminal", tid=travel_id, status="orphaned")
        self.registry.unregister(travel_id)
        self.board.pop(travel_id)
        self.on_complete(travel_id)

    # -- plumbing -----------------------------------------------------------------------------

    def _journal_progress(
        self, at: ActiveTravel, *, statuses: int = 0, results: int = 0
    ) -> None:
        """Batch per-travel progress deltas into one journal record per ~32
        fresh reports — the journal stays an audit of forward progress
        without paying a durable append per status message."""
        if self.journal is None:
            return
        at.pend_statuses += statuses
        at.pend_results += results
        if at.pend_statuses + at.pend_results >= 32:
            self.journal.append(
                "progress",
                tid=at.travel_id,
                statuses=at.pend_statuses,
                results=at.pend_results,
            )
            at.pend_statuses = 0
            at.pend_results = 0

    def _send(self, travel_id: TravelId, dst: ServerId, msg: Message) -> None:
        msg.epoch = self.epoch
        self.board.message(travel_id, msg.nbytes)
        self.ctx.send(dst, msg)


def _merge_child_stats(agg: TraversalStats, child: TraversalStats) -> None:
    """Fold one child traversal's counters into the composite's totals.

    ``elapsed`` is deliberately untouched — the composite stamps its own
    end-to-end elapsed time; summing per-child elapsed would double-count
    the client hops each child's completion charged.
    """
    for f in fields(child):
        value = getattr(child, f.name)
        if isinstance(value, int):
            setattr(agg, f.name, getattr(agg, f.name) + value)
    for server, counts in child.per_server.items():
        bucket = agg.per_server.setdefault(server, {})
        for kind, n in counts.items():
            bucket[kind] = bucket.get(kind, 0) + n
