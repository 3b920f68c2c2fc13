"""The multi-traversal scheduler: admission control, fair queueing and
deadline cancellation.

Sits between ``Client.submit`` and the coordinator (paper §I motivates this
layer: "interferences among traversals easily create stragglers" in an
online metadata store). Every submission is *admitted* into a bounded
pending queue — or rejected with :class:`~repro.errors.AdmissionRejected`
when the queue is full — and *launched* into the coordinator in policy-key
order:

* ``max_inflight`` caps concurrently running traversals;
* a per-submission deadline cancels a traversal wherever it is — still
  queued, or mid-run via
  :meth:`~repro.cluster.coordinator.Coordinator.cancel`, which quiesces
  outstanding executions through the stale-attempt machinery.

Determinism: on the simulated runtime every decision is a pure function of
(submission order, policy state, virtual clock), so ``sched.*`` metrics and
trace events of a seeded workload are byte-identical across runs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.errors import AdmissionRejected, TraversalCancelled
from repro.ids import TravelId
from repro.lang.plan import TraversalPlan
from repro.sched.policy import SchedPolicy, make_policy


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission and fairness knobs.

    The default configuration is *transparent*: no pending bound, no
    in-flight cap, no deadline — every submission launches synchronously
    inside ``submit`` and the cluster behaves exactly as it did without a
    scheduler.
    """

    #: bounded admission queue; ``None`` = unbounded (never reject)
    max_pending: Optional[int] = None
    #: concurrently *running* traversal cap; ``None`` = unbounded
    max_inflight: Optional[int] = None
    #: WFQ tenant weights (unlisted tenants weigh 1.0)
    tenant_weights: Mapping[str, float] = field(default_factory=dict)


@dataclass
class QueuedTravel:
    """One admitted traversal (or plan-less job), queued or in flight."""

    travel_id: TravelId
    #: ``None`` for jobs — non-traversal work admitted via ``submit_job``
    plan: Optional[TraversalPlan]
    tenant: str
    priority: Optional[int]
    client_event: Any
    admit_time: float
    seq: int
    key: tuple = ()
    deadline: Optional[float] = None
    #: WFQ start tag (set by the policy at admission)
    vft_start: float = 0.0
    state: str = "queued"  # queued | running | done | cancelled
    #: job entries: zero-arg callable returning the generator to run
    job: Optional[Callable[[], Any]] = None


class TraversalScheduler:
    """Deterministic admission + launch control in front of one coordinator."""

    def __init__(
        self,
        runtime,
        coordinator,
        policy: SchedPolicy,
        on_reject: Callable[[str, float], None],
        config: Optional[SchedulerConfig] = None,
    ):
        self.runtime = runtime
        self.coordinator = coordinator
        self.policy = policy
        self.config = config or SchedulerConfig()
        self.metrics = coordinator.metrics
        self.trace = coordinator.trace
        self.journal = coordinator.journal
        self._ctx = coordinator.ctx
        self._seq = itertools.count()
        self._heap: list[tuple[tuple, int, TravelId]] = []
        self._queued: dict[TravelId, QueuedTravel] = {}
        self._inflight: dict[TravelId, QueuedTravel] = {}
        self._pumping = False
        self._repump = False
        #: SLO feed: ``fn(tenant, now)`` for every refused submission
        self.on_reject = on_reject

    @classmethod
    def for_cluster(
        cls, runtime, coordinator, scheduler_name: str,
        on_reject: Callable[[str, float], None],
        config: Optional[SchedulerConfig] = None,
    ) -> "TraversalScheduler":
        config = config or SchedulerConfig()
        policy = make_policy(scheduler_name, dict(config.tenant_weights))
        return cls(runtime, coordinator, policy, on_reject, config)

    # -- introspection (collectors must SET gauges from these) --------------

    @property
    def queue_depth(self) -> int:
        return len(self._queued)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def entry_for(self, travel_id: TravelId) -> Optional[QueuedTravel]:
        """The queued or in-flight entry for ``travel_id`` (None once
        terminal)."""
        return self._queued.get(travel_id) or self._inflight.get(travel_id)

    # -- submission ---------------------------------------------------------

    def _count_rejection(self, tenant: str, now: float) -> None:
        self.metrics.count("sched.rejected", tenant=tenant)
        self.on_reject(tenant, now)

    def submit(
        self,
        plan: TraversalPlan,
        *,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        """Admit one traversal; returns ``(travel_id, completion event)``.

        Raises :class:`~repro.errors.AdmissionRejected` when the pending
        queue is at ``max_pending`` — before a travel id is allocated, so a
        rejected submission leaves no state anywhere.
        """
        now = self._ctx.now()
        cfg = self.config
        if self.runtime.is_down(self.runtime.coordinator_server):
            self._count_rejection(tenant, now)
            raise AdmissionRejected(tenant, "coordinator host is down")
        if cfg.max_pending is not None and len(self._queued) >= cfg.max_pending:
            self._count_rejection(tenant, now)
            self.trace.record(
                "sched.reject", server_id=self._ctx.server_id,
                tenant=tenant, pending=len(self._queued),
            )
            raise AdmissionRejected(
                tenant, f"pending queue full ({cfg.max_pending} traversals)"
            )
        travel_id = self.coordinator.allocate_travel_id()
        event = self.runtime.completion_event()
        entry = QueuedTravel(
            travel_id=travel_id,
            plan=plan,
            tenant=tenant,
            priority=priority,
            client_event=event,
            admit_time=now,
            seq=next(self._seq),
        )
        if deadline is not None:
            entry.deadline = now + deadline
            self._arm_deadline(travel_id, deadline)
        if self.journal is not None:
            self.journal.append("admit", tid=travel_id, seq=entry.seq)
        self._note_submitted(entry)
        self._enqueue(entry)
        return travel_id, event

    def submit_job(
        self,
        job: Callable[[], Any],
        *,
        tenant: str = "rebalance",
        priority: Optional[int] = None,
    ):
        """Admit a plan-less *job* — a zero-arg callable returning a
        generator to run on the coordinator context. Jobs flow through the
        same policy key, launch-order heap and in-flight cap as
        traversals, which is exactly the point:
        shard-migration copy traffic submits here as a low-priority tenant
        so bulk data movement queues behind interactive traversals.

        Returns ``(job_id, completion event)``; the event succeeds with
        ``True`` or fails with whatever the generator raised. Jobs are not
        journaled (a migration journals its own phase records) and bypass
        ``max_pending`` — callers submit serially, one chunk at a time.
        """
        now = self._ctx.now()
        job_id = self.coordinator.allocate_travel_id()
        event = self.runtime.completion_event()
        entry = QueuedTravel(
            travel_id=job_id,
            plan=None,
            tenant=tenant,
            priority=priority,
            client_event=event,
            admit_time=now,
            seq=next(self._seq),
            job=job,
        )
        self._note_submitted(entry)
        self._enqueue(entry)
        return job_id, event

    def _note_submitted(self, entry: QueuedTravel) -> None:
        """Count and trace a fresh admission (a post-crash readmission is
        not one: :meth:`restore` only counts ``sched.readmitted``)."""
        self.metrics.count("sched.submitted", tenant=entry.tenant)
        self.trace.record(
            "sched.submit",
            travel_id=entry.travel_id,
            server_id=self._ctx.server_id,
            tenant=entry.tenant,
            policy=self.policy.name,
            steps=entry.plan.final_level if entry.plan is not None else 0,
        )

    def _enqueue(self, entry: QueuedTravel) -> None:
        """The one admission: key the entry under the policy, queue it, and
        pump — which may launch it before this returns."""
        entry.key = self.policy.key(entry)
        self._queued[entry.travel_id] = entry
        heapq.heappush(self._heap, (entry.key, entry.seq, entry.travel_id))
        self._pump()

    def _arm_deadline(self, travel_id: TravelId, delay: float) -> None:
        """Cancel ``travel_id`` wherever it is ``delay`` seconds from now.
        The caller passes the delay it derived the absolute deadline from
        (or the time remaining after a crash): re-deriving it here as
        ``deadline - now`` would move the timer by an ulp."""
        self.runtime.schedule(delay, lambda: self._deadline_fire(travel_id))

    # -- cancellation -------------------------------------------------------

    def cancel(self, travel_id: TravelId, reason: str = "cancelled") -> bool:
        """Cancel a queued or running traversal; True if anything happened.

        A queued traversal is removed and its event failed with
        :class:`~repro.errors.TraversalCancelled`; a running one is handed
        to :meth:`Coordinator.cancel`, which unregisters it so outstanding
        executions terminate as stale, then fails the event.
        """
        entry = self._queued.pop(travel_id, None)
        if entry is not None:
            self._cancel_queued(entry, reason)
            self._pump()
            return True
        if travel_id in self._inflight:
            return self.coordinator.cancel(travel_id, reason)
        return False

    def _cancel_queued(self, entry: QueuedTravel, reason: str) -> None:
        """The terminal sequence of a travel that never launched (cancelled
        in the queue, or found expired at readmission): count, trace,
        journal, fail the client's event, then tell the coordinator's
        terminal listeners, which never saw this travel run."""
        travel_id, tenant = entry.travel_id, entry.tenant
        entry.state = "cancelled"
        self.metrics.count("sched.cancelled", tenant=tenant, where="queued")
        self.trace.record(
            "sched.cancel",
            travel_id=travel_id,
            server_id=self._ctx.server_id,
            tenant=tenant,
            where="queued",
            reason=reason,
        )
        if self.journal is not None:
            self.journal.append("terminal", tid=travel_id, status="cancelled")
        entry.client_event.fail(TraversalCancelled(travel_id, reason))
        self.coordinator.notify_terminal(travel_id, "cancelled")

    def _deadline_fire(self, travel_id: TravelId) -> None:
        entry = self._queued.get(travel_id) or self._inflight.get(travel_id)
        if entry is None or entry.state in ("done", "cancelled"):
            return
        self.cancel(travel_id, reason="deadline exceeded")

    def on_travel_terminal(self, travel_id: TravelId, status: str) -> None:
        """Terminal listener: a launched traversal reached a terminal state
        (``ok`` / ``failed`` / ``cancelled``). A travel cancelled in the
        queue is not in flight, so its notification is a no-op here."""
        entry = self._inflight.pop(travel_id, None)
        if entry is None:
            return
        entry.state = "cancelled" if status == "cancelled" else "done"
        if status == "cancelled":
            self.metrics.count(
                "sched.cancelled", tenant=entry.tenant, where="running"
            )
            self.trace.record(
                "sched.cancel",
                travel_id=travel_id,
                server_id=self._ctx.server_id,
                tenant=entry.tenant,
                where="running",
                reason=status,
            )
        self._pump()

    # -- the pump -----------------------------------------------------------

    def _pump(self) -> None:
        """Launch queued traversals until a limit blocks or the queue drains.

        Re-entrant-safe: a launch can complete synchronously (zero-source
        traversals resolve inside ``Coordinator.submit``) and re-enter via
        ``on_travel_terminal``; the guard flag folds that into the loop.
        """
        if self._pumping:
            self._repump = True
            return
        self._pumping = True
        try:
            while True:
                self._repump = False
                launched = self._launch_next()
                if not launched and not self._repump:
                    break
        finally:
            self._pumping = False

    def _launch_next(self) -> bool:
        if not self._queued:
            return False
        cfg = self.config
        if (
            cfg.max_inflight is not None
            and len(self._inflight) >= cfg.max_inflight
        ):
            return False  # a completion will pump again
        self._launch(self._pop_eligible())
        return True

    def _pop_eligible(self) -> QueuedTravel:
        """The smallest-key queued entry, dropping the stale heap slots of
        entries cancelled while queued. Call only while ``_queued`` is
        non-empty: every queued entry has a live heap slot."""
        while True:
            entry = self._queued.pop(heapq.heappop(self._heap)[2], None)
            if entry is not None:
                return entry

    def _launch(self, entry: QueuedTravel) -> None:
        now = self._ctx.now()
        entry.state = "running"
        self.policy.on_launch(entry)
        self._inflight[entry.travel_id] = entry
        wait = now - entry.admit_time
        self.metrics.count("sched.launched", tenant=entry.tenant)
        self.metrics.observe("sched.wait_seconds", wait, tenant=entry.tenant)
        self.trace.record(
            "sched.launch",
            travel_id=entry.travel_id,
            server_id=self._ctx.server_id,
            tenant=entry.tenant,
            wait=wait,
        )
        if entry.job is not None:
            self._ctx.spawn(
                self._run_job(entry), name=f"job-{entry.travel_id}"
            )
            return
        self.coordinator.submit(
            entry.plan,
            travel_id=entry.travel_id,
            client_event=entry.client_event,
            submit_time=entry.admit_time,
        )

    def _run_job(self, entry: QueuedTravel):
        """Run a job entry's generator on the coordinator context and settle
        its completion event."""
        failure: Optional[Exception] = None
        try:
            yield from entry.job()
        except Exception as exc:  # noqa: BLE001 - job outcome, reported below
            failure = exc
        if entry.travel_id not in self._inflight:
            return  # crashed / cancelled while running; events re-settled elsewhere
        self.on_travel_terminal(
            entry.travel_id, "failed" if failure is not None else "ok"
        )
        if not entry.client_event.triggered:
            if failure is not None:
                entry.client_event.fail(failure)
            else:
                entry.client_event.succeed(True)

    # -- coordinator crash recovery (DESIGN.md §13) -------------------------

    def on_host_crash(self) -> None:
        """The coordinator's host crashed: drop all scheduler state.

        Client completion events are *not* failed here: the recovery
        supervisor keeps every travel's entry and hands it back through
        :meth:`restore`.
        """
        self._queued.clear()
        self._heap.clear()
        self._inflight.clear()
        self._pumping = False
        self._repump = False

    def restore(self, entry: QueuedTravel, *, running: bool) -> None:
        """Re-track one travel's surviving entry after a coordinator crash,
        QoS intact: a travel the recovered coordinator resumed goes back in
        flight, a never-launched one is readmitted into the queue.

        Call running travels first, then queued ones in original admission
        (``seq``) order, so fresh sequence numbers reproduce the pre-crash
        queue order. A queued travel whose deadline already passed is
        cancelled instead; a resumed one's expired deadline fires on the
        next tick, after it is fully re-dispatched, and cancels it mid-run.
        """
        now = self._ctx.now()
        deadline = entry.deadline
        if not running and deadline is not None and deadline <= now:
            self._cancel_queued(entry, "deadline exceeded")
            return
        entry.seq = next(self._seq)
        if deadline is not None:
            self._arm_deadline(entry.travel_id, max(deadline - now, 1e-9))
        if running:
            self._inflight[entry.travel_id] = entry
        else:
            self.metrics.count("sched.readmitted", tenant=entry.tenant)
            self._enqueue(entry)

    # -- draining (tests / shutdown hygiene) --------------------------------

    def drain_queued(self, reason: str = "shutdown") -> int:
        """Cancel everything still queued; returns how many were dropped."""
        dropped = 0
        for travel_id in sorted(self._queued):
            if self.cancel(travel_id, reason=reason):
                dropped += 1
        return dropped
