"""Coordinator crash recovery: the supervisor that turns a durable journal
into a running coordinator again.

The paper's fault story covers backend servers (RocksDB on GPFS survives
them) but treats the coordinator as always-up. This module closes that gap
for the control plane (DESIGN.md §13): the :class:`RecoverySupervisor`
models the part of the deployment that *survives* a coordinator crash — the
client session table and the GPFS-backed journal — and drives recovery when
the coordinator's host comes back:

1. replay the journal (:class:`~repro.cluster.journal.TraversalJournal`)
   into the reduced queued/running/terminal state;
2. start the next coordinator **epoch** (journaled first, so a second crash
   during recovery still fences the first epoch's traffic);
3. dispose of pre-crash composite children (their parents restart the
   composite program from scratch);
4. resume every in-doubt running traversal through the PR-2 fine-grained
   replay path, re-binding the surviving client completion event;
5. readmit journaled-but-never-launched traversals into the scheduler in
   their original admission order, with deadlines re-armed on remaining
   time;
6. fail the completion event of anything the journal says was alive but
   cannot be restored — the client sees an explicit
   :class:`~repro.errors.TraversalFailed`, never a hang.

Idempotent resubmission falls out of this design: a submission is
acknowledged only after its ``admit`` record is durable, so a client that
saw the acknowledgement never needs to resubmit (the travel is either
restored or explicitly failed), and one that did not can resubmit without
double-running anything — the lost attempt left no durable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import TraversalFailed
from repro.ids import ServerId, TravelId


@dataclass
class ClientBinding:
    """One live submission's client-side state (survives coordinator loss)."""

    client_event: Any
    tenant: str = "default"
    priority: Optional[int] = None
    deadline_abs: Optional[float] = None
    admit_time: float = 0.0


class RecoverySupervisor:
    """Crash/recovery listener pair for the coordinator's host.

    Holds the travel-id → client-event bindings (the in-process stand-in
    for client sessions that outlive the coordinator process) and rebuilds
    coordinator + scheduler state from the journal when the host recovers.
    """

    def __init__(
        self, runtime, coordinator, scheduler, journal, migrator, channel=None
    ):
        self.coordinator = coordinator
        self.scheduler = scheduler
        self.journal = journal
        self.channel = channel
        self.migrator = migrator
        self.metrics = coordinator.metrics
        self.trace = coordinator.trace
        self._bindings: dict[TravelId, ClientBinding] = {}
        self._host = runtime.coordinator_server
        runtime.add_crash_listener(self.on_server_crash)
        runtime.add_recovery_listener(self.on_server_recover)

    # -- client bookkeeping --------------------------------------------------

    def note_submission(
        self,
        travel_id: TravelId,
        client_event: Any,
        *,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline_abs: Optional[float] = None,
        admit_time: float = 0.0,
    ) -> None:
        """Record a live submission's client binding (called by
        ``Cluster.submit`` once the scheduler acknowledged admission)."""
        self._bindings[travel_id] = ClientBinding(
            client_event=client_event,
            tenant=tenant,
            priority=priority,
            deadline_abs=deadline_abs,
            admit_time=admit_time,
        )

    def drop_binding(self, travel_id: TravelId, status: str) -> None:
        """Terminal listener: the binding table tracks live travels only."""
        self._bindings.pop(travel_id, None)

    @property
    def live_bindings(self) -> int:
        return len(self._bindings)

    # -- crash side ----------------------------------------------------------

    def on_server_crash(self, server: ServerId) -> None:
        if server != self._host:
            return
        self.coordinator.on_host_crash()
        self.scheduler.on_host_crash()
        if self.channel is not None:
            self.channel.on_coordinator_crash()
        self.migrator.on_coordinator_crash()

    # -- recovery side -------------------------------------------------------

    def on_server_recover(self, server: ServerId) -> None:
        if server != self._host:
            return
        state = self.journal.replay()
        epoch = state.epoch + 1
        # journal the epoch bump BEFORE resuming anything: a second crash
        # mid-recovery must still see (and fence against) this epoch
        self.journal.append("epoch", epoch=epoch)
        self.coordinator.begin_epoch(epoch, next_travel_id=state.next_travel_id)
        if self.channel is not None:
            self.channel.coordinator_epoch = epoch
            # reset coordinator-destined connections a second time: senders
            # kept queueing dead-epoch frames while the host was down, and
            # the fence will never ack them
            self.channel.on_coordinator_crash()

        # re-establish shard ownership BEFORE any traversal resumes: every
        # resumed dispatch routes through the rebuilt table, so committed
        # cutovers stay committed and half-done migrations roll back first
        self.migrator.recover(dict(state.migrations))

        # pre-crash composite children are not resumed: the parent restarts
        # its (deterministic) program from scratch, so dispose of them and
        # let their stale in-flight executions quiesce via attempt/epoch
        restored: set[TravelId] = set()
        for tid in sorted(state.running):
            record = state.running[tid]
            if record.get("child_of") is not None:
                self.coordinator.cleanup_travel(tid)
                self.journal.append("terminal", tid=tid, status="orphaned")
                restored.add(tid)

        # resume in-doubt running travels (launch order = travel-id order)
        for tid in sorted(state.running):
            record = state.running[tid]
            if tid in restored:
                continue
            binding = self._bindings.get(tid)
            if binding is None or binding.client_event.triggered:
                # no live client waits on this travel; drop it cleanly
                self.coordinator.cleanup_travel(tid)
                self.journal.append("terminal", tid=tid, status="orphaned")
                restored.add(tid)
                continue
            if record.get("composite"):
                self.coordinator.resume_composite(
                    tid,
                    record["plan"],
                    client_event=binding.client_event,
                    submit_time=record["submit_time"],
                )
                ok = True
            else:
                ok = self.coordinator.resume_travel(
                    tid,
                    client_event=binding.client_event,
                    submit_time=record["submit_time"],
                    planned=record.get("planned"),
                )
            if ok:
                self.scheduler.restore_inflight(
                    tid,
                    record["plan"],
                    client_event=binding.client_event,
                    tenant=binding.tenant,
                    priority=binding.priority,
                    deadline_abs=binding.deadline_abs,
                    admit_time=binding.admit_time,
                )
            else:
                self.journal.append("terminal", tid=tid, status="failed")
                self._lose(tid, "unrecoverable after coordinator crash")
            restored.add(tid)

        # readmit never-launched travels in original admission order
        for tid in sorted(
            state.queued, key=lambda t: state.queued[t].get("seq", t)
        ):
            record = state.queued[tid]
            binding = self._bindings.get(tid)
            if binding is None or binding.client_event.triggered:
                self.journal.append("terminal", tid=tid, status="orphaned")
                continue
            self.scheduler.readmit(
                tid,
                record["plan"],
                client_event=binding.client_event,
                tenant=record.get("tenant", binding.tenant),
                priority=record.get("priority", binding.priority),
                deadline_abs=record.get("deadline", binding.deadline_abs),
                admit_time=record.get("admit_time", binding.admit_time),
            )
            restored.add(tid)

        # anything the client still waits on that the journal does not know
        # died before its admit record became durable: fail it explicitly
        for tid in sorted(self._bindings):
            if tid in restored:
                continue
            if not self._bindings[tid].client_event.triggered:
                self._lose(tid, "lost in coordinator crash")

    def _lose(self, tid: TravelId, reason: str) -> None:
        """Fail a live client's event explicitly — never a hang — and forget
        the binding."""
        self.metrics.count("coord.lost")
        self._bindings.pop(tid).client_event.fail(TraversalFailed(tid, reason))
