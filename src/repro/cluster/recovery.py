"""Coordinator crash recovery: the supervisor that turns a durable journal
into a running coordinator again.

The paper's fault story covers backend servers (RocksDB on GPFS survives
them) but treats the coordinator as always-up. This module closes that gap
for the control plane (DESIGN.md §13). The :class:`RecoverySupervisor`
models what *survives* a coordinator crash — the client sessions and the
journal — and drives recovery when the coordinator's host comes back:

1. replay the journal (:class:`~repro.cluster.journal.TraversalJournal`)
   into the reduced queued/running/terminal state;
2. start the next coordinator **epoch** (journaled first, so a second crash
   during recovery still fences the first epoch's traffic);
3. roll shard migrations forward or back;
4. orphan the dead epoch's composite children (their parents restart the
   composite program from scratch);
5. resume every in-doubt running travel, in travel-id order, through the
   coordinator's live launch sequence;
6. readmit journaled-but-never-launched travels into the scheduler in
   their original admission order, deadlines re-armed on remaining time.

A client session is the scheduler's own
:class:`~repro.sched.scheduler.QueuedTravel` entry — completion event and
QoS in one object — kept here from acknowledgement to terminal. A
submission is acknowledged only after its ``admit`` record is durable and
every terminal is journaled before its event settles, so the journal and
the sessions always name the same live travels.
"""

from __future__ import annotations

from repro.ids import ServerId, TravelId
from repro.sched.scheduler import QueuedTravel


class RecoverySupervisor:
    """Crash/recovery listener pair for the coordinator's host."""

    def __init__(
        self, runtime, coordinator, scheduler, journal, migrator, channel=None
    ):
        self.coordinator = coordinator
        self.scheduler = scheduler
        self.journal = journal
        self.channel = channel
        self.migrator = migrator
        #: travel id -> the scheduler's entry of every acknowledged,
        #: not yet terminal submission (the client sessions)
        self.sessions: dict[TravelId, QueuedTravel] = {}
        self._host = runtime.coordinator_server
        runtime.add_crash_listener(self.on_server_crash)
        runtime.add_recovery_listener(self.on_server_recover)

    # -- client sessions -----------------------------------------------------

    def note_submission(self, entry: QueuedTravel) -> None:
        """Keep an acknowledged submission's entry (``Cluster.submit``)."""
        self.sessions[entry.travel_id] = entry

    def drop_session(self, travel_id: TravelId, status: str) -> None:
        """Terminal listener: the session table tracks live travels only."""
        self.sessions.pop(travel_id, None)

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

        # every child first, then every parent and linear travel: the
        # children's terminals precede the parents' new dispatch records
        running = sorted(state.running.items())
        for tid, record in running:
            if record["child_of"] is not None:
                self.coordinator.orphan(tid)
        for tid, record in running:
            if record["child_of"] is None:
                entry = self.sessions[tid]
                self.coordinator.resume(tid, record, entry.client_event)
                self.scheduler.restore(entry, running=True)

        for tid in sorted(state.queued, key=lambda t: state.queued[t]["seq"]):
            self.scheduler.restore(self.sessions[tid], running=False)
