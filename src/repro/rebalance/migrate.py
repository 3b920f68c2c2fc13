"""The shard migrator: move a vertex set between servers under live traffic.

One migration runs as a coordinator-hosted process through four phases,
each journaled *before* its side effects (the same WAL discipline as the
traversal journal, so a coordinator crash recovers to a consistent
ownership epoch):

``copy``     the vertex set's LSM entries (attributes, edges, the
             ``~label`` reverse-adjacency region) are exported in chunks
             and shipped source → target as :class:`MigrateChunk`
             messages. Each chunk transfer is submitted through the
             admission scheduler as a low-priority tenant job, so copy
             traffic queues behind interactive traversals under every
             policy. Imports are idempotent (deduped by
             ``(mid, seq)``), acks are resent-safe, and unacked chunks
             are re-sent a bounded number of times before the migration
             aborts.

``dual``     the double-routing window: the routing table maps the set to
             *both* owners. The source stays primary (mid-traversal
             forwards keep landing where the data has always been) while
             the coordinator dispatches level-0 work to both sides; the
             coordinator's set-union result merge dedupes for free.

``cutover``  one atomic, versioned routing-table flip to the target. The
             journal record lands first, so a crash after the append but
             before the flip still recovers as committed.

``drop``     the source copy is dropped only after every traversal that
             was active at cutover has drained (those are the only ones
             that can still hold source-routed dispatches or replays),
             then the migration journals ``done``.

Any failure before cutover aborts: the dual window (if open) closes, the
target's partial copy is dropped, and routing is exactly what it was —
no vertex lost, none owned twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import RebalanceError
from repro.ids import ServerId, TravelId, VertexId
from repro.net.message import MigrateAck, MigrateChunk
from repro.rebalance.routing import RoutingTable

#: migration ids live in their own space, far above travel and exec ids,
#: so the reliable channel / fault injector can key per-travel state on them
#: without ever colliding with a traversal
MIGRATION_ID_BASE = 1 << 48

#: poll intervals (virtual seconds) while a chunk job waits for its ack, and
#: while a cutover drains the travels that were active when it committed
ACK_POLL = 0.002
DRAIN_POLL = 0.005
#: per-chunk ack timeout (virtual seconds) before a resend
ACK_TIMEOUT = 0.25
#: resends per chunk before the migration aborts
MAX_RESENDS = 8
#: safety valve: drop the source copy after this long (virtual seconds)
#: even if a traversal from before cutover is still running
DRAIN_TIMEOUT = 60.0
#: tenant the chunk-copy jobs are attributed to; give it a small WFQ weight
#: (or rely on FIFO arrival order) so migration traffic cannot starve
#: interactive QoS classes
TENANT = "rebalance"
#: priority class for the chunk jobs under the priority policy (large =
#: launches after every interactive class)
PRIORITY = 1 << 20


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs for one cluster's migrations."""

    #: vertices per MigrateChunk (each chunk is one scheduler job)
    chunk_vertices: int = 8
    #: how long the double-routing window stays open before cutover
    dual_window: float = 0.02


@dataclass
class MigrationState:
    """One migration's live state (and, once terminal, its record)."""

    mid: int
    src: ServerId
    dst: ServerId
    vids: tuple[VertexId, ...]
    phase: str = "copy"  # copy | dual | cutover | done | aborted
    #: routing-table version when the migration was admitted; chunk
    #: messages carry it and the import path fences mismatches
    routing_version: int = 0
    started: float = 0.0
    finished: Optional[float] = None
    bytes_moved: int = 0
    chunks_applied: int = 0
    resends: int = 0
    #: False when the drain safety valve fired before the source drop
    drained: bool = True
    abort_reason: Optional[str] = None
    #: set when the coordinator host crashed mid-migration; the journal
    #: decides the outcome during recovery
    crashed: bool = False
    event: Optional[object] = field(default=None, repr=False)

    def payload(self) -> dict:
        return {
            "mid": self.mid,
            "src": self.src,
            "dst": self.dst,
            "vertices": len(self.vids),
            "phase": self.phase,
            "routing_version": self.routing_version,
            "bytes_moved": self.bytes_moved,
            "chunks_applied": self.chunks_applied,
            "resends": self.resends,
            "drained": self.drained,
            "abort_reason": self.abort_reason,
        }


class ShardMigrator:
    """Executes migrations on a cluster; one instance per cluster.

    All migration wire traffic (:class:`MigrateChunk` / :class:`MigrateAck`)
    is routed here by the per-server handler wrapper that
    ``Cluster.build`` installs, so the engines never see a message type
    they would reject.
    """

    def __init__(
        self,
        runtime,
        routing: RoutingTable,
        servers: list,
        scheduler,
        coordinator,
        board,
        config: Optional[MigrationConfig] = None,
        *,
        forget: Callable[[TravelId], None],
        journal=None,
        host: ServerId = 0,
    ):
        self.runtime = runtime
        self.routing = routing
        self.servers = servers
        self.scheduler = scheduler
        self.coordinator = coordinator
        self.board = board
        self.metrics = board.obs.metrics
        self.trace = board.obs.trace
        self.config = config or MigrationConfig()
        self.journal = journal
        self.forget = forget
        self.host = host
        self.ctx = coordinator.ctx
        self.active: dict[int, MigrationState] = {}
        self.history: list[MigrationState] = []
        self._mid_seq = itertools.count(1)
        #: target-side idempotent-apply set: (mid, seq) chunks applied
        self._applied: set[tuple[int, int]] = set()
        #: vertices each in-flight migration has landed on its target so
        #: far (what an abort must clean up)
        self._applied_vids: dict[int, set[VertexId]] = {}
        #: source-side ack set the chunk jobs poll
        self._acked: set[tuple[int, int]] = set()

    # -- wire entry point (called by the server handler wrappers) -----------

    def on_message(self, server_id: ServerId, msg) -> None:
        if isinstance(msg, MigrateChunk):
            self._on_chunk(server_id, msg)
        elif isinstance(msg, MigrateAck):
            # fence late acks: a duplicated/delayed ack for a migration that
            # already finished (or died with the coordinator) must not park
            # state in the ack set forever
            state = self.active.get(msg.mid)
            if state is not None and not state.crashed:
                self._acked.add((msg.mid, msg.seq))
        else:  # pragma: no cover - protocol misuse guard
            raise TypeError(f"migrator got unexpected {type(msg).__name__}")

    def _on_chunk(self, server_id: ServerId, msg: MigrateChunk) -> None:
        key = (msg.mid, msg.seq)
        if key in self._applied:
            # duplicate of an applied chunk (resend / at-least-once
            # delivery): re-ack without touching the store
            self._ack(server_id, msg)
            return
        state = self.active.get(msg.mid)
        if (
            state is None
            or state.crashed
            or state.phase != "copy"
            or msg.routing_version != state.routing_version
            or server_id != state.dst
        ):
            # stale-version / superseded-migration fencing: never applied,
            # never acked — the sender's resend loop times out instead
            self.metrics.count("rebalance.fenced", server=server_id)
            return
        self.servers[server_id].store.import_vertices(msg.pairs, msg.meta)
        self._applied.add(key)
        self._applied_vids.setdefault(msg.mid, set()).update(
            vid for vid, _ in msg.meta
        )
        state.bytes_moved += msg.nbytes
        state.chunks_applied += 1
        self.metrics.count("rebalance.chunks_applied", server=server_id)
        self.metrics.count("rebalance.bytes_moved", n=msg.nbytes)
        self.metrics.count("rebalance.vertices_moved", n=len(msg.meta))
        self.trace.record(
            "rebalance.chunk",
            travel_id=msg.mid,
            server_id=server_id,
            seq=msg.seq,
            nbytes=msg.nbytes,
            vertices=len(msg.meta),
        )
        self._ack(server_id, msg)

    def _ack(self, server_id: ServerId, msg: MigrateChunk) -> None:
        self.servers[server_id].ctx.send(
            self.host,
            MigrateAck(msg.mid, mid=msg.mid, seq=msg.seq, server=server_id),
        )

    # -- admission ----------------------------------------------------------

    def migrate(
        self,
        src: ServerId,
        dst: ServerId,
        *,
        vids=None,
        key_range: Optional[tuple[VertexId, VertexId]] = None,
    ):
        """Start migrating ``vids`` (or the ``[lo, hi)`` ``key_range`` of
        the source's vertices) from ``src`` to ``dst``. Returns
        ``(mid, completion event)``; the event resolves with the terminal
        :class:`MigrationState` (phase ``done`` or ``aborted`` — aborts are
        a clean outcome, not an exception). Raises
        :class:`~repro.errors.RebalanceError` on an invalid request."""
        nservers = len(self.servers)
        if not 0 <= src < nservers or not 0 <= dst < nservers:
            raise RebalanceError(f"server out of range: src={src} dst={dst}")
        if src == dst:
            raise RebalanceError(f"source and target are both server {src}")
        if vids is None:
            if key_range is None:
                raise RebalanceError("migrate() needs vids or key_range")
            lo, hi = key_range
            vids = [
                v
                for v in self.servers[src].store.local_vertices()
                if lo <= v < hi
            ]
        vids = tuple(sorted(set(vids)))
        if not vids:
            raise RebalanceError(f"nothing to migrate from server {src}")
        migrating = {
            v for state in self.active.values() for v in state.vids
        }
        for vid in vids:
            if vid in migrating:
                raise RebalanceError(f"vertex {vid} is already migrating")
            if self.routing.owner(vid) != src:
                raise RebalanceError(
                    f"vertex {vid} is owned by server "
                    f"{self.routing.owner(vid)}, not source {src}"
                )
        mid = MIGRATION_ID_BASE + next(self._mid_seq)
        state = MigrationState(
            mid=mid,
            src=src,
            dst=dst,
            vids=vids,
            routing_version=self.routing.version,
            started=self.ctx.now(),
            event=self.runtime.completion_event(),
        )
        self.active[mid] = state
        self._journal(mid, "copy", src, dst, vids, self.routing.version)
        self.metrics.count("rebalance.started")
        self.trace.record(
            "rebalance.start",
            travel_id=mid,
            server_id=self.host,
            src=src,
            dst=dst,
            vertices=len(vids),
            routing_version=state.routing_version,
        )
        self.ctx.spawn(self._run(state), name=f"migration-{mid}")
        return mid, state.event

    # -- the migration process ----------------------------------------------

    def _run(self, state: MigrationState):
        try:
            yield from self._copy(state)
            if state.crashed:
                return
            # -- double-routing window ---------------------------------
            self._journal(
                state.mid, "dual", state.src, state.dst, state.vids,
                self.routing.version + 1,
            )
            state.phase = "dual"
            self.routing.begin_dual(state.vids, state.src, state.dst)
            self._phase_trace(state, "dual")
            yield self.ctx.sleep(self.config.dual_window)
            if state.crashed:
                return
            # travels active *now* are the only ones that may still hold
            # source-routed dispatches or replay buffers after cutover
            watched = self._active_travel_ids()
            # -- atomic cutover ------------------------------------------
            self._journal(
                state.mid, "cutover", state.src, state.dst, state.vids,
                self.routing.version + 1,
            )
            state.phase = "cutover"
            self.routing.cutover(state.vids, state.dst)
            self._phase_trace(state, "cutover")
            # -- drained source drop -------------------------------------
            yield from self._drain(state, watched)
            if state.crashed:
                return
            self.servers[state.src].store.drop_vertices(state.vids)
            state.phase = "done"
            self._journal(
                state.mid, "done", state.src, state.dst, state.vids,
                self.routing.version,
            )
            self._finish(state, "done")
        except RebalanceError as exc:
            if not state.crashed:
                self._abort(state, str(exc))

    def _copy(self, state: MigrationState):
        size = self.config.chunk_vertices
        chunks = [
            state.vids[i : i + size] for i in range(0, len(state.vids), size)
        ]
        for seq, chunk in enumerate(chunks):
            if state.crashed:
                return
            _, event = self.scheduler.submit_job(
                self._chunk_job(state, seq, chunk),
                tenant=TENANT,
                priority=PRIORITY,
            )
            yield event  # throws RebalanceError on job failure

    def _chunk_job(self, state: MigrationState, seq: int, chunk):
        """One scheduler job: ship one chunk and wait for its ack, with
        bounded resends. Runs paced by the admission scheduler, so copy
        bandwidth is subject to policy order and the in-flight cap."""

        def job():
            if state.crashed or state.phase != "copy":
                return
            pairs, meta = self.servers[state.src].store.export_vertices(chunk)
            msg = MigrateChunk(
                state.mid,
                mid=state.mid,
                seq=seq,
                pairs=pairs,
                meta=meta,
                routing_version=state.routing_version,
                from_server=state.src,
            )
            key = (state.mid, seq)
            for attempt in range(MAX_RESENDS + 1):
                if state.crashed:
                    return
                if self.runtime.is_down(state.src) or self.runtime.is_down(
                    state.dst
                ):
                    raise RebalanceError(
                        f"server crashed mid-copy (chunk {seq})", mid=state.mid
                    )
                if attempt:
                    state.resends += 1
                    self.metrics.count("rebalance.resends")
                self.servers[state.src].ctx.send(state.dst, msg)
                deadline = self.ctx.now() + ACK_TIMEOUT
                while self.ctx.now() < deadline:
                    if key in self._acked:
                        return
                    yield self.ctx.sleep(ACK_POLL)
            raise RebalanceError(
                f"chunk {seq} unacked after {MAX_RESENDS} resends",
                mid=state.mid,
            )

        return job

    def _drain(self, state: MigrationState, watched):
        deadline = self.ctx.now() + DRAIN_TIMEOUT
        while self.ctx.now() < deadline:
            if state.crashed:
                return
            live = [
                tid
                for tid in watched
                if tid in self.coordinator._active
                or tid in self.coordinator._composites
            ]
            if not live:
                return
            yield self.ctx.sleep(DRAIN_POLL)
        state.drained = False  # safety valve tripped; drop proceeds

    def _active_travel_ids(self):
        return sorted(
            set(self.coordinator._active) | set(self.coordinator._composites)
        )

    # -- terminal paths -------------------------------------------------------

    def _abort(self, state: MigrationState, reason: str) -> None:
        state.abort_reason = reason
        if state.phase == "dual":
            self.routing.abort_dual(state.vids)
        # drop whatever landed on the target (cleanup BEFORE the abort
        # record: a crash mid-abort replays as another abort, idempotently)
        partial = sorted(self._applied_vids.get(state.mid, ()))
        self.servers[state.dst].store.drop_vertices(
            [v for v in partial if self.routing.owner(v) != state.dst]
        )
        state.phase = "aborted"
        self._journal(
            state.mid, "aborted", state.src, state.dst, state.vids,
            self.routing.version,
        )
        self._finish(state, "aborted")

    def _finish(self, state: MigrationState, status: str) -> None:
        state.finished = self.ctx.now()
        self.active.pop(state.mid, None)
        self.history.append(state)
        # zero-leak: every per-migration tracking structure is emptied
        self._applied_vids.pop(state.mid, None)
        self._applied = {k for k in self._applied if k[0] != state.mid}
        self._acked = {k for k in self._acked if k[0] != state.mid}
        self.forget(state.mid)
        self.metrics.count("rebalance.migrations", status=status)
        self.trace.record(
            "rebalance.terminal",
            travel_id=state.mid,
            server_id=self.host,
            status=status,
            bytes_moved=state.bytes_moved,
            routing_version=self.routing.version,
        )
        if state.event is not None and not state.event.triggered:
            state.event.succeed(state)

    def _phase_trace(self, state: MigrationState, phase: str) -> None:
        self.metrics.count(f"rebalance.{phase}")
        self.trace.record(
            "rebalance.phase",
            travel_id=state.mid,
            server_id=self.host,
            phase=phase,
            routing_version=self.routing.version,
        )

    def _journal(
        self, mid: int, phase: str, src: ServerId, dst: ServerId, vids,
        version: int,
    ) -> None:
        """The one writer of the ``migration`` journal record."""
        if self.journal is not None:
            self.journal.append(
                "migration", mid=mid, phase=phase, src=src, dst=dst,
                vids=vids, version=version,
            )

    # -- coordinator crash / recovery ----------------------------------------

    def on_coordinator_crash(self) -> None:
        """The routing table and all in-flight migration processes are
        coordinator state: freeze them; recovery decides each migration's
        outcome from the journal."""
        for state in self.active.values():
            state.crashed = True
        self.routing.on_coordinator_crash()
        self._applied.clear()
        self._applied_vids.clear()
        self._acked.clear()

    def recover(self, migrations: dict) -> None:
        """Replay journaled migration records into a consistent ownership
        epoch (called by the recovery supervisor after ``begin_epoch``,
        before any traversal is resumed).

        A migration journaled at ``cutover`` or later is *committed*: its
        ownership override is re-applied and the source drop idempotently
        completed. Anything earlier is *aborted*: the target's partial copy
        is dropped and routing reverts — no vertex lost, none owned twice.
        The table version is restored past the journaled high-water mark,
        so stale protocol steps stay fenced across the crash.
        """
        records = {mid: dict(rec) for mid, rec in migrations.items()}
        version_floor = 0
        committed: list[tuple[int, dict]] = []
        doomed: list[tuple[int, dict]] = []
        for mid in sorted(records):
            rec = records[mid]
            version_floor = max(version_floor, rec.get("version", 0))
            if rec["phase"] in ("cutover", "done"):
                committed.append((mid, rec))
            else:
                doomed.append((mid, rec))
        for mid, rec in committed:
            self.routing.apply_override(rec["vids"], rec["dst"])
            self.servers[rec["src"]].store.drop_vertices(rec["vids"])
            if rec["phase"] == "cutover":
                self._journal(
                    mid, "done", rec["src"], rec["dst"], rec["vids"],
                    rec.get("version", 0),
                )
            self.metrics.count("rebalance.recovered", outcome="committed")
        # aborts run after every committed override is back, so ownership
        # checks during cleanup see the final map
        for mid, rec in doomed:
            dst = rec["dst"]
            self.servers[dst].store.drop_vertices(
                [v for v in rec["vids"] if self.routing.owner(v) != dst]
            )
            self._journal(
                mid, "aborted", rec["src"], dst, rec["vids"],
                rec.get("version", 0),
            )
            self.metrics.count("rebalance.recovered", outcome="aborted")
        self.routing.restore_version(version_floor)
        # finalize the frozen in-memory states so no caller hangs
        now = self.ctx.now()
        outcome_by_mid = {mid: "done" for mid, _ in committed}
        outcome_by_mid.update({mid: "aborted" for mid, _ in doomed})
        for mid in sorted(self.active):
            state = self.active.pop(mid)
            state.phase = outcome_by_mid.get(mid, "aborted")
            if state.phase == "aborted" and state.abort_reason is None:
                state.abort_reason = "coordinator crash"
            state.finished = now
            self.history.append(state)
            self.forget(mid)
            self.metrics.count("rebalance.migrations", status=state.phase)
            if state.event is not None and not state.event.triggered:
                state.event.succeed(state)

    # -- introspection --------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self.active)

    def leaked_state(self) -> list[str]:
        """Migration state that should be empty once every migration is
        terminal (mirrors the chaos harness's zero-leak contract)."""
        leaks: list[str] = []
        if self.active:
            leaks.append(f"active migrations {sorted(self.active)}")
        if self._applied:
            leaks.append(f"applied chunk keys {sorted(self._applied)}")
        if self._applied_vids:
            leaks.append(f"applied vid sets {sorted(self._applied_vids)}")
        if self._acked:
            leaks.append(f"ack keys {sorted(self._acked)}")
        if self.routing.dual_count:
            leaks.append(f"dual-routed vertices {self.routing.dual_count}")
        return leaks
