"""Level-synchronous server-side traversal engine — the Sync-GT baseline.

Follows the paper's fair-comparison design (§VI): server-side traversal with
a controller (the coordinator) that globally synchronizes every step. Data
flows directly between backend servers; the coordinator only exchanges
control messages:

1. the coordinator announces step k with the number of frontier batches each
   server must expect (:class:`~repro.net.message.SyncStartStep`);
2. each server waits for exactly that many :class:`~repro.net.message.SyncBatch`
   deliveries, unions them (per-step deduplication is free under a barrier),
   processes every vertex, ships next-level batches to their owners, and
   reports :class:`~repro.net.message.SyncStepDone` with its per-destination
   send counts;
3. when all servers report, the coordinator aggregates the counts and
   releases step k+1.

Final-level vertices (and completed rtn anchors) go straight to the
coordinator as :class:`~repro.net.message.ResultReport` messages.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.engine.frontier import EMPTY_ANCHORS, merge_entries
from repro.engine.options import EngineOptions
from repro.engine.registry import TravelEntry, TravelRegistry
from repro.engine.statistics import StatsBoard
from repro.engine.visit import ExpandSinks, VisitData, expand, read_vertex, visit_spec
from repro.ids import ServerId, TravelId, VertexId
from repro.net.message import (
    Anchors,
    Entries,
    Message,
    ResultReport,
    SyncBatch,
    SyncStartStep,
    SyncStepDone,
)
from repro.obs.trace import sync_exec_id
from repro.runtime.simulated import SimServerContext
from repro.storage.costmodel import IOCost
from repro.storage.layout import GraphStore

if TYPE_CHECKING:
    from repro.rebalance.routing import RoutingTable

TravelKey = tuple[TravelId, int]


class SyncServerEngine:
    """Per-server synchronous engine."""

    def __init__(
        self,
        ctx: SimServerContext,
        store: GraphStore,
        registry: TravelRegistry,
        routing: RoutingTable,
        opts: EngineOptions,
        board: StatsBoard,
    ):
        self.ctx = ctx
        self.store = store
        self.registry = registry
        #: read ``routing.owner`` at each use: the table re-binds it on
        #: every ownership mutation
        self.routing = routing
        self.opts = opts
        self.board = board
        self.metrics = board.obs.metrics
        self.trace = board.obs.trace
        server = ctx.server_id  # the two per-vertex records, resolved to handles once
        self._count_real = self.metrics.counter("engine.real_visits", server=server)
        self._observe_disk = self.metrics.observer("disk.access_seconds", server=server)
        self.queue = ctx.queue(priority=False, name="sync-steps")
        self._buffers: dict[tuple[TravelKey, int], Entries] = {}
        self._batch_counts: dict[tuple[TravelKey, int], int] = {}
        #: (expect_batches, all_sources) once the start order arrived
        self._expected: dict[tuple[TravelKey, int], tuple[int, bool]] = {}
        self._seq = itertools.count()
        #: bumped on crash so queued step keys from before the crash are
        #: skipped instead of processed against emptied buffers (which would
        #: report an understated SyncStepDone and silently shrink results)
        self._epoch = 0
        self._worker_proc = ctx.spawn(self._worker(), name="sync-worker")

    # -- message entry point ---------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if isinstance(msg, SyncBatch):
            self._on_batch(msg)
        elif isinstance(msg, SyncStartStep):
            self._on_start(msg)
        else:  # pragma: no cover - protocol misuse guard
            raise TypeError(f"sync engine got unexpected {type(msg).__name__}")

    def _stale(self, travel_id: TravelId, attempt: int) -> bool:
        entry = self.registry.get(travel_id)
        return entry is None or entry.attempt != attempt

    def _on_batch(self, msg: SyncBatch) -> None:
        self.metrics.count("engine.sync_batches", server=self.ctx.server_id)
        if self._stale(msg.travel_id, msg.attempt):
            return
        key = ((msg.travel_id, msg.attempt), msg.level)
        buf = self._buffers.setdefault(key, {})
        merge_entries(buf, msg.entries)
        self._batch_counts[key] = self._batch_counts.get(key, 0) + 1
        self._try_start(key)

    def _on_start(self, msg: SyncStartStep) -> None:
        if self._stale(msg.travel_id, msg.attempt):
            return
        key = ((msg.travel_id, msg.attempt), msg.level)
        self._expected[key] = (msg.expect_batches, msg.all_sources)
        self._try_start(key)

    def _try_start(self, key: tuple[TravelKey, int]) -> None:
        expected = self._expected.get(key)
        if expected is None:
            return
        if self._batch_counts.get(key, 0) >= expected[0]:
            del self._expected[key]
            self.queue.put((0, next(self._seq), key, self._epoch))

    # -- step processing ------------------------------------------------------------

    def _worker(self):
        while True:
            item = yield self.queue.get()
            _, _, key, epoch = item
            if epoch != self._epoch:
                continue  # queued before a crash; its buffers are gone
            yield from self._process_step(key)

    def _process_step(self, key: tuple[TravelKey, int]):
        (travel_id, attempt), level = key
        entries = self._buffers.pop(key, {})
        self._batch_counts.pop(key, None)
        # The synthetic id of this barrier-released (attempt, level, server)
        # work unit — created by the coordinator when it released the step.
        eid = sync_exec_id(attempt, level, self.ctx.server_id)
        self.trace.record(
            "exec.received",
            travel_id=travel_id,
            exec_id=eid,
            server_id=self.ctx.server_id,
            step=level,
            attempt=attempt,
        )
        entry = self.registry.get(travel_id)
        if entry is None or entry.attempt != attempt:
            self.trace.record(
                "exec.terminated",
                travel_id=travel_id,
                exec_id=eid,
                server_id=self.ctx.server_id,
                step=level,
                attempt=attempt,
                reason="stale",
            )
            return
        plan = entry.plan
        coord_epoch = entry.epoch
        all_sources = level == 0 and plan.source_ids is None
        if all_sources:
            for vid in self._source_candidates(entry):
                entries.setdefault(vid, EMPTY_ANCHORS)

        items = sorted(entries.items(), key=lambda iv: iv[0])
        server = self.ctx.server_id
        self.metrics.observe("engine.unit_vertices", len(items), server=server)
        yield self.ctx.sleep(
            self.opts.cpu_per_request + self.opts.cpu_per_vertex * len(items)
        )

        sinks = ExpandSinks()
        # via the type index the type filter is already met (see visit_spec)
        sources_indexed = all_sources and bool(entry.source_info.index_type)
        spec = visit_spec(entry, (level,), sources_indexed)
        (facts,) = spec.facts
        decoded0 = self.store.decoded_blocks
        first_in_batch = True
        n_real = 0
        for vid, anchors in items:
            if not self.store.has_vertex(vid):
                continue
            if spec.reads:
                data = read_vertex(
                    self.store, vid, spec.labels, spec.want_props, spec.edge_preds,
                    spec.edge_props,
                )
                cost = data.cost
                if not first_in_batch and cost.seeks:
                    cost.seeks *= self.opts.batch_seek_factor
                io_start = self.ctx.now()
                yield self.ctx.disk(cost, level=level, accesses=1)
                self._observe_disk(self.ctx.now() - io_start)
                first_in_batch = False
            else:
                data = VisitData(props=None, edges={}, cost=IOCost())
            self.board.visit(travel_id, self.ctx.server_id, "real")
            self._count_real()
            n_real += 1
            expand(
                facts, vid, anchors, data, self.routing.owner, sinks,
                self.store.namespace_of(vid),
            )

        results_sent = self._emit_results(travel_id, attempt, coord_epoch, plan, sinks)
        sent_counts: dict[ServerId, int] = {}
        for (nlvl, target), out_entries in sorted(sinks.out.items()):
            # Data-flow edge from this work unit into the next level's unit
            # on the target server (its root "barrier" creation comes from
            # the coordinator when it releases that step).
            self.trace.record(
                "exec.created",
                travel_id=travel_id,
                exec_id=sync_exec_id(attempt, nlvl, target),
                parent_exec_id=eid,
                server_id=target,
                step=nlvl,
                attempt=attempt,
                edge="forward",
            )
            self._send(
                travel_id,
                target,
                SyncBatch(
                    travel_id,
                    epoch=coord_epoch,
                    level=nlvl,
                    entries=out_entries,
                    from_server=self.ctx.server_id,
                    attempt=attempt,
                ),
            )
            sent_counts[target] = sent_counts.get(target, 0) + 1
        if sent_counts:
            self.metrics.count("engine.dispatches", len(sent_counts), server=server)
        self.board.execution(travel_id)
        self.trace.record(
            "exec.terminated",
            travel_id=travel_id,
            exec_id=eid,
            server_id=server,
            step=level,
            attempt=attempt,
            reason="ok",
            vertices=len(items),
            created=len(sinks.out),
            results_sent=results_sent,
            real=n_real,
            decoded_blocks=self.store.decoded_blocks - decoded0,
        )
        self.metrics.count("engine.status_reports", server=server)
        self._send_coord(
            travel_id,
            SyncStepDone(
                travel_id,
                epoch=coord_epoch,
                level=level,
                server=self.ctx.server_id,
                sent_counts=sent_counts,
                results_sent=results_sent,
                attempt=attempt,
            ),
        )

    def _emit_results(self, travel_id, attempt, coord_epoch, plan, sinks: ExpandSinks) -> int:
        """Ship final vertices and completed rtn anchors to the coordinator.

        The synchronous baseline returns everything through its controller;
        the async engines' report-destination redirection (Fig. 4) has no
        synchronous counterpart.
        """
        results_sent = 0
        if sinks.final_results and plan.final_level in plan.return_levels:
            self._send_coord(
                travel_id,
                ResultReport(
                    travel_id,
                    epoch=coord_epoch,
                    level=plan.final_level,
                    vertices=frozenset(sinks.final_results),
                    groups=tuple(sorted(sinks.final_groups.items())),
                    attempt=attempt,
                ),
            )
            results_sent += 1
        by_level: dict[int, set[VertexId]] = {}
        for (rtn_level, _owner), anchors in sinks.anchors_by_owner.items():
            by_level.setdefault(rtn_level, set()).update(anchors)
        for rtn_level, anchors in sorted(by_level.items()):
            self._send_coord(
                travel_id,
                ResultReport(
                    travel_id,
                    epoch=coord_epoch,
                    level=rtn_level,
                    vertices=frozenset(anchors),
                    attempt=attempt,
                ),
            )
            results_sent += 1
        return results_sent

    def _source_candidates(self, entry: TravelEntry) -> list[VertexId]:
        info = entry.source_info
        if info.index_type is not None:
            return sorted(self.store.local_vertices_of_type(info.index_type))
        return sorted(self.store.local_vertices())

    # -- plumbing -----------------------------------------------------------------------

    def _send(self, travel_id: TravelId, dst: ServerId, msg: Message) -> None:
        self.board.message(travel_id, msg.nbytes)
        self.ctx.send(dst, msg)

    def _send_coord(self, travel_id: TravelId, msg: Message) -> None:
        self.board.message(travel_id, msg.nbytes)
        self.ctx.send_coordinator(msg)

    def forget_travel(self, travel_id: TravelId) -> None:
        for store in (self._buffers, self._batch_counts, self._expected):
            for key in [k for k in store if k[0][0] == travel_id]:
                del store[key]

    def crash(self) -> None:
        """Crash-model hook: lose buffered batches and barrier bookkeeping.
        The epoch bump invalidates step keys already sitting in the queue;
        the stalled barrier is resolved by the coordinator's watchdog
        restarting the traversal (sync mode has no fine-grained replay)."""
        self._buffers.clear()
        self._batch_counts.clear()
        self._expected.clear()
        self._epoch += 1
        self.metrics.count("engine.crashes", server=self.ctx.server_id)
