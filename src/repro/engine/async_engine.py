"""Asynchronous server-side traversal engine (paper §IV–§V).

One :class:`AsyncServerEngine` runs on every backend server. Message flow:

1. :class:`~repro.net.message.TraverseRequest` arrives → coalesce into the
   pending work unit for its (travel, level) if one is still queued (the
   absorbed execution terminates immediately), else enqueue a new unit.
2. A worker pops the queue — smallest step id first when execution
   scheduling is enabled (§V-B) — and processes the unit's vertices:
   traversal-affiliate cache check (§V-A), execution merging against other
   queued levels (§V-B), one disk access per surviving vertex, filter and
   expand, then dispatch batched requests to the owners of the next-level
   vertices *without any global synchronization*.
3. Each processed unit reports an :class:`~repro.net.message.ExecStatus` to
   the coordinator: its own termination plus every execution it created —
   the status-tracing protocol of §IV-C.
4. Final-level vertices produce :class:`~repro.net.message.ResultReport`
   messages; intermediate ``rtn()`` anchors are confirmed to their owning
   servers via :class:`~repro.net.message.SuccessReport`, which forward the
   matched vertices to the coordinator (the Fig. 4 redirection).

The same class implements Async-GT and GraphTrek: option flags switch the
optimizations (see :mod:`repro.engine.options`). Without the cache, duplicate
(travel, step, vertex) arrivals pay their disk I/O in full — the redundant
visits the paper measures — but are never re-dispatched (see DESIGN.md,
"Termination bookkeeping in Async-GT").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.engine.cache import TraversalAffiliateCache
from repro.engine.frontier import EMPTY_ANCHORS, anchors_covered, merge_entries
from repro.engine.options import EngineOptions
from repro.engine.registry import TravelEntry, TravelRegistry
from repro.engine.statistics import StatsBoard
from repro.engine.visit import ExpandSinks, VisitData, expand, read_vertex, visit_spec
from repro.ids import ExecId, ServerId, TravelId, VertexId
from repro.net.message import (
    Anchors,
    Entries,
    ExecStatus,
    Message,
    ReplayExec,
    ResultReport,
    SuccessReport,
    TraverseRequest,
)
from repro.runtime.simulated import SimServerContext
from repro.storage.costmodel import IOCost
from repro.storage.layout import GraphStore

if TYPE_CHECKING:
    from repro.rebalance.routing import RoutingTable

TravelKey = tuple[TravelId, int]  # (travel id, attempt)

_COUNTERS = (
    "engine.requests", "engine.coalesced", "engine.units_enqueued",
    "cache.affiliate_hits", "engine.merged_items", "engine.real_visits",
    "engine.dispatches", "engine.status_reports",
)
_HISTOGRAMS = ("engine.queue_wait_seconds", "engine.unit_vertices", "disk.access_seconds")

#: Effectively unbounded capacity for the Async-GT processed-set (it is
#: bookkeeping, not the bounded cache optimization).
_UNBOUNDED = 1 << 60


@dataclass
class PendingWork:
    """A coalesced (travel, level) work unit waiting in the local queue."""

    travel_key: TravelKey
    level: int
    entries: Entries
    exec_id: ExecId
    all_sources: bool = False
    absorbed: int = 0
    enqueued_at: float = 0.0
    #: coordinator epoch echoed from the request that opened the unit
    epoch: int = 0
    #: per-unit visit attribution (flight-recorder / PROFILE payload)
    n_real: int = 0
    n_cache_hits: int = 0
    n_combined: int = 0

    @property
    def travel_id(self) -> TravelId:
        return self.travel_key[0]


class AsyncServerEngine:
    """Per-server asynchronous traversal engine."""

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
        # per-request and per-unit records, resolved to handles once
        server = ctx.server_id
        self._count = {n: self.metrics.counter(n, server=server) for n in _COUNTERS}
        self._observe = {n: self.metrics.observer(n, server=server) for n in _HISTOGRAMS}
        self.queue = ctx.queue(priority=opts.priority_schedule, name="requests")
        self._pending: dict[tuple[TravelKey, int], PendingWork] = {}
        capacity = opts.cache_capacity if opts.cache_enabled else _UNBOUNDED
        self.seen = TraversalAffiliateCache(capacity)
        self._rtn_forwarded: dict[tuple[TravelKey, int], set[VertexId]] = {}
        #: replay buffer for fine-grained recovery: exec id -> (dst, message),
        #: kept until the traversal completes.
        self._sent: dict[TravelKey, dict[ExecId, tuple[ServerId, Message]]] = {}
        self._seq = itertools.count()
        # exec ids are disjoint per server: the high bits carry the origin
        self._next_exec = itertools.count((ctx.server_id + 1) << 32)
        self._workers = [
            ctx.spawn(self._worker(), name=f"worker{i}") for i in range(opts.workers)
        ]

    # -- message entry point -------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if isinstance(msg, TraverseRequest):
            self._on_request(msg)
        elif isinstance(msg, SuccessReport):
            self._on_success(msg)
        elif isinstance(msg, ReplayExec):
            self._on_replay(msg)
        else:  # pragma: no cover - protocol misuse guard
            raise TypeError(f"async engine got unexpected {type(msg).__name__}")

    def _on_replay(self, msg: ReplayExec) -> None:
        """Fine-grained recovery: re-send a dispatch this server created.

        Unknown exec ids are ignored — the coordinator's watchdog escalates
        to a full restart if replays do not restore progress.
        """
        sent = self._sent.get((msg.travel_id, msg.attempt), {})
        record = sent.get(msg.exec_id)
        if record is None:
            return
        dst, original = record
        self._send(msg.travel_id, dst, original)

    def _on_request(self, msg: TraverseRequest) -> None:
        server = self.ctx.server_id
        self._count["engine.requests"]()
        # tested at every per-request record site: a disabled record() still
        # pays for binding its keywords
        if self.trace.enabled:
            self.trace.record(
                "exec.received",
                travel_id=msg.travel_id,
                exec_id=msg.exec_id,
                server_id=server,
                step=msg.level,
                attempt=msg.attempt,
            )
        entry = self.registry.get(msg.travel_id)
        if entry is None or entry.attempt != msg.attempt:
            # Stale attempt: terminate the execution so old accounting
            # quiesces; the coordinator ignores reports from old attempts.
            self.metrics.count("engine.stale_requests", server=server)
            self._record_terminated(msg.travel_id, msg.exec_id, msg.level, msg.attempt, "stale")
            self._report_status(
                msg.travel_id, msg.attempt, msg.exec_id, (), 0, msg.level,
                epoch=msg.epoch,
            )
            return
        tkey = (msg.travel_id, msg.attempt)
        key = (tkey, msg.level)
        work = self._pending.get(key)
        if work is not None:
            # Queue coalescing: union into the waiting unit; the absorbed
            # execution terminates immediately, having created nothing.
            merge_entries(work.entries, msg.entries)
            work.all_sources = work.all_sources or msg.all_sources
            work.absorbed += 1
            self._count["engine.coalesced"]()
            self._record_terminated(
                msg.travel_id, msg.exec_id, msg.level, msg.attempt, "coalesced"
            )
            self._report_status(
                msg.travel_id, msg.attempt, msg.exec_id, (), 0, msg.level,
                epoch=msg.epoch,
            )
            return
        work = PendingWork(
            travel_key=tkey,
            level=msg.level,
            entries=dict(msg.entries),
            exec_id=msg.exec_id,
            all_sources=msg.all_sources,
            enqueued_at=self.ctx.now(),
            epoch=msg.epoch,
        )
        self._pending[key] = work
        self._count["engine.units_enqueued"]()
        priority = msg.level if self.opts.priority_schedule else 0
        self.queue.put((priority, next(self._seq), key))

    def _on_success(self, msg: SuccessReport) -> None:
        """An rtn server learning which of its anchors completed a path."""
        self.metrics.count("engine.rtn_confirms", server=self.ctx.server_id)
        self.trace.record(
            "exec.received",
            travel_id=msg.travel_id,
            exec_id=msg.exec_id,
            server_id=self.ctx.server_id,
            attempt=msg.attempt,
        )
        entry = self.registry.get(msg.travel_id)
        if entry is None or entry.attempt != msg.attempt:
            self._record_terminated(msg.travel_id, msg.exec_id, None, msg.attempt, "stale")
            self._report_status(
                msg.travel_id, msg.attempt, msg.exec_id, (), 0, None, epoch=msg.epoch
            )
            return
        tkey = (msg.travel_id, msg.attempt)
        fwd_key = (tkey, msg.rtn_level)
        already = self._rtn_forwarded.setdefault(fwd_key, set())
        fresh = msg.anchors - already
        results_sent = 0
        if fresh:
            already.update(fresh)
            self._send_coord(
                msg.travel_id,
                ResultReport(
                    msg.travel_id,
                    epoch=entry.epoch,
                    level=msg.rtn_level,
                    vertices=frozenset(fresh),
                    attempt=msg.attempt,
                ),
            )
            results_sent = 1
        self._record_terminated(
            msg.travel_id, msg.exec_id, None, msg.attempt, "rtn",
            anchors=len(msg.anchors), results_sent=results_sent,
        )
        self._report_status(
            msg.travel_id, msg.attempt, msg.exec_id, (), results_sent, None,
            epoch=entry.epoch,
        )

    # -- worker loop ---------------------------------------------------------------

    def _worker(self):
        while True:
            item = yield self.queue.get()
            _, _, key = item
            work = self._pending.pop(key, None)
            if work is None:  # pragma: no cover - defensive
                continue
            yield from self._process(work)

    def _process(self, work: PendingWork):
        travel_id, attempt = work.travel_key
        server = self.ctx.server_id
        entry = self.registry.get(travel_id)
        if entry is None or entry.attempt != attempt:
            self._record_terminated(travel_id, work.exec_id, work.level, attempt, "stale")
            self._report_status(
                travel_id, attempt, work.exec_id, (), 0, work.level, epoch=work.epoch
            )
            return
        plan = entry.plan
        level = work.level
        sources_indexed = self._sources_indexed(work, entry)

        items: list[tuple[VertexId, Anchors]] = list(work.entries.items())
        if work.all_sources:
            items.extend(
                (vid, EMPTY_ANCHORS) for vid in self._source_candidates(entry)
            )
        items.sort(key=lambda iv: iv[0])  # key-ordered batch (elevator pass)
        self._observe["engine.queue_wait_seconds"](self.ctx.now() - work.enqueued_at)
        self._observe["engine.unit_vertices"](len(items))
        yield self.ctx.sleep(
            self.opts.cpu_per_request
            + self.opts.cpu_async_overhead
            + self.opts.cpu_per_vertex * len(items)
        )

        sinks = ExpandSinks()
        decoded0 = self.store.decoded_blocks
        first_in_batch = True
        has_vertex = self.store.has_vertex
        cache_enabled = self.opts.cache_enabled
        tkey = work.travel_key
        # The probes run here, in item order, so a request the cache drops
        # costs two lookups and no generator. They stay interleaved with the
        # survivors' disk yields (another worker may insert in between), and
        # the hits summed so far are flushed before every survivor's visit —
        # hence before every yield — so no observer sees a count late.
        hits = 0
        for vid, anchors in items:
            if not has_vertex(vid):
                continue  # dangling dispatch; nothing stored here
            if cache_enabled:
                stored = self.seen.lookup(tkey, level, vid)
                if stored is not None and (
                    stored == anchors or anchors_covered(anchors, stored)
                ):
                    hits += 1  # affiliate-cache hit: safely abandon the request
                    continue
            if hits:
                self._note_cache_hits(work, hits)
                hits = 0
            did_io = yield from self._visit(
                work, entry, level, vid, anchors, sinks, sources_indexed,
                first_in_batch,
            )
            if did_io:
                first_in_batch = False
        self._note_cache_hits(work, hits)

        created, results_sent = self._flush(work, plan, sinks, entry.epoch)
        self._record_terminated(
            travel_id, work.exec_id, level, attempt, "ok",
            vertices=len(items),
            created=len(created),
            results_sent=results_sent,
            absorbed=work.absorbed,
            real=work.n_real,
            cache_hits=work.n_cache_hits,
            combined=work.n_combined,
            decoded_blocks=self.store.decoded_blocks - decoded0,
        )
        self._report_status(
            travel_id, attempt, work.exec_id, tuple(created), results_sent, level,
            epoch=entry.epoch,
        )

    def _sources_indexed(self, work: PendingWork, entry: TravelEntry) -> bool:
        """When enumerating sources via the type index, the type filter is
        already satisfied and must not force an attribute read."""
        return work.level == 0 and work.all_sources and bool(entry.source_info.index_type)

    def _source_candidates(self, entry: TravelEntry) -> list[VertexId]:
        info = entry.source_info
        if info.index_type is not None:
            return sorted(self.store.local_vertices_of_type(info.index_type))
        return sorted(self.store.local_vertices())

    def _note_cache_hits(self, work: PendingWork, n: int) -> None:
        self.board.visit(work.travel_id, self.ctx.server_id, "redundant", n)
        self._count["cache.affiliate_hits"](n)
        work.n_cache_hits += n

    # -- per-vertex visit ------------------------------------------------------------

    def _visit(
        self,
        work: PendingWork,
        entry: TravelEntry,
        level: int,
        vid: VertexId,
        anchors: Anchors,
        sinks: ExpandSinks,
        sources_indexed: bool,
        first_in_batch: bool,
    ):
        """Serve one vertex request that is stored here and survived the
        affiliate cache (:meth:`_process` probes both); returns True if it
        reached the disk."""
        travel_id = work.travel_id
        server = self.ctx.server_id
        tkey = work.travel_key
        todo: list[tuple[int, Anchors]] = [(level, anchors)]
        if self.opts.merge_enabled:
            todo.extend(self._extract_merged(tkey, vid, level))
            if len(todo) > 1:
                self._count["engine.merged_items"](len(todo) - 1)

        levels = (level,) if len(todo) == 1 else tuple(lvl for lvl, _ in todo)
        spec = visit_spec(entry, levels, sources_indexed)
        if not spec.reads:
            # Nothing to read (e.g. unfiltered final level): served from the
            # request itself, still one real visit for accounting.
            data = None
        else:
            data = read_vertex(
                self.store, vid, spec.labels, spec.want_props, spec.edge_preds,
                spec.edge_props,
            )
            cost = data.cost
            if not first_in_batch and cost.seeks:
                cost.seeks *= self.opts.batch_seek_factor
            # Execution merging shares the seek/scan, but each merged item
            # still decodes the block it needs (one re-read from cache).
            cost.cache_hits += len(todo) - 1
            io_start = self.ctx.now()
            yield self.ctx.disk(cost, level=level, accesses=1)
            self._observe["disk.access_seconds"](self.ctx.now() - io_start)

        self.board.visit(travel_id, server, "real")
        self.board.visit(travel_id, server, "combined", len(todo) - 1)
        self._count["engine.real_visits"]()
        work.n_real += 1
        work.n_combined += len(todo) - 1

        vertex_type = self.store.namespace_of(vid)
        if data is None:
            data = VisitData(props=None, edges={}, cost=IOCost())
        owner_fn = self.routing.owner
        for (lvl, anc), facts in zip(todo, spec.facts):
            stored = self.seen.lookup(tkey, lvl, vid)
            if stored is not None and anchors_covered(anc, stored):
                # Already expanded with these anchors (post-I/O duplicate in
                # Async-GT, or a merged item another path served first):
                # skip the downstream dispatch to preserve termination.
                continue
            self.seen.insert(tkey, lvl, vid, anc)
            expand(facts, vid, anc, data, owner_fn, sinks, vertex_type)
        return data.cost.seeks > 0 or data.cost.blocks > 0

    def _extract_merged(
        self, tkey: TravelKey, vid: VertexId, level: int
    ) -> list[tuple[int, Anchors]]:
        """Execution merging (§V-B): pull same-vertex requests at other
        levels out of the local queue so this disk access serves them too."""
        merged: list[tuple[int, Anchors]] = []
        for (pkey, plevel), other in self._pending.items():
            if pkey != tkey or plevel == level:
                continue
            anc = other.entries.pop(vid, None)
            if anc is not None:
                merged.append((plevel, anc))
        return merged

    # -- dispatch --------------------------------------------------------------------

    def _flush(
        self, work: PendingWork, plan, sinks: ExpandSinks, epoch: int = 0
    ) -> tuple[list[tuple[ExecId, ServerId, int]], int]:
        travel_id, attempt = work.travel_key
        sent = self._sent.setdefault(work.travel_key, {})
        created: list[tuple[ExecId, ServerId, int]] = []
        traced = self.trace.enabled
        for (nlvl, target), entries in sorted(sinks.out.items()):
            eid = next(self._next_exec)
            created.append((eid, target, nlvl))
            if traced:
                self.trace.record(
                    "exec.created",
                    travel_id=travel_id,
                    exec_id=eid,
                    parent_exec_id=work.exec_id,
                    server_id=target,
                    step=nlvl,
                    attempt=attempt,
                    edge="forward",
                )
            request = TraverseRequest(
                travel_id,
                epoch=epoch,
                level=nlvl,
                entries=entries,
                exec_id=eid,
                from_server=self.ctx.server_id,
                attempt=attempt,
            )
            sent[eid] = (target, request)
            self._send(travel_id, target, request)
        for (rtn_level, owner), anchors in sorted(sinks.anchors_by_owner.items()):
            eid = next(self._next_exec)
            created.append((eid, owner, plan.final_level))
            if traced:
                self.trace.record(
                    "exec.created",
                    travel_id=travel_id,
                    exec_id=eid,
                    parent_exec_id=work.exec_id,
                    server_id=owner,
                    step=plan.final_level,
                    attempt=attempt,
                    edge="rtn",
                )
            success = SuccessReport(
                travel_id,
                epoch=epoch,
                rtn_level=rtn_level,
                anchors=frozenset(anchors),
                exec_id=eid,
                attempt=attempt,
            )
            sent[eid] = (owner, success)
            self._send(travel_id, owner, success)
            self.metrics.count("engine.rtn_redirects", server=self.ctx.server_id)
        self._count["engine.dispatches"](len(sinks.out))
        results_sent = 0
        if sinks.final_results and plan.final_level in plan.return_levels:
            self._send_coord(
                travel_id,
                ResultReport(
                    travel_id,
                    epoch=epoch,
                    level=plan.final_level,
                    vertices=frozenset(sinks.final_results),
                    groups=tuple(sorted(sinks.final_groups.items())),
                    attempt=attempt,
                ),
            )
            results_sent = 1
        return created, results_sent

    # -- plumbing ---------------------------------------------------------------------

    def _record_terminated(
        self,
        travel_id: TravelId,
        exec_id: ExecId,
        level: Optional[int],
        attempt: int,
        reason: str,
        **attrs,
    ) -> None:
        if self.trace.enabled:
            self.trace.record(
                "exec.terminated",
                travel_id=travel_id,
                exec_id=exec_id,
                server_id=self.ctx.server_id,
                step=level,
                attempt=attempt,
                reason=reason,
                **attrs,
            )

    def _send(self, travel_id: TravelId, dst: ServerId, msg: Message) -> None:
        self.board.message(travel_id, msg.nbytes)
        self.ctx.send(dst, msg)

    def _send_coord(self, travel_id: TravelId, msg: Message) -> None:
        self.board.message(travel_id, msg.nbytes)
        self.ctx.send_coordinator(msg)

    def _report_status(
        self,
        travel_id: TravelId,
        attempt: int,
        exec_id: ExecId,
        created: tuple[tuple[ExecId, ServerId, int], ...],
        results_sent: int,
        level: Optional[int],
        *,
        epoch: int = 0,
    ) -> None:
        # The per-traversal ``executions`` statistic is counted by the
        # coordinator on *fresh* terminations only — counting here would
        # double-count replayed executions and stale-attempt reports.
        self._count["engine.status_reports"]()
        self._send_coord(
            travel_id,
            ExecStatus(
                travel_id,
                epoch=epoch,
                exec_id=exec_id,
                server=self.ctx.server_id,
                created=created,
                results_sent=results_sent,
                level=level,
                attempt=attempt,
            ),
        )

    # -- lifecycle -----------------------------------------------------------------------

    def forget_travel(self, travel_id: TravelId) -> None:
        """Release per-traversal state after the coordinator reports
        completion (in-process cleanup; costs no simulated time)."""
        self.seen.forget_travel_prefix(travel_id)
        for key in [k for k in self._pending if k[0][0] == travel_id]:
            del self._pending[key]
        for key in [k for k in self._rtn_forwarded if k[0][0] == travel_id]:
            del self._rtn_forwarded[key]
        for key in [k for k in self._sent if k[0] == travel_id]:
            del self._sent[key]

    def crash(self) -> None:
        """Crash-model hook: lose every piece of in-memory traversal state
        (pending work, affiliate cache, RTN dedup, replay buffers). LSM
        storage survives by design. Queued keys whose pending entry vanished
        are no-ops in the worker, so workers survive the crash."""
        self._pending.clear()
        self._rtn_forwarded.clear()
        self._sent.clear()
        capacity = self.opts.cache_capacity if self.opts.cache_enabled else _UNBOUNDED
        self.seen = TraversalAffiliateCache(capacity)
        self.metrics.count("engine.crashes", server=self.ctx.server_id)
