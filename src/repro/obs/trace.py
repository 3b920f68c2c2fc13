"""Per-traversal flight recorder and distributed-trace reconstruction.

A traversal's execution is distributed and asynchronous: executions are
created and terminated on backend servers, forwarded peer-to-peer, and
rtn()-redirected away from the coordinator (paper §IV). Aggregate counters
cannot answer "why was *this* query slow" — the flight recorder, the only
per-traversal timeline, can. Every causally-significant event of a
traversal is logged as a structured :class:`TraceEvent` carrying
``(travel_id, exec_id, parent_exec_id, server_id, step, clock)``:

* execution lifecycle — ``exec.created`` / ``exec.received`` /
  ``exec.terminated`` / ``exec.replayed``;
* coordinator protocol — ``travel.submit`` / ``coord.status`` /
  ``coord.result`` / ``travel.restart`` / ``travel.complete`` /
  ``travel.failed``;
* transport and faults — ``net.retry`` / ``net.dup_drop`` /
  ``net.delivery_failed`` / ``fault.drop`` / ``fault.verdict`` /
  ``fault.crash`` / ``fault.recover``;
* coordinator crash recovery — ``coord.crash`` / ``coord.recover`` /
  ``coord.replay`` / ``coord.fenced``.

Recording is out-of-band (costs no simulated time) and never reads the wall
clock, so on the simulated runtime the event stream — and every rendering of
it — is a pure function of (seed, configuration): byte-identical across runs.

:func:`assemble_trace` reconstructs the per-traversal execution DAG from the
records. Orphan executions (terminated but never created) and cycles are hard
errors (:class:`~repro.errors.TraceError`); retries, duplicate deliveries,
and coordinator replays become *annotations* on nodes and edges, never
duplicate nodes. :func:`chrome_trace` renders recorded traversals in Chrome
``trace_event`` format, loadable in ``chrome://tracing`` / Perfetto, and
:func:`validate_trace` is the schema gate CI runs over that payload.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import TraceError
from repro.obs.metrics import canonical_json

#: event kinds the assembler understands (other kinds pass through exports)
EVENT_KINDS = (
    "travel.submit",
    "travel.restart",
    "travel.complete",
    "travel.failed",
    "travel.cancelled",
    "exec.created",
    "exec.received",
    "exec.terminated",
    "exec.replayed",
    "coord.status",
    "coord.result",
    "net.retry",
    "net.dup_drop",
    "net.delivery_failed",
    "fault.drop",
    "fault.verdict",
    "fault.crash",
    "fault.recover",
    # coordinator crash recovery (PR 7): the control plane's own crash,
    # the new-epoch recovery, per-travel journal replay decisions, and
    # fenced pre-crash messages — instants on the coordinator row
    "coord.crash",
    "coord.recover",
    "coord.replay",
    "coord.fenced",
    # scheduler lifecycle (repro.sched): admission, launch, rejection,
    # cancellation — annotations on the travel row, not DAG nodes
    "sched.submit",
    "sched.launch",
    "sched.reject",
    "sched.cancel",
    # telemetry plane (repro.obs.slo): a burn-rate alert transition
    # (firing/resolved) — an instant on the coordinator row
    "slo.alert",
)

#: default ring-buffer capacity — generous: a fig-scale traversal records
#: tens of thousands of events, chaos soaks a few hundred thousand
DEFAULT_MAX_EVENTS = 500_000


#: configure(...) sentinel: "leave the sampling policy unchanged"
_UNSET = object()

#: the one order of recorded events
_SEQ = operator.attrgetter("seq")


@dataclass(frozen=True)
class SamplingPolicy:
    """Tail-based sampling: which *completed-ok* traversals keep their full
    trace (failed / cancelled / slow / alert-matching traversals are always
    kept — those rules live in the telemetry plane's keep decision; this
    policy only contributes the seeded deterministic 1-in-N complement).

    With a policy installed the recorder buffers each traversal's events
    per travel id and commits or discards the whole buffer at the
    traversal's terminal decision — so tracing can be left **on** at bench
    scale without retaining every healthy traversal's events.
    """

    #: keep one in N completed-ok traversals (0 = none beyond the always-keep
    #: rules, 1 = all)
    sample_every_n: int = 16
    #: decision seed — a pure function of (travel_id, seed, N)
    seed: int = 0

    def sampled(self, travel_id: int) -> bool:
        if self.sample_every_n <= 0:
            return False
        if self.sample_every_n == 1:
            return True
        return (
            travel_id * 2654435761 + self.seed * 40503
        ) % self.sample_every_n == 0


def sync_exec_id(attempt: int, level: int, server: int) -> int:
    """Synthetic execution id for the synchronous engine's (level, server)
    work units, unique within one traversal. Small by construction, so it
    can never collide with async exec ids (those start at ``1 << 32``)."""
    return ((attempt * 4096 + level) * 4096 + server) + 1


@dataclass(slots=True)
class TraceEvent:
    """One causally-significant record in the flight recorder (slotted:
    the recorder may keep hundreds of thousands)."""

    seq: int
    clock: float
    kind: str
    travel_id: Optional[int] = None
    exec_id: Optional[int] = None
    parent_exec_id: Optional[int] = None
    server_id: Optional[int] = None
    step: Optional[int] = None
    attempt: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "clock": self.clock,
            "kind": self.kind,
            "travel_id": self.travel_id,
            "exec_id": self.exec_id,
            "parent_exec_id": self.parent_exec_id,
            "server_id": self.server_id,
            "step": self.step,
            "attempt": self.attempt,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class FlightRecorder:
    """Bounded, clock-bound event log shared by every instrumented layer.

    Disabled by default: ``record`` is a cheap no-op until
    :meth:`configure` (or ``ClusterConfig.trace_enabled``) turns it on. The
    ring buffer caps memory on long chaos runs; evicted events bump
    ``dropped`` and the ``trace.dropped_events`` counter so downstream
    consumers (DAG assembly, profiles) can surface the truncation instead of
    mis-reading a partial trace as complete. The ring is kept in ``seq``
    (record) order — a kept buffer is merged in, not appended — so every
    read sees one order and eviction drops the oldest event.
    """

    def __init__(
        self, metrics, enabled: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.enabled = enabled
        self.max_events = max_events
        self.dropped = 0
        #: tail sampling policy; None = retain everything (legacy behavior)
        self.sampling: Optional[SamplingPolicy] = None
        #: events discarded by a sample-out decision (not ring evictions)
        self.sampled_out = 0
        self._clock: Callable[[], float] = lambda: 0.0
        self._events: deque[TraceEvent] = deque()
        #: per-travel buffers awaiting their terminal keep/drop decision, as
        #: plain ``TraceEvent`` field tuples: most are sampled out, so the
        #: event object is built only once a buffer is kept or read
        self._pending: dict[int, list[tuple]] = {}
        #: travel id → (keep, reason) once decided
        self._decisions: dict[int, tuple[bool, Optional[str]]] = {}
        self._dropped_by_travel: dict[Optional[int], int] = {}
        self._seq = itertools.count(1)
        #: the registry every drop and keep decision is counted into
        self._metrics = metrics

    # -- wiring --------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def configure(
        self,
        enabled: Optional[bool] = None,
        max_events: Optional[int] = None,
        sampling: Any = _UNSET,
    ) -> None:
        if enabled is not None:
            self.enabled = enabled
        if sampling is not _UNSET:
            self.sampling = sampling
        if max_events is not None:
            self.max_events = max_events
            while len(self._events) > self.max_events:
                evicted = self._events.popleft()
                self._note_drop(evicted.travel_id)

    @property
    def sampling_active(self) -> bool:
        return self.enabled and self.sampling is not None

    # -- recording -----------------------------------------------------------

    def record(
        self,
        kind: str,
        travel_id: Optional[int] = None,
        exec_id: Optional[int] = None,
        parent_exec_id: Optional[int] = None,
        server_id: Optional[int] = None,
        step: Optional[int] = None,
        attempt: int = 0,
        **attrs: Any,
    ) -> None:
        if not self.enabled:
            return
        seq = next(self._seq)
        clock = self._clock()
        if self.sampling is not None and travel_id is not None:
            decision = self._decisions.get(travel_id)
            if decision is None:
                # undecided: buffer until the traversal's terminal
                buffered = self._pending.get(travel_id)
                if buffered is None:
                    buffered = self._pending[travel_id] = []
                buffered.append((
                    seq, clock, kind, travel_id, exec_id, parent_exec_id,
                    server_id, step, attempt, attrs,
                ))
                return
            if not decision[0]:
                self.sampled_out += 1
                return
        self._events.append(TraceEvent(
            seq, clock, kind, travel_id, exec_id, parent_exec_id, server_id,
            step, attempt, attrs,
        ))
        if len(self._events) > self.max_events:
            evicted = self._events.popleft()
            self._note_drop(evicted.travel_id)

    def finalize_travel(
        self, travel_id: int, keep: bool, reason: Optional[str] = None
    ) -> None:
        """Commit (``keep=True``) or discard one traversal's buffered events.

        The tail-sampling decision point: called at the traversal's terminal
        by the telemetry plane, once the outcome (failed / slow / sampled /
        healthy) is known. Late events for a decided traversal follow the
        decision directly.
        """
        buffered = self._pending.pop(travel_id, [])
        self._decisions[travel_id] = (keep, reason)
        if keep:
            # the buffer's seqs ascend: lift the ring's events recorded after
            # its first, merge the two ascending runs back in
            events, later = self._events, []
            while events and buffered and events[-1].seq > buffered[0][0]:
                later.append(events.pop())
            events.extend(heapq.merge(
                reversed(later), itertools.starmap(TraceEvent, buffered),
                key=_SEQ,
            ))
            while len(self._events) > self.max_events:
                evicted = self._events.popleft()
                self._note_drop(evicted.travel_id)
            self._metrics.count(
                "trace.kept_traces", reason=reason or "unspecified"
            )
        else:
            self.sampled_out += len(buffered)
            self._metrics.count("trace.sampled_out_traces")
            self._metrics.count("trace.sampled_out_events", len(buffered))

    def keep_all_pending(self, reason: str) -> None:
        """Commit every undecided traversal's buffer (coordinator crash: the
        outcome of in-flight traversals is about to be decided by recovery —
        retain their history)."""
        for tid in sorted(self._pending):
            self.finalize_travel(tid, keep=True, reason=reason)

    def _note_drop(self, travel_id: Optional[int] = None) -> None:
        self.dropped += 1
        self._dropped_by_travel[travel_id] = (
            self._dropped_by_travel.get(travel_id, 0) + 1
        )
        # label value must always be a str: mixed int/str label values
        # would break the snapshot's sorted-key rendering
        label = str(travel_id) if travel_id is not None else "untracked"
        self._metrics.count("trace.dropped_events", travel_id=label)

    def dropped_for(self, travel_id: Optional[int]) -> int:
        """Ring evictions attributable to one traversal (plus the untracked
        evictions, which could have belonged to any traversal)."""
        return self._dropped_by_travel.get(travel_id, 0) + (
            self._dropped_by_travel.get(None, 0) if travel_id is not None else 0
        )

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    # -- reading -------------------------------------------------------------

    def _view(self) -> list[TraceEvent]:
        """Committed ring plus still-pending buffers, merged in ``seq``
        (record) order."""
        if not self._pending:
            return list(self._events)
        return list(heapq.merge(
            self._events,
            *(itertools.starmap(TraceEvent, b) for b in self._pending.values()),
            key=_SEQ,
        ))

    def __len__(self) -> int:
        return len(self._events) + sum(len(b) for b in self._pending.values())

    def events(self) -> list[TraceEvent]:
        return self._view()

    def events_for(self, travel_id: int) -> list[TraceEvent]:
        return [e for e in self._view() if e.travel_id == travel_id]

    def travel_ids(self) -> list[int]:
        """Travel ids with at least one recorded event, in first-seen order."""
        seen: dict[int, None] = {}
        for e in self._view():
            if e.travel_id is not None:
                seen.setdefault(e.travel_id, None)
        return list(seen)

    def timeline(self) -> list[dict[str, Any]]:
        return [e.as_dict() for e in self._view()]

    def to_json(self) -> str:
        return canonical_json(self.timeline())


# -- DAG reconstruction ------------------------------------------------------


@dataclass
class DagNode:
    """One traversal execution, merged across all records that mention it."""

    exec_id: int
    server_id: Optional[int] = None
    step: Optional[int] = None
    attempt: int = 0
    created_at: Optional[float] = None
    first_received: Optional[float] = None
    last_terminated: Optional[float] = None
    receive_count: int = 0
    terminate_count: int = 0
    #: actual work-unit processings (terminations with reason "ok")
    process_count: int = 0
    reasons: list[str] = field(default_factory=list)
    replays: int = 0
    retries: int = 0
    dup_drops: int = 0
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.terminate_count:
            return "terminated"
        if self.receive_count:
            return "received"
        return "lost"

    def as_dict(self) -> dict[str, Any]:
        return {
            "exec_id": self.exec_id,
            "server_id": self.server_id,
            "step": self.step,
            "attempt": self.attempt,
            "created_at": self.created_at,
            "first_received": self.first_received,
            "last_terminated": self.last_terminated,
            "status": self.status,
            "receive_count": self.receive_count,
            "terminate_count": self.terminate_count,
            "process_count": self.process_count,
            "reasons": sorted(set(self.reasons)),
            "replays": self.replays,
            "retries": self.retries,
            "dup_drops": self.dup_drops,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }


@dataclass
class DagEdge:
    """A creation edge; ``parent is None`` marks a root dispatch."""

    parent: Optional[int]
    child: int
    kind: str = "dispatch"
    count: int = 1
    retries: int = 0
    replays: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "parent": self.parent,
            "child": self.child,
            "kind": self.kind,
            "count": self.count,
            "retries": self.retries,
            "replays": self.replays,
        }


@dataclass
class TraversalDag:
    """The reconstructed execution DAG of one traversal."""

    travel_id: int
    status: str  # "ok" | "failed" | "running"
    attempts: int
    nodes: dict[int, DagNode]
    edges: dict[tuple[Optional[int], int], DagEdge]
    events: int
    truncated: bool = False
    dropped_events: int = 0
    warnings: list[str] = field(default_factory=list)
    #: clock of the ``travel.complete/failed/cancelled`` event; None while
    #: the traversal is running (or its terminal was evicted)
    finished_at: Optional[float] = None

    @property
    def roots(self) -> list[int]:
        return sorted(e.child for e in self.edges.values() if e.parent is None)

    @property
    def processed_units(self) -> int:
        """Work units actually processed (``exec.terminated`` with reason
        "ok") — one ``engine.unit_vertices`` observation each."""
        return sum(n.process_count for n in self.nodes.values())

    def reachable(self) -> set[int]:
        """Nodes reachable from the (synthetic) root via creation edges."""
        out: dict[Optional[int], list[int]] = {}
        for edge in self.edges.values():
            out.setdefault(edge.parent, []).append(edge.child)
        seen: set[int] = set()
        stack = list(out.get(None, []))
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(out.get(nid, ()))
        return seen

    def verify(self) -> None:
        """Hard structural checks: rooted, acyclic, no orphans.

        Raises :class:`TraceError` unless the recorder truncated (then the
        missing records are reported as warnings instead — a partial ring
        buffer cannot prove anything about evicted history).
        """
        problems: list[str] = []
        orphans = sorted(
            n.exec_id
            for n in self.nodes.values()
            if n.created_at is None and (n.receive_count or n.terminate_count)
        )
        if orphans:
            problems.append(f"orphan executions (no creation record): {orphans[:8]}")
        unreachable = sorted(set(self.nodes) - self.reachable())
        if unreachable:
            problems.append(f"executions unreachable from the root: {unreachable[:8]}")
        cycle = self._find_cycle()
        if cycle:
            problems.append(f"cycle through executions {cycle}")
        if not problems:
            return
        if self.truncated:
            self.warnings.extend(problems)
            return
        raise TraceError(
            f"travel {self.travel_id}: malformed execution DAG: "
            + "; ".join(problems)
        )

    def _find_cycle(self) -> Optional[list[int]]:
        out: dict[int, list[int]] = {}
        indeg: dict[int, int] = {n: 0 for n in self.nodes}
        for edge in self.edges.values():
            if edge.parent is None or edge.parent not in self.nodes:
                continue
            out.setdefault(edge.parent, []).append(edge.child)
            if edge.child in indeg:
                indeg[edge.child] += 1
        ready = [n for n, d in sorted(indeg.items()) if d == 0]
        visited = 0
        while ready:
            nid = ready.pop()
            visited += 1
            for child in out.get(nid, ()):
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if visited == len(self.nodes):
            return None
        return sorted(n for n, d in indeg.items() if d > 0)[:8]

    def to_payload(self) -> dict[str, Any]:
        """Canonical plain-dict form (deterministic, sorted)."""
        return {
            "travel_id": self.travel_id,
            "status": self.status,
            "attempts": self.attempts,
            "events": self.events,
            "truncated": self.truncated,
            "dropped_events": self.dropped_events,
            "warnings": list(self.warnings),
            "roots": self.roots,
            "nodes": [
                self.nodes[nid].as_dict() for nid in sorted(self.nodes)
            ],
            "edges": [
                self.edges[key].as_dict()
                for key in sorted(
                    self.edges, key=lambda pc: (pc[0] if pc[0] is not None else -1, pc[1])
                )
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_payload())


_TERMINAL_STATUS = {
    "travel.complete": "ok",
    "travel.failed": "failed",
    "travel.cancelled": "cancelled",
}


def assemble_trace(
    events: Iterable[TraceEvent],
    travel_id: int,
    *,
    dropped: int = 0,
    verify: bool = True,
) -> TraversalDag:
    """Reconstruct one traversal's execution DAG from recorded events.

    ``dropped`` is the recorder's eviction count: when non-zero the DAG is
    marked truncated and structural violations degrade to warnings.
    """
    nodes: dict[int, DagNode] = {}
    edges: dict[tuple[Optional[int], int], DagEdge] = {}
    status = "running"
    finished_at: Optional[float] = None
    attempts = 0
    nevents = 0

    def node(eid: int) -> DagNode:
        n = nodes.get(eid)
        if n is None:
            n = nodes[eid] = DagNode(exec_id=eid)
        return n

    for ev in events:
        if ev.travel_id != travel_id:
            continue
        nevents += 1
        attempts = max(attempts, ev.attempt)
        if ev.kind == "exec.created":
            n = node(ev.exec_id)
            if n.created_at is None:
                n.created_at = ev.clock
            if ev.server_id is not None:
                n.server_id = ev.server_id
            if ev.step is not None:
                n.step = ev.step
            n.attempt = max(n.attempt, ev.attempt)
            key = (ev.parent_exec_id, ev.exec_id)
            edge = edges.get(key)
            if edge is None:
                edges[key] = DagEdge(
                    parent=ev.parent_exec_id,
                    child=ev.exec_id,
                    kind=str(ev.attrs.get("edge", "dispatch")),
                )
            else:
                edge.count += 1
        elif ev.kind == "exec.received":
            n = node(ev.exec_id)
            n.receive_count += 1
            if n.first_received is None:
                n.first_received = ev.clock
            if n.server_id is None and ev.server_id is not None:
                n.server_id = ev.server_id
            if n.step is None and ev.step is not None:
                n.step = ev.step
        elif ev.kind == "exec.terminated":
            n = node(ev.exec_id)
            n.terminate_count += 1
            n.last_terminated = ev.clock
            reason = str(ev.attrs.get("reason", "ok"))
            n.reasons.append(reason)
            if reason == "ok":
                n.process_count += 1
                for k, v in ev.attrs.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        n.stats[k] = n.stats.get(k, 0) + v
        elif ev.kind == "exec.replayed":
            n = node(ev.exec_id)
            n.replays += 1
            for key, edge in edges.items():
                if key[1] == ev.exec_id:
                    edge.replays += 1
        elif ev.kind == "net.retry":
            # Annotate only known executions: tracing enabled mid-run can see
            # retries of executions whose creation predates the recorder.
            if ev.exec_id is not None and ev.exec_id in nodes:
                n = nodes[ev.exec_id]
                n.retries += 1
                inbound = [e for (p, c), e in edges.items() if c == ev.exec_id]
                if inbound:
                    inbound[0].retries += 1
        elif ev.kind == "net.dup_drop":
            if ev.exec_id is not None and ev.exec_id in nodes:
                nodes[ev.exec_id].dup_drops += 1
        elif ev.kind in _TERMINAL_STATUS:
            status = _TERMINAL_STATUS[ev.kind]
            finished_at = ev.clock

    dag = TraversalDag(
        travel_id=travel_id,
        status=status,
        attempts=attempts,
        nodes=nodes,
        edges=edges,
        events=nevents,
        truncated=dropped > 0,
        dropped_events=dropped,
        finished_at=finished_at,
    )
    if dropped > 0:
        dag.warnings.append(
            f"flight recorder dropped {dropped} events (ring buffer full); "
            "the reconstructed DAG may be incomplete"
        )
    if verify:
        dag.verify()
    return dag


def assemble_all(recorder: FlightRecorder, *, verify: bool = True) -> list[TraversalDag]:
    """One DAG per traversal that left records in ``recorder``."""
    events = recorder.events()
    return [
        assemble_trace(events, tid, dropped=recorder.dropped_for(tid), verify=verify)
        for tid in recorder.travel_ids()
    ]


# -- Chrome trace_event export ------------------------------------------------

_TRAVEL_EVENT_NAMES = {
    "travel.submit": "submit",
    "travel.restart": "restart",
    "travel.complete": "complete",
    "travel.failed": "FAILED",
    "travel.cancelled": "CANCELLED",
}


def _us(t: float) -> int:
    return int(round(t * 1e6))


def chrome_trace(
    recorder: FlightRecorder,
    *,
    pid_base: int = 0,
    label: Optional[str] = None,
) -> dict[str, Any]:
    """Render every recorded traversal as a Chrome ``trace_event`` payload.

    Open the written file in ``chrome://tracing`` or https://ui.perfetto.dev:
    each backend server is a process row (the coordinator is ``pid_base``),
    executions are complete ("X") slices on their server, creation edges are
    flow arrows ("s"/"f"), and faults/retries/travel milestones are instants.
    """
    events = recorder.events()
    dags = {
        d.travel_id: d
        for d in (
            assemble_trace(events, tid, dropped=recorder.dropped_for(tid), verify=False)
            for tid in recorder.travel_ids()
        )
    }
    out: list[dict[str, Any]] = []
    prefix = f"{label} " if label else ""

    def pid_of(server_id: Optional[int]) -> int:
        # COORDINATOR (-1) and unknown servers land on the base process row.
        if server_id is None or server_id < 0:
            return pid_base
        return pid_base + 1 + server_id

    pids_seen: dict[int, str] = {pid_base: f"{prefix}coordinator"}
    flow_ids = itertools.count(1)

    for dag in dags.values():
        for nid in sorted(dag.nodes):
            n = dag.nodes[nid]
            if n.first_received is None:
                continue
            pid = pid_of(n.server_id)
            if n.server_id is not None and n.server_id >= 0:
                pids_seen.setdefault(pid, f"{prefix}server {n.server_id}")
            end = n.last_terminated if n.last_terminated is not None else n.first_received
            out.append(
                {
                    "name": f"L{n.step if n.step is not None else '?'} exec {nid}",
                    "cat": "exec",
                    "ph": "X",
                    "ts": _us(n.first_received),
                    "dur": max(_us(end) - _us(n.first_received), 1),
                    "pid": pid,
                    "tid": dag.travel_id,
                    "args": n.as_dict(),
                }
            )
        for key in sorted(
            dag.edges, key=lambda pc: (pc[0] if pc[0] is not None else -1, pc[1])
        ):
            edge = dag.edges[key]
            child = dag.nodes.get(edge.child)
            if child is None or child.first_received is None:
                continue
            parent = dag.nodes.get(edge.parent) if edge.parent is not None else None
            if parent is not None and parent.last_terminated is None:
                continue
            fid = next(flow_ids)
            src_ts = (
                parent.last_terminated
                if parent is not None
                else child.created_at if child.created_at is not None else 0.0
            )
            src_pid = pid_of(parent.server_id) if parent is not None else pid_base
            out.append(
                {
                    "name": edge.kind,
                    "cat": "edge",
                    "ph": "s",
                    "id": fid,
                    "ts": _us(src_ts),
                    "pid": src_pid,
                    "tid": dag.travel_id,
                }
            )
            out.append(
                {
                    "name": edge.kind,
                    "cat": "edge",
                    "ph": "f",
                    "bp": "e",
                    "id": fid,
                    "ts": max(_us(child.first_received), _us(src_ts)),
                    "pid": pid_of(child.server_id),
                    "tid": dag.travel_id,
                }
            )

    for ev in events:
        if ev.kind in _TRAVEL_EVENT_NAMES:
            out.append(
                {
                    "name": _TRAVEL_EVENT_NAMES[ev.kind],
                    "cat": "travel",
                    "ph": "i",
                    "s": "p",
                    "ts": _us(ev.clock),
                    "pid": pid_base,
                    "tid": ev.travel_id if ev.travel_id is not None else 0,
                    "args": {k: ev.attrs[k] for k in sorted(ev.attrs)},
                }
            )
        elif ev.kind in ("fault.crash", "fault.recover"):
            pid = pid_of(ev.server_id)
            out.append(
                {
                    "name": ev.kind,
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "ts": _us(ev.clock),
                    "pid": pid,
                    "tid": 0,
                }
            )
        elif ev.kind in ("coord.crash", "coord.recover", "coord.replay", "coord.fenced"):
            out.append(
                {
                    "name": ev.kind,
                    "cat": "coord",
                    "ph": "i",
                    "s": "g" if ev.kind in ("coord.crash", "coord.recover") else "t",
                    "ts": _us(ev.clock),
                    "pid": pid_base,
                    "tid": ev.travel_id if ev.travel_id is not None else 0,
                    "args": {k: ev.attrs[k] for k in sorted(ev.attrs)},
                }
            )

    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": pids_seen[pid]},
        }
        for pid in sorted(pids_seen)
    ]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


_VALID_PH = {"X", "B", "E", "i", "I", "s", "t", "f", "M", "C"}


def _bad_number(value: Any) -> bool:
    return isinstance(value, float) and (math.isnan(value) or math.isinf(value))


def validate_trace(payload: Any) -> list[str]:
    """Schema problems in a Chrome ``trace_event`` payload; empty = healthy.

    The ``validate_snapshot``-style gate the bench CLI and CI run over every
    exported trace: structural keys, known phases, finite non-negative
    timestamps, durations on complete events, and flow-id presence.
    """
    problems: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a 'traceEvents' list"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PH:
            problems.append(f"{where}.ph={ph!r} is not a known phase")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}.name missing or empty")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}.{key} missing or not an int")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or _bad_number(ts) or ts < 0:
            problems.append(f"{where}.ts={ts!r} is not a finite non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or _bad_number(dur) or dur < 0:
                problems.append(f"{where}.dur={dur!r} invalid for a complete event")
        if ph in ("s", "t", "f") and "id" not in ev:
            problems.append(f"{where} flow event has no id")
    return problems
