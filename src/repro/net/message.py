"""Typed RPC messages exchanged by backend servers and the coordinator.

These correspond to the paper's ZeroMQ RPCs: traversal dispatches between
servers (black circles in Fig. 3), status/progress reports to the coordinator
(green circles), and result returns. Each message knows its approximate wire
size so the network model can charge transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ids import ExecId, ServerId, TravelId, VertexId

#: Per-rtn-level anchor sets carried by a frontier vertex: ``anchors[i]`` is
#: the set of vertices at the i-th intermediate rtn level that lie on some
#: path leading to this vertex.
Anchors = tuple[frozenset[VertexId], ...]

#: A frontier batch: vertex id -> anchors.
Entries = dict[VertexId, Anchors]

_ENTRY_BYTES = 24  # id + framing
_ANCHOR_BYTES = 8
_HEADER_BYTES = 64
_PLAN_BYTES = 256  # serialized GTravel instance, shipped with each dispatch


def entries_nbytes(entries: Entries) -> int:
    total = 0
    for anchors in entries.values():
        total += _ENTRY_BYTES
        for level_set in anchors:
            total += _ANCHOR_BYTES * max(1, len(level_set))
    return total


@dataclass
class Message:
    """Base class; ``travel_id`` scopes every message to one traversal.

    ``epoch`` is the coordinator incarnation that (transitively) caused the
    message: stamped on every dispatch, echoed by servers on everything
    derived from it. A recovered coordinator runs under a new epoch and
    fences messages carrying an older one, so in-flight reports from before
    a coordinator crash can never corrupt post-recovery bookkeeping.
    """

    travel_id: TravelId
    epoch: int = 0

    @property
    def nbytes(self) -> int:
        """Approximate wire size, computed once per message: its sender, the
        wire counters and the latency model all read it, and nothing mutates
        a message after it is built."""
        size = self.__dict__.get("_nbytes")
        if size is None:
            size = self.__dict__["_nbytes"] = self._wire_size()
        return size

    def _wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass
class TraverseRequest(Message):
    """Continue a traversal: ``entries`` are working-set vertices at
    ``level``, owned by the destination server.

    ``all_sources=True`` is the level-0 broadcast form used when the plan's
    ``v()`` has no explicit ids (the server enumerates its local index).
    ``attempt`` tags the restart generation so stale requests from a failed
    attempt can be ignored.
    """

    level: int = 0
    entries: Entries = field(default_factory=dict)
    exec_id: ExecId = 0
    from_server: ServerId = -1
    all_sources: bool = False
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + _PLAN_BYTES + entries_nbytes(self.entries)


@dataclass
class ExecStatus(Message):
    """An execution's termination report plus the executions it created.

    The coordinator marks ``exec_id`` terminated, registers every
    ``created`` pair (exec id, target server), and expects
    ``results_sent`` result-bearing messages to eventually arrive.
    """

    exec_id: ExecId = 0
    server: ServerId = -1
    #: (exec id, target server, level it will work at)
    created: tuple[tuple[ExecId, ServerId, int], ...] = ()
    results_sent: int = 0
    level: Optional[int] = None  # level the execution worked at (progress)
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + 20 * len(self.created)


@dataclass
class ResultReport(Message):
    """Vertices to return to the client, at one return level.

    ``groups`` carries per-vertex group keys when the plan ends in a
    ``group_count()`` aggregate — ``(vertex id, key)`` pairs, sorted by
    vertex id so reports are deterministic. The coordinator reduces over
    the *deduplicated* vertex set, so re-sent reports (restarts,
    at-least-once delivery) cannot double-count.
    """

    level: int = 0
    vertices: frozenset[VertexId] = frozenset()
    groups: tuple = ()
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + 8 * len(self.vertices) + 16 * len(self.groups)


@dataclass
class SuccessReport(Message):
    """Final-step notification to an rtn server: these of your anchor
    vertices (at ``rtn_level``) lie on a completed path (paper Fig. 4)."""

    rtn_level: int = 0
    anchors: frozenset[VertexId] = frozenset()
    exec_id: ExecId = 0
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + 8 * len(self.anchors)


@dataclass
class ReplayExec(Message):
    """Fine-grained recovery (paper future work): the coordinator asks the
    server that *created* a lost execution to re-send its original dispatch.
    Receivers deduplicate replayed work through the same (travel, step,
    vertex) machinery as ordinary duplicates."""

    exec_id: ExecId = 0
    attempt: int = 0


# -- shard migration data plane (repro.rebalance) ----------------------------


@dataclass
class MigrateChunk(Message):
    """One batch of a shard migration's snapshot copy: raw KV pairs for a
    handful of vertices (attributes, grouped edges, and the ``~label``
    reverse-adjacency region), shipped source → target.

    ``travel_id`` carries the migration id (a disjoint id space), so the
    reliable channel and fault injector treat migration traffic exactly
    like traversal traffic. ``routing_version`` is the routing-table
    version the migration started under; the receiver fences chunks from
    a superseded migration. Imports are idempotent: the migrator dedupes
    by ``(mid, seq)``, so duplicated or re-sent chunks apply once.
    """

    mid: int = 0
    seq: int = 0
    #: raw KV pairs, exactly as exported from the source store
    pairs: tuple = ()
    #: (vertex id, namespace) location-index entries for the chunk
    meta: tuple = ()
    routing_version: int = 0
    from_server: ServerId = -1

    def _wire_size(self) -> int:
        payload = sum(len(k) + len(v) for k, v in self.pairs)
        return _HEADER_BYTES + payload + 16 * len(self.meta)


@dataclass
class MigrateAck(Message):
    """Target's acknowledgement that chunk ``seq`` of migration ``mid`` is
    durably applied (or was already applied — acks are idempotent too)."""

    mid: int = 0
    seq: int = 0
    server: ServerId = -1


# -- synchronous engine control plane ---------------------------------------


@dataclass
class SyncBatch(Message):
    """Frontier batch buffered at the destination until the step barrier."""

    level: int = 0
    entries: Entries = field(default_factory=dict)
    from_server: ServerId = -1
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + _PLAN_BYTES + entries_nbytes(self.entries)


@dataclass
class SyncStartStep(Message):
    """Coordinator's barrier release: process buffered level-``level``
    batches once ``expect_batches`` of them have arrived."""

    level: int = 0
    expect_batches: int = 0
    all_sources: bool = False
    attempt: int = 0


@dataclass
class SyncStepDone(Message):
    """A server's barrier report: finished its share of one step, having
    sent ``sent_counts[j]`` batches to each server j, and ``results_sent``
    result messages to the coordinator."""

    level: int = 0
    server: ServerId = -1
    sent_counts: dict[ServerId, int] = field(default_factory=dict)
    results_sent: int = 0
    anchor_counts: dict[ServerId, int] = field(default_factory=dict)
    attempt: int = 0

    def _wire_size(self) -> int:
        return _HEADER_BYTES + 12 * len(self.sent_counts)
