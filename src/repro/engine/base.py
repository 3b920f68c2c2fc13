"""Engine-facing result and statistics types, shared by all engines.

Every engine — the single-node reference oracle, Sync-GT, Async-GT, and
GraphTrek — produces a :class:`TraversalResult` (which vertices came back,
per return level) plus a :class:`TraversalStats` (what it cost). Differential
tests compare the former across engines; benchmarks report the latter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.ids import TravelId, VertexId
from repro.lang.plan import AggregateResult, TraversalPlan


class EngineKind(enum.Enum):
    """The three engines the paper evaluates (§VII), plus the oracle."""

    REFERENCE = "Reference"
    SYNC = "Sync-GT"
    ASYNC = "Async-GT"
    GRAPHTREK = "GraphTrek"


@dataclass(frozen=True)
class TraversalResult:
    """Vertices returned by one traversal, grouped by return level."""

    travel_id: TravelId
    returned: dict[int, frozenset[VertexId]]
    #: reduced value of the plan's ``count()``/``group_count()`` (when any)
    aggregate: Optional[AggregateResult] = None

    @property
    def vertices(self) -> frozenset[VertexId]:
        """Union of all returned levels."""
        out: set[VertexId] = set()
        for vids in self.returned.values():
            out.update(vids)
        return frozenset(out)

    def at_level(self, level: int) -> frozenset[VertexId]:
        return self.returned.get(level, frozenset())

    def same_vertices(self, other: "TraversalResult") -> bool:
        """Level-by-level equality of returned vertex sets."""
        levels = set(self.returned) | set(other.returned)
        return all(self.at_level(lv) == other.at_level(lv) for lv in levels)

    def same_result(self, other: "TraversalResult") -> bool:
        """Vertex-set equality plus aggregate equality (the differential
        contract for aggregate-bearing plans)."""
        return self.same_vertices(other) and self.aggregate == other.aggregate


@dataclass
class TraversalStats:
    """Cost counters for one traversal run.

    ``elapsed`` is in virtual seconds. The three visit counters mirror the
    paper's Fig. 7 instrumentation: every vertex request a server receives
    is exactly one of *real I/O*, *combined* (merged into another request's
    disk access), or *redundant* (dropped by the traversal-affiliate cache).
    """

    engine: EngineKind = EngineKind.REFERENCE
    elapsed: float = 0.0
    real_io_visits: int = 0
    combined_visits: int = 0
    redundant_visits: int = 0
    messages: int = 0
    bytes_sent: int = 0
    barrier_rounds: int = 0
    executions: int = 0
    restarts: int = 0
    replays: int = 0  # fine-grained recovery re-dispatches
    per_server: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def total_visits(self) -> int:
        """All vertex requests received = real + combined + redundant."""
        return self.real_io_visits + self.combined_visits + self.redundant_visits

    def record_visit(self, server: int, kind: str, n: int = 1) -> None:
        if kind == "real":
            self.real_io_visits += n
        elif kind == "combined":
            self.combined_visits += n
        elif kind == "redundant":
            self.redundant_visits += n
        else:  # pragma: no cover - guarded by callers
            raise ValueError(f"unknown visit kind {kind!r}")
        bucket = self.per_server.setdefault(server, {})
        bucket[kind] = bucket.get(kind, 0) + n


@dataclass(frozen=True)
class TraversalOutcome:
    """Result + stats, as returned by the cluster client."""

    result: TraversalResult
    stats: TraversalStats
    plan: Optional[TraversalPlan] = None
    #: the plan as rewritten by the planner, when it differs from ``plan``
    executed_plan: Optional[TraversalPlan] = None
