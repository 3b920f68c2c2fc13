"""Compiled traversal plans.

A :class:`TraversalPlan` is the validated, immutable form of a GTravel chain
that engines execute. Level numbering:

* level 0 — the source working set (after ``v()``/``va()``);
* level k — the working set after traversing step k's edges (1-based).

``rtn_levels`` holds the levels marked with ``rtn()``. When empty, the plan
returns the final level (the BFS default the paper describes); when
non-empty, exactly the marked levels are returned, and a marked vertex is
returned only if some path through it reaches the end of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import QueryError
from repro.ids import VertexId
from repro.lang.filters import FilterSet


@dataclass(frozen=True)
class Step:
    """One traversal step: follow edges with any of ``labels`` (an OR over
    labels — our extension; the paper's ``e()`` takes one label), filtered by
    ``edge_filters``, into destination vertices filtered by
    ``vertex_filters``."""

    labels: tuple[str, ...]
    edge_filters: FilterSet = field(default_factory=FilterSet)
    vertex_filters: FilterSet = field(default_factory=FilterSet)

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            # Accept the common single-label spelling Step("read", ...).
            object.__setattr__(self, "labels", (self.labels,))
        if not self.labels or any(not l for l in self.labels):
            raise QueryError("a step needs at least one non-empty edge label")

    @property
    def label(self) -> str:
        """The first (usually only) label; display/back-compat helper."""
        return self.labels[0]

    def describe(self) -> str:
        inner = ", ".join(repr(l) for l in self.labels)
        out = f".e({inner})"
        for f in self.edge_filters.filters:
            out += f".ea({f.key!r}, {f.op.value}, {f.value!r})"
        for f in self.vertex_filters.filters:
            out += f".va({f.key!r}, {f.op.value}, {f.value!r})"
        return out


#: ``group_count`` keys the servers can resolve without a property read:
#: the vertex type is encoded in the location-index key.
_KEY_ENCODED_BYS = (None, "label", "type")


@dataclass(frozen=True)
class AggregateSpec:
    """A coordinator-side aggregation attached to a linear plan.

    ``kind`` is ``"count"`` or ``"group_count"``; ``by`` names the grouping
    key for group_count — ``"label"``/``"type"`` group by vertex type (key-
    encoded, no property read), any other string groups by that property's
    value (vertices missing the property land in the ``None`` bucket).
    """

    kind: str
    by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("count", "group_count"):
            raise QueryError(f"unknown aggregate kind {self.kind!r}")
        if self.kind == "count" and self.by is not None:
            raise QueryError("count() takes no grouping key")
        if self.kind == "group_count" and not isinstance(self.by, (str, type(None))):
            raise QueryError("group_count(by=...) requires a string key or None")

    @property
    def needs_keys(self) -> bool:
        """True when servers must attach a per-vertex group key to the final
        result report (any group_count)."""
        return self.kind == "group_count"

    @property
    def needs_props(self) -> bool:
        """True when the group key requires the vertex's attribute block
        (a property grouping; type grouping is key-encoded)."""
        return self.kind == "group_count" and self.by not in _KEY_ENCODED_BYS

    def describe(self) -> str:
        if self.kind == "count":
            return ".count()"
        if self.by is None:
            return ".group_count()"
        return f".group_count(by={self.by!r})"


@dataclass(frozen=True)
class AggregateResult:
    """The reduced value of an :class:`AggregateSpec` over a final frontier.

    ``groups`` is canonically ordered — ``None`` bucket last, then by the
    string form of the key — so identical traversals produce byte-identical
    renderings on every rerun.
    """

    kind: str
    total: int
    groups: tuple[tuple[Any, int], ...] = ()

    def as_dict(self) -> dict:
        return dict(self.groups)


def canonical_groups(items) -> tuple[tuple[Any, int], ...]:
    """Deterministic ordering for group-count buckets."""
    return tuple(sorted(items, key=lambda kv: (kv[0] is None, str(kv[0]))))


def reduce_aggregate(
    spec: AggregateSpec, final_vertices, keys: Mapping[VertexId, Any]
) -> AggregateResult:
    """The one aggregation reduce, shared by the oracle and the coordinator.

    ``final_vertices`` is the deduplicated final frontier; ``keys`` maps each
    vertex to its group key (vertices absent from ``keys`` land in the
    ``None`` bucket — e.g. ``group_count`` on a property some vertices lack).
    The reduce is idempotent under at-least-once delivery because it runs
    over the deduplicated vertex set, not over per-message counts.
    """
    if spec.kind == "count":
        return AggregateResult(kind="count", total=len(final_vertices))
    counter: dict[Any, int] = {}
    for vid in final_vertices:
        key = keys.get(vid)
        counter[key] = counter.get(key, 0) + 1
    return AggregateResult(
        kind="group_count",
        total=len(final_vertices),
        groups=canonical_groups(counter.items()),
    )


@dataclass(frozen=True)
class TraversalPlan:
    """The engine-facing query representation."""

    source_ids: Optional[tuple[VertexId, ...]]  # None = all vertices
    source_filters: FilterSet
    steps: tuple[Step, ...]
    rtn_levels: frozenset[int]
    #: planner annotation — engines may push edge filters into the storage
    #: scan (results are unchanged: the engine re-applies every filter)
    pushdown: bool = False
    #: planner annotation — the final step's destinations go straight to the
    #: result set without being dispatched as executions (valid only when the
    #: final step has no vertex filters and no intermediate rtn marks)
    short_circuit_final: bool = False
    #: coordinator-side reduction over the final level (``count()`` /
    #: ``group_count(by=...)``); None = plain vertex-set return
    aggregate: Optional[AggregateSpec] = None

    def __post_init__(self) -> None:
        for level in self.rtn_levels:
            if not (0 <= level <= len(self.steps)):
                raise QueryError(
                    f"rtn level {level} out of range 0..{len(self.steps)}"
                )
        if self.source_ids is not None and len(self.source_ids) == 0:
            raise QueryError("v() with explicit ids requires at least one id")
        if self.aggregate is not None and self.has_intermediate_returns:
            raise QueryError(
                "aggregates reduce the final level; rtn() marks at other "
                "levels cannot be combined with count()/group_count()"
            )

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def final_level(self) -> int:
        return len(self.steps)

    @property
    def return_levels(self) -> frozenset[int]:
        """Levels whose vertices the traversal returns."""
        if self.rtn_levels:
            return self.rtn_levels
        return frozenset({self.final_level})

    @property
    def effective_final_level(self) -> int:
        """The last level that actually dispatches executions: one short of
        ``final_level`` when the final step is short-circuited."""
        if self.short_circuit_final and self.num_steps >= 1:
            return self.final_level - 1
        return self.final_level

    @property
    def has_intermediate_returns(self) -> bool:
        """True if some returned level is not the final one (needs the
        report-destination redirection machinery of paper §IV-D)."""
        return any(level < self.final_level for level in self.return_levels)

    def explain(self, planner: Optional["object"] = None) -> dict:
        """The EXPLAIN document (Gremlin-style ``explain()``) of this plan
        under ``planner`` — a :class:`~repro.lang.optimizer.QueryPlanner`,
        ``off`` when omitted. See :func:`repro.obs.explain.explain_document`."""
        from repro.lang.optimizer import QueryPlanner
        from repro.obs.explain import explain_document

        return explain_document((planner or QueryPlanner()).plan(self))

    def describe(self) -> str:
        """A printable, paper-style rendering of the plan."""
        if self.source_ids is None:
            out = "GTravel.v()"
        else:
            ids = ", ".join(map(str, self.source_ids[:4]))
            if len(self.source_ids) > 4:
                ids += ", ..."
            out = f"GTravel.v({ids})"
        for f in self.source_filters.filters:
            out += f".va({f.key!r}, {f.op.value}, {f.value!r})"
        if 0 in self.rtn_levels:
            out += ".rtn()"
        for level, step in enumerate(self.steps, start=1):
            out += step.describe()
            if level in self.rtn_levels:
                out += ".rtn()"
        if self.aggregate is not None:
            out += self.aggregate.describe()
        return out
