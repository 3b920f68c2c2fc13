"""Shared per-vertex visit logic: disk-cost assembly and expansion semantics.

Both engines funnel every vertex visit through these helpers so that the
traversal *semantics* (filters, anchors, returns) are identical by
construction; only the coordination strategy differs between Sync-GT and the
asynchronous engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.engine.frontier import extend_anchors, merge_entry
from repro.ids import ServerId, VertexId
from repro.lang.filters import FilterSet
from repro.lang.plan import TraversalPlan
from repro.net.message import Anchors, Entries
from repro.storage.costmodel import IOCost
from repro.storage.layout import GraphStore

#: edges grouped by label: label -> [(dst, props), ...]; ``props`` is None
#: when the read projected edge properties away (see :func:`read_vertex`)
EdgesByLabel = dict[str, list[tuple[VertexId, Optional[dict[str, Any]]]]]


@dataclass
class VisitData:
    """What one disk access to a vertex yielded."""

    props: Optional[dict[str, Any]]  # None when no filter needed attributes
    edges: EdgesByLabel
    cost: IOCost


@dataclass
class ExpandSinks:
    """Accumulators one request-processing pass writes into."""

    #: (next level, owner server) -> entries to dispatch
    out: dict[tuple[int, ServerId], Entries] = field(default_factory=dict)
    #: final-level vertices to return (when the final level is returned)
    final_results: set[VertexId] = field(default_factory=set)
    #: (rtn level, owner server) -> anchors that completed a path
    anchors_by_owner: dict[tuple[int, ServerId], set[VertexId]] = field(
        default_factory=dict
    )
    #: final-level vertex -> group key (only for ``group_count`` plans)
    final_groups: dict[VertexId, Any] = field(default_factory=dict)


def labels_needed(plan: TraversalPlan, levels: list[int]) -> set[str]:
    """Edge labels a combined visit at these levels must scan."""
    labels: set[str] = set()
    for lvl in levels:
        if lvl < plan.final_level:
            labels.update(plan.steps[lvl].labels)
    return labels


def filters_at(
    plan: TraversalPlan, level: int, level0_override: Optional[FilterSet]
) -> FilterSet:
    """Vertex filters applied to a vertex arriving at ``level``."""
    if level == 0:
        return level0_override if level0_override is not None else plan.source_filters
    return plan.steps[level - 1].vertex_filters


def fs_needs_props(fs: FilterSet) -> bool:
    """True if evaluating ``fs`` needs the attribute block: the vertex type
    is known from the location index, so a type-only filter set does not."""
    return any(f.key != "type" for f in fs.filters)


def needs_props(
    plan: TraversalPlan, levels: list[int], level0_override: Optional[FilterSet]
) -> bool:
    agg = plan.aggregate
    if agg is not None and agg.needs_props and plan.final_level in levels:
        # a property-keyed group_count reads the attribute block at the
        # final level to resolve each vertex's group key
        return True
    for lvl in levels:
        fs = filters_at(plan, lvl, level0_override)
        if not fs:
            continue
        if plan.pushdown and not fs_needs_props(fs):
            # planner annotation: elide the attribute scan when only the
            # key-encoded type is filtered (expand_vertex injects it)
            continue
        return True
    return False


def needs_edge_props(plan: TraversalPlan, levels: list[int]) -> bool:
    """True if expanding any of ``levels`` evaluates an ``ea()`` filter —
    the only reader of edge properties, so other visits project them away."""
    final_level = plan.final_level
    for lvl in levels:
        if lvl < final_level and plan.steps[lvl].edge_filters:
            return True
    return False


def read_vertex(
    store: GraphStore,
    vid: VertexId,
    want_labels: set[str],
    want_props: bool,
    edge_preds: Optional[dict[str, FilterSet]] = None,
    edge_props: bool = True,
) -> VisitData:
    """Perform the (single) storage access for a visit.

    One label → one sequential edge scan; several labels → one scan over the
    vertex's whole edge block (the layout keeps all its edges adjacent), as
    execution merging requires. Attribute scan added only when filters need
    properties. ``edge_preds`` (label → edge FilterSet) pushes predicates
    into the storage scan — safe because :func:`expand_vertex` re-applies
    every edge filter to whatever surfaces. ``edge_props=False`` (see
    :func:`needs_edge_props`) lets the store skip decoding edge properties:
    same records, same cost, ``None`` in their place.
    """
    cost = IOCost()
    props: Optional[dict[str, Any]] = None
    if want_props:
        props, c = store.vertex_props(vid)
        cost += c
    edges: EdgesByLabel = {}
    # Reverse (~label) adjacency lives in its own grouped key region, so it
    # is always read per label; forward labels keep the merged-scan path.
    rev_labels = sorted(l for l in want_labels if l.startswith("~"))
    fwd_labels = {l for l in want_labels if not l.startswith("~")}

    def _pred(label: str):
        if edge_preds:
            fs = edge_preds.get(label)
            if fs:
                return fs.matches
        return None

    if len(fwd_labels) == 1:
        label = next(iter(fwd_labels))
        targets, c = store.edges(vid, label, _pred(label), edge_props)
        cost += c
        edges[label] = targets
    elif fwd_labels:
        preds = None
        if edge_preds:
            preds = {l: fs.matches for l, fs in edge_preds.items() if fs} or None
        all_edges, c = store.all_edges(vid, preds, edge_props)
        cost += c
        for label, dst, eprops in all_edges:
            if label in fwd_labels:
                edges.setdefault(label, []).append((dst, eprops))
        for label in fwd_labels:
            edges.setdefault(label, [])
    for label in rev_labels:
        targets, c = store.edges(vid, label, _pred(label), edge_props)
        cost += c
        edges[label] = targets
    return VisitData(props=props, edges=edges, cost=cost)


def expand_vertex(
    plan: TraversalPlan,
    level: int,
    vid: VertexId,
    anchors: Anchors,
    data: VisitData,
    owner_fn: Callable[[VertexId], ServerId],
    sinks: ExpandSinks,
    rtn_levels: tuple[int, ...],
    vertex_type: Optional[str],
    level0_override: Optional[FilterSet] = None,
) -> str:
    """Apply filters and produce next-level entries / returns for one
    (level, vertex, anchors) item whose disk data is already in hand.

    Returns one of ``"filtered"``, ``"final"``, ``"expanded"`` for metrics.
    """
    vfilters = filters_at(plan, level, level0_override)
    if vfilters:
        props = dict(data.props) if data.props is not None else {}
        if vertex_type is not None:
            props.setdefault("type", vertex_type)
        if not vfilters.matches(props):
            return "filtered"
    if level in rtn_levels:
        anchors = extend_anchors(anchors, vid)
    final_level = plan.final_level
    if level == final_level:
        if final_level in plan.return_levels:
            sinks.final_results.add(vid)
            agg = plan.aggregate
            if agg is not None and agg.needs_keys:
                if agg.needs_props:
                    props = dict(data.props) if data.props is not None else {}
                    sinks.final_groups[vid] = props.get(agg.by)
                else:
                    sinks.final_groups[vid] = vertex_type
        for i, rtn_level in enumerate(rtn_levels):
            for anchor in anchors[i]:
                sinks.anchors_by_owner.setdefault(
                    (rtn_level, owner_fn(anchor)), set()
                ).add(anchor)
        return "final"
    step = plan.steps[level]
    next_level = level + 1
    # planner annotation: a filter-free final step needs no dispatch — the
    # sender records destinations directly (legal because the planner only
    # sets the flag when the final step has no vertex filters and no
    # intermediate rtn marks compete for the anchors machinery)
    short_circuit = plan.short_circuit_final and next_level == final_level
    matches = step.edge_filters.matches if step.edge_filters else None
    #: owner -> its (next_level, owner) bucket, resolved once per owner
    buckets: dict[ServerId, Entries] = {}
    for label in step.labels:
        targets = data.edges.get(label, ())
        if matches is not None:
            targets = [edge for edge in targets if matches(edge[1])]
        if short_circuit:
            sinks.final_results.update([dst for dst, _ in targets])
            continue
        for dst, _ in targets:
            owner = owner_fn(dst)
            bucket = buckets.get(owner)
            if bucket is None:
                bucket = buckets[owner] = sinks.out.setdefault((next_level, owner), {})
            if anchors:
                merge_entry(bucket, dst, anchors)
            else:  # nothing to union (see merge_entry): an insert
                bucket.setdefault(dst, anchors)
    return "expanded"
