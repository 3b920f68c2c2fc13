"""Shared per-vertex visit logic: disk-cost assembly and expansion semantics.

Both engines funnel every vertex visit through these helpers so that the
traversal *semantics* (filters, anchors, returns) are identical by
construction; only the coordination strategy differs between Sync-GT and the
asynchronous engines.

What a visit reads and how it expands depends only on the plan and the
levels it serves, so :func:`visit_spec` derives it once per travel and
levels tuple (:class:`VisitSpec`, memoized on the
:class:`~repro.engine.registry.TravelEntry`) rather than once per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from repro.engine.frontier import extend_anchors, intermediate_rtn_levels, merge_entry
from repro.engine.registry import TravelEntry
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


def labels_needed(plan: TraversalPlan, levels: Sequence[int]) -> set[str]:
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
    plan: TraversalPlan, levels: Sequence[int], level0_override: Optional[FilterSet]
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


def needs_edge_props(plan: TraversalPlan, levels: Sequence[int]) -> bool:
    """True if expanding any of ``levels`` evaluates an ``ea()`` filter —
    the only reader of edge properties, so other visits project them away."""
    final_level = plan.final_level
    for lvl in levels:
        if lvl < final_level and plan.steps[lvl].edge_filters:
            return True
    return False


def pushdown_preds(
    plan: TraversalPlan, levels: tuple[int, ...]
) -> Optional[dict[str, FilterSet]]:
    """Predicate pushdown: a single-level visit hands its step's edge filters
    to the storage scan (a merged multi-level visit keeps the unfiltered
    block — other levels may need other edges)."""
    if plan.pushdown and len(levels) == 1 and levels[0] < plan.final_level:
        step = plan.steps[levels[0]]
        if step.edge_filters:
            return {l: step.edge_filters for l in step.labels}
    return None


class LabelSet(frozenset):
    """The edge labels one visit reads, with the split :func:`read_vertex`
    needs made once: ``forward`` labels share one merged scan, ``reverse``
    (``~label``) ones are read one by one in sorted order; ``single`` is the
    forward label when there is exactly one."""

    __slots__ = ("forward", "reverse", "single")

    def __new__(cls, labels=()):
        self = super().__new__(cls, labels)
        self.reverse = tuple(sorted(l for l in self if l.startswith("~")))
        self.forward = frozenset(self.difference(self.reverse)) if self.reverse else self
        self.single = next(iter(self.forward)) if len(self.forward) == 1 else None
        return self


class LevelFacts(NamedTuple):
    """What expanding a vertex at one level needs from the plan."""

    #: ``matches`` of the level's vertex filters; None when it has none
    vertex_match: Optional[Callable[[dict[str, Any]], bool]]
    #: the level carries an intermediate ``rtn()``: extend the anchors
    extends_anchors: bool
    #: the intermediate rtn levels, ascending (one anchor set each)
    rtn_levels: tuple[int, ...]
    final: bool
    #: final level, and the plan returns it
    returns_final: bool
    #: ``group_count`` keys are attached to final results
    groups: bool
    #: the property a ``group_count`` groups by; None = the vertex type
    group_prop: Optional[str]
    #: non-final levels: the step's labels, edge filter and next level
    labels: tuple[str, ...]
    edge_match: Optional[Callable[[Optional[dict[str, Any]]], bool]]
    next_level: int
    #: planner annotation: the next level's vertices are final results,
    #: recorded here instead of dispatched
    short_circuit: bool


def level_facts(
    plan: TraversalPlan,
    level: int,
    level0_override: Optional[FilterSet],
    rtn_levels: tuple[int, ...],
) -> LevelFacts:
    """The facts of ``level``; ``rtn_levels`` is
    :func:`~repro.engine.frontier.intermediate_rtn_levels` of ``plan``."""
    vfilters = filters_at(plan, level, level0_override)
    final_level = plan.final_level
    final = level == final_level
    agg = plan.aggregate
    groups = agg is not None and agg.needs_keys
    step = None if final else plan.steps[level]
    next_level = level + 1
    return LevelFacts(
        vertex_match=vfilters.matches if vfilters else None,
        extends_anchors=level in rtn_levels,
        rtn_levels=rtn_levels,
        final=final,
        returns_final=final and final_level in plan.return_levels,
        groups=groups,
        group_prop=agg.by if groups and agg.needs_props else None,
        labels=() if final else step.labels,
        edge_match=step.edge_filters.matches if step and step.edge_filters else None,
        next_level=next_level,
        # legal because the planner only sets the flag when the final step
        # has no vertex filters and no intermediate rtn marks compete for
        # the anchors machinery
        short_circuit=plan.short_circuit_final and next_level == final_level,
    )


@dataclass(frozen=True, slots=True)
class VisitSpec:
    """Everything about one visit that follows from the plan and the levels
    it serves (in serving order): what to read and how to expand."""

    labels: LabelSet  # labels_needed
    want_props: bool  # needs_props
    edge_props: bool  # needs_edge_props
    edge_preds: Optional[dict[str, FilterSet]]  # pushdown_preds
    facts: tuple[LevelFacts, ...]  # one per level, same order

    @property
    def reads(self) -> bool:
        """False when nothing is read (e.g. an unfiltered final level): the
        visit is served from the request itself."""
        return bool(self.labels) or self.want_props


def derive_visit_spec(
    plan: TraversalPlan,
    levels: tuple[int, ...],
    level0_override: Optional[FilterSet],
    facts: Optional[tuple[LevelFacts, ...]] = None,
) -> VisitSpec:
    """The visit spec, derived afresh (:func:`visit_spec` memoizes it).
    ``level0_override`` replaces the source filters at level 0; ``facts``,
    when given, are the levels' facts already derived."""
    if facts is None:
        rtn_levels = intermediate_rtn_levels(plan)
        facts = tuple(
            level_facts(plan, lvl, level0_override if lvl == 0 else None, rtn_levels)
            for lvl in levels
        )
    return VisitSpec(
        labels=LabelSet(labels_needed(plan, levels)),
        want_props=needs_props(plan, levels, level0_override),
        edge_props=needs_edge_props(plan, levels),
        edge_preds=pushdown_preds(plan, levels),
        facts=facts,
    )


def visit_spec(
    entry: TravelEntry, levels: tuple[int, ...], sources_indexed: bool
) -> VisitSpec:
    """The spec of a visit at ``levels`` for this travel, derived on first use
    and kept on the entry (so it goes when the travel is unregistered).

    ``sources_indexed``: level 0 was enumerated through the vertex-type
    index, so the type filter is already met and the level-0 override is
    the entry's ``source_info.reduced_filters``.
    """
    key = (levels, sources_indexed)
    spec = entry.visit_specs.get(key)
    if spec is None:
        override = entry.source_info.reduced_filters if sources_indexed else None
        facts = None
        if len(levels) > 1:  # a merged visit shares its levels' facts
            facts = tuple(
                visit_spec(entry, (lvl,), sources_indexed).facts[0] for lvl in levels
            )
        spec = derive_visit_spec(entry.plan, levels, override, facts)
        entry.visit_specs[key] = spec
    return spec


def read_vertex(
    store: GraphStore,
    vid: VertexId,
    want_labels: Iterable[str],
    want_props: bool,
    edge_preds: Optional[dict[str, FilterSet]] = None,
    edge_props: bool = True,
) -> VisitData:
    """Perform the (single) storage access for a visit.

    One label → one sequential edge scan; several labels → one scan over the
    vertex's whole edge block (the layout keeps all its edges adjacent), as
    execution merging requires. Attribute scan added only when filters need
    properties. ``edge_preds`` (label → edge FilterSet) pushes predicates
    into the storage scan — safe because :func:`expand` re-applies every
    edge filter to whatever surfaces. ``edge_props=False`` (see
    :func:`needs_edge_props`) lets the store skip decoding edge properties:
    same records, same cost, ``None`` in their place. ``want_labels`` given
    as a :class:`LabelSet` (a :class:`VisitSpec`'s) is not split again.
    """
    cost = IOCost()
    props: Optional[dict[str, Any]] = None
    if want_props:
        props, c = store.vertex_props(vid)
        cost += c
    edges: EdgesByLabel = {}
    # Reverse (~label) adjacency lives in its own grouped key region, so it
    # is always read per label; forward labels keep the merged-scan path.
    if not isinstance(want_labels, LabelSet):
        want_labels = LabelSet(want_labels)
    fwd_labels = want_labels.forward

    def _pred(label: str):
        if edge_preds:
            fs = edge_preds.get(label)
            if fs:
                return fs.matches
        return None

    label = want_labels.single
    if label is not None:
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
    for label in want_labels.reverse:
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
    """:func:`expand` at ``level`` of ``plan``, deriving the level's facts
    on the spot (the engines take them from their :class:`VisitSpec`)."""
    facts = level_facts(plan, level, level0_override, rtn_levels)
    return expand(facts, vid, anchors, data, owner_fn, sinks, vertex_type)


def expand(
    facts: LevelFacts,
    vid: VertexId,
    anchors: Anchors,
    data: VisitData,
    owner_fn: Callable[[VertexId], ServerId],
    sinks: ExpandSinks,
    vertex_type: Optional[str],
) -> str:
    """Apply filters and produce next-level entries / returns for one
    (level, vertex, anchors) item whose disk data is already in hand.

    Returns one of ``"filtered"``, ``"final"``, ``"expanded"`` for metrics.
    """
    vertex_match = facts.vertex_match
    if vertex_match is not None:
        props = dict(data.props) if data.props is not None else {}
        if vertex_type is not None:
            props.setdefault("type", vertex_type)
        if not vertex_match(props):
            return "filtered"
    if facts.extends_anchors:
        anchors = extend_anchors(anchors, vid)
    if facts.final:
        if facts.returns_final:
            sinks.final_results.add(vid)
            if facts.groups:
                if facts.group_prop is not None:
                    props = dict(data.props) if data.props is not None else {}
                    sinks.final_groups[vid] = props.get(facts.group_prop)
                else:
                    sinks.final_groups[vid] = vertex_type
        for i, rtn_level in enumerate(facts.rtn_levels):
            for anchor in anchors[i]:
                sinks.anchors_by_owner.setdefault(
                    (rtn_level, owner_fn(anchor)), set()
                ).add(anchor)
        return "final"
    next_level = facts.next_level
    short_circuit = facts.short_circuit
    matches = facts.edge_match
    #: owner -> its (next_level, owner) bucket, resolved once per owner
    buckets: dict[ServerId, Entries] = {}
    for label in facts.labels:
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
