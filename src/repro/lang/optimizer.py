"""Cost-based adaptive traversal planner.

GraphTrek's engines (paper §IV) execute GTravel chains exactly as written;
every optimization there is execution-time (caching, merging, priority
scheduling). This module adds the *plan-time* half: a deterministic
cost-based planner in the spirit of GRAPHITE's operator selection and the
Gremlin graph-algebra rewrites — it estimates per-step cardinalities from
:class:`~repro.graph.stats.GraphSummary` statistics and rewrites the
compiled :class:`~repro.lang.plan.TraversalPlan` while provably preserving
semantics.

Rewrite rules (each records a :class:`Rewrite` for ``explain()``):

``fuse_filters``
    Adjacent ``va()``/``ea()`` filters on one step are an AND chain, so
    duplicates are dropped (first occurrence kept) and two RANGE filters on
    the same key intersect into one. A would-be-empty intersection
    (``lo > hi``, which :class:`PropertyFilter` rejects) keeps both filters:
    they simply match nothing, exactly like the intersection would.

``reverse_chain``  (``cost`` mode only)
    A chain whose cheap end is the far end is evaluated backwards over
    reverse edges (``~label``), with each step's vertex filters re-anchored
    to the level they constrain. Only legal when the chain has no explicit
    source ids and no intermediate ``rtn()`` marks; ``rtn_levels`` becomes
    ``{0}`` so backward pruning returns exactly the original final level,
    and ``level_map`` lets the coordinator map results back to original
    levels. Chosen only when the estimate is < ``REVERSE_MARGIN`` × forward.

``pushdown_filters`` / ``elide_props`` / ``short_circuit_final``
    Plan *annotations*: edge predicates ship into the storage scan, property
    reads are skipped when only the (key-encoded) type is filtered, and a
    filter-free final step emits results directly instead of dispatching a
    last wave of executions. None of these can change results — the engine
    re-applies every filter on whatever the annotated path surfaces.

``rtn()`` marks pin rewrite boundaries: a plan with intermediate returns is
never reversed or short-circuited, because both rewrites renumber or skip
the levels those marks name.

The planner itself is pure and deterministic: same plan + same summary →
byte-identical :class:`PlannedQuery` payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import QueryError
from repro.lang.filters import FilterOp, FilterSet, PropertyFilter
from repro.lang.plan import Step, TraversalPlan

if TYPE_CHECKING:  # summary is duck-typed at runtime; avoids a lang<->graph cycle
    from repro.graph.stats import GraphSummary

PLANNER_MODES = ("off", "rules", "cost")

#: a reversed plan must beat the forward estimate by this factor — hysteresis
#: against estimator noise flipping the direction of a near-tied chain
REVERSE_MARGIN = 0.9


@dataclass(frozen=True)
class CostParams:
    """Cost-model weights, in (virtual) seconds, mirroring the simulated
    runtime's dominant terms: a seek per visited vertex, a props-block scan
    when properties are needed, and per-record / per-dispatch overheads."""

    seek: float = 2e-3
    props_scan: float = 2e-3
    record: float = 3e-5
    dispatch: float = 3e-4
    visit: float = 1.5e-4


@dataclass(frozen=True)
class Rewrite:
    """One applied rewrite, for ``explain()`` rendering."""

    name: str
    detail: str

    def payload(self) -> dict:
        return {"name": self.name, "detail": self.detail}


@dataclass(frozen=True)
class LevelEstimate:
    """Estimated cardinalities and cost for one plan level. ``rows_in`` is
    the number of vertices *processed* at the level (comparable to the
    profile's per-step ``vertices`` stat); ``rows_out`` is the estimated
    working-set size after the level's filters."""

    level: int
    rows_in: float
    rows_out: float
    cost: float

    def payload(self) -> dict:
        return {
            "level": self.level,
            "rows_in": round(self.rows_in, 3),
            "rows_out": round(self.rows_out, 3),
            "cost": round(self.cost, 6),
        }


@dataclass(frozen=True)
class PlanCost:
    levels: tuple[LevelEstimate, ...]
    total: float

    def payload(self) -> dict:
        return {
            "total": round(self.total, 6),
            "levels": [lv.payload() for lv in self.levels],
        }


@dataclass(frozen=True)
class PlannedQuery:
    """The planner's output: the plan as compiled, the plan to execute, and
    the audit trail connecting them."""

    original: TraversalPlan
    executed: TraversalPlan
    mode: str
    rewrites: tuple[Rewrite, ...] = ()
    cost_original: Optional[PlanCost] = None
    cost_executed: Optional[PlanCost] = None
    #: executed level → original level (identity when absent); only a
    #: reversed plan populates a non-trivial map
    level_map: dict[int, int] = field(default_factory=dict)

    def map_level(self, level: int) -> int:
        return self.level_map.get(level, level)


# -- rewrite: filter fusion ----------------------------------------------------


def _fuse_filterset(fs: FilterSet) -> tuple[FilterSet, list[str]]:
    """Dedupe repeated filters and intersect same-key RANGE pairs; order of
    first occurrence is preserved. Returns (fused set, human-readable notes)."""
    notes: list[str] = []
    out: list[PropertyFilter] = []
    for flt in fs.filters:
        if flt in out:
            notes.append(f"dropped duplicate {flt.key} {flt.op.value}")
            continue
        if flt.op is FilterOp.RANGE:
            prior = next(
                (
                    i
                    for i, p in enumerate(out)
                    if p.op is FilterOp.RANGE and p.key == flt.key
                ),
                None,
            )
            if prior is not None:
                plo, phi = out[prior].value
                lo, hi = flt.value
                try:
                    nlo, nhi = max(plo, lo), min(phi, hi)
                    merged = PropertyFilter(flt.key, FilterOp.RANGE, (nlo, nhi))
                except (TypeError, QueryError):
                    # incomparable bounds, or an empty intersection
                    # (lo > hi, which PropertyFilter rejects): keep both —
                    # the AND of the pair matches nothing / stays as written
                    out.append(flt)
                    continue
                out[prior] = merged
                notes.append(f"intersected RANGE on {flt.key}")
                continue
        out.append(flt)
    return FilterSet(tuple(out)), notes


def fuse_filters(plan: TraversalPlan) -> tuple[TraversalPlan, list[Rewrite]]:
    """Fuse each level's filter chain. Pure simplification — the AND of the
    fused set is extensionally identical to the original chain."""
    rewrites: list[Rewrite] = []
    src, notes = _fuse_filterset(plan.source_filters)
    all_notes = [f"L0: {n}" for n in notes]
    steps: list[Step] = []
    changed = src is not plan.source_filters and notes
    for level, step in enumerate(plan.steps, start=1):
        ef, ef_notes = _fuse_filterset(step.edge_filters)
        vf, vf_notes = _fuse_filterset(step.vertex_filters)
        if ef_notes or vf_notes:
            changed = True
            all_notes += [f"L{level}: {n}" for n in ef_notes + vf_notes]
            steps.append(replace(step, edge_filters=ef, vertex_filters=vf))
        else:
            steps.append(step)
    if not changed:
        return plan, rewrites
    fused = replace(
        plan,
        source_filters=src if notes else plan.source_filters,
        steps=tuple(steps),
    )
    rewrites.append(Rewrite("fuse_filters", "; ".join(all_notes)))
    return fused, rewrites


# -- rewrite: annotations (pushdown, short-circuit) ----------------------------


def _annotate(plan: TraversalPlan) -> tuple[TraversalPlan, list[Rewrite]]:
    rewrites: list[Rewrite] = []
    updates: dict[str, object] = {}
    if any(step.edge_filters for step in plan.steps):
        updates["pushdown"] = True
        pushed = sum(len(s.edge_filters) for s in plan.steps)
        rewrites.append(
            Rewrite(
                "pushdown_filters",
                f"{pushed} edge predicate(s) evaluated inside the storage scan",
            )
        )
    if (
        plan.num_steps >= 1
        and not plan.has_intermediate_returns
        and not plan.steps[-1].vertex_filters
        # a group_count needs every final vertex *visited* so its group key
        # (type or property) can be captured; short-circuit records
        # destinations sender-side without a visit, so it is pinned off
        and not (plan.aggregate is not None and plan.aggregate.needs_keys)
    ):
        updates["short_circuit_final"] = True
        rewrites.append(
            Rewrite(
                "short_circuit_final",
                f"level {plan.final_level} destinations emitted directly; "
                "final dispatch wave skipped",
            )
        )
    if not updates:
        return plan, rewrites
    return replace(plan, **updates), rewrites


# -- rewrite: chain reversal ---------------------------------------------------


def _reversal_candidate(
    plan: TraversalPlan, summary: GraphSummary
) -> Optional[tuple[TraversalPlan, dict[int, int]]]:
    """Build the reversed form of ``plan``, or None when reversal is illegal.

    Original:  F0 -step1(l1,ef1,vf1)-> F1 ... -stepn-> Fn
    Reversed:  Fn -~stepn-> Fn-1 ... -~step1-> F0, with rtn at level 0 only:
    backward pruning then returns exactly the original final set.
    """
    n = plan.num_steps
    if (
        n < 1
        or plan.source_ids is not None
        or plan.has_intermediate_returns
        # aggregates reduce the final level at the coordinator; a reversed
        # plan returns its results through the rtn-redirection machinery,
        # which does not carry group keys — reversal is pinned off
        or plan.aggregate is not None
        or any(l.startswith("~") for s in plan.steps for l in s.labels)
    ):
        return None
    # source filters of the reversed plan: the original final step's vertex
    # filters, plus an inferred `type EQ T` (for the level-0 index) when the
    # statistics pin the final destinations to exactly one type
    final_filters = plan.steps[-1].vertex_filters
    if not any(f.key == "type" and f.op is FilterOp.EQ for f in final_filters.filters):
        dst_types: set[str] = set()
        for label in plan.steps[-1].labels:
            dst_types.update(summary.label_stats(label).dst_type_counts)
        if len(dst_types) == 1:
            inferred = PropertyFilter("type", FilterOp.EQ, next(iter(dst_types)))
            final_filters = FilterSet((inferred,) + final_filters.filters)
    steps: list[Step] = []
    for j in range(1, n + 1):
        orig = plan.steps[n - j]  # original step i = n - j + 1
        if n - j >= 1:
            vfilters = plan.steps[n - j - 1].vertex_filters
        else:
            vfilters = plan.source_filters
        steps.append(
            Step(
                labels=tuple("~" + l for l in orig.labels),
                edge_filters=orig.edge_filters,
                vertex_filters=vfilters,
            )
        )
    reversed_plan = TraversalPlan(
        source_ids=None,
        source_filters=final_filters,
        steps=tuple(steps),
        rtn_levels=frozenset({0}),
    )
    level_map = {j: n - j for j in range(0, n + 1)}
    return reversed_plan, level_map


# -- cost model ----------------------------------------------------------------


def _fs_needs_props(fs: FilterSet) -> bool:
    """True if evaluating ``fs`` requires the properties block (the vertex
    type is encoded in the key, so a type-only filter set does not)."""
    return any(f.key != "type" for f in fs.filters)


def _source_frontier(plan: TraversalPlan, summary: GraphSummary) -> dict[str, float]:
    """Estimated level-0 working set, per vertex type."""
    if plan.source_ids is not None:
        total = float(len(set(plan.source_ids)))
        all_vertices = max(summary.total_vertices, 1)
        frontier = {
            t: total * c / all_vertices for t, c in sorted(summary.type_counts.items())
        }
    else:
        type_eq = next(
            (
                f
                for f in plan.source_filters.filters
                if f.key == "type" and f.op is FilterOp.EQ
            ),
            None,
        )
        if type_eq is not None:
            frontier = {
                str(type_eq.value): float(
                    summary.type_counts.get(type_eq.value, 0)
                )
            }
        else:
            frontier = {
                t: float(c) for t, c in sorted(summary.type_counts.items())
            }
    return {
        t: w * summary.vertex_selectivity(t, plan.source_filters)
        for t, w in frontier.items()
    }


def estimate_plan(
    plan: TraversalPlan, summary: GraphSummary, params: CostParams
) -> PlanCost:
    """Walk the plan over the summary, tracking a per-type frontier.

    ``rows_in`` at level k is the number of vertices processed (read +
    expanded) there; the final level's vertices are only *recorded* unless
    a later filter forces a visit — and cost 0 when short-circuited.
    """
    levels: list[LevelEstimate] = []
    # level 0: enumerate + filter candidate sources
    if plan.source_ids is not None:
        candidates = float(len(set(plan.source_ids)))
    else:
        type_eq = next(
            (
                f
                for f in plan.source_filters.filters
                if f.key == "type" and f.op is FilterOp.EQ
            ),
            None,
        )
        if type_eq is not None:
            candidates = float(summary.type_counts.get(type_eq.value, 0))
        else:
            candidates = float(summary.total_vertices)
    frontier = _source_frontier(plan, summary)
    rows_out = sum(frontier.values())
    cost0 = candidates * (
        params.seek
        + (params.props_scan if _fs_needs_props(plan.source_filters) else 0.0)
        + params.visit
    )
    levels.append(LevelEstimate(0, candidates, rows_out, cost0))
    for k, step in enumerate(plan.steps, start=1):
        next_frontier: dict[str, float] = {}
        edges_total = 0.0
        for vtype in sorted(frontier):
            weight = frontier[vtype]
            if weight <= 0.0:
                continue
            for label in step.labels:
                stats = summary.label_stats(label)
                src_count = stats.src_type_counts.get(vtype, 0)
                type_total = summary.type_counts.get(vtype, 0)
                if src_count <= 0 or type_total <= 0:
                    continue
                edges = weight * src_count / type_total
                edges *= stats.edge_selectivity(step.edge_filters)
                dst_total = sum(stats.dst_type_counts.values())
                if dst_total <= 0:
                    continue
                edges_total += edges
                for dtype in sorted(stats.dst_type_counts):
                    share = edges * stats.dst_type_counts[dtype] / dst_total
                    next_frontier[dtype] = next_frontier.get(dtype, 0.0) + share
        # dedupe against the type population, then apply vertex filters
        frontier = {}
        for dtype in sorted(next_frontier):
            unique = min(
                next_frontier[dtype], float(summary.type_counts.get(dtype, 0))
            )
            sel = summary.vertex_selectivity(dtype, step.vertex_filters)
            frontier[dtype] = unique * sel
        arriving = sum(
            min(next_frontier[t], float(summary.type_counts.get(t, 0)))
            for t in next_frontier
        )
        rows_out = sum(frontier.values())
        needs_props = _fs_needs_props(step.vertex_filters)
        is_final = k == plan.final_level
        if is_final and plan.short_circuit_final:
            # destinations are recorded by the sender; no dispatch, no visit
            cost = edges_total * params.record
            rows_in = 0.0
        elif is_final and not needs_props and not step.vertex_filters:
            # final level vertices are recorded, not expanded
            cost = arriving * (params.dispatch * 0.25) + edges_total * params.record
            rows_in = arriving
        else:
            cost = arriving * (
                params.dispatch
                + params.seek
                + (params.props_scan if needs_props else 0.0)
                + params.visit
            ) + edges_total * params.record
            rows_in = arriving
        levels.append(LevelEstimate(k, rows_in, rows_out, cost))
    return PlanCost(tuple(levels), sum(lv.cost for lv in levels))


# -- the planner ---------------------------------------------------------------


@dataclass
class QueryPlanner:
    """Deterministic plan-time optimizer.

    ``mode``:
      * ``off``   — identity: the compiled plan executes as written;
      * ``rules`` — statistics-free rewrites (fusion, pushdown,
        short-circuit);
      * ``cost``  — ``rules`` plus cost-estimated chain reversal, with
        per-level estimates attached for ``explain()``/``profile()``.

    ``summary`` is the merged per-server :class:`GraphSummary` (required for
    costing; without it, ``cost`` degrades to ``rules``). ``reverse_available``
    says the storage layer ingested ``~label`` reverse edges, which gates the
    reversal rewrite.
    """

    mode: str = "off"
    summary: Optional[GraphSummary] = None
    reverse_available: bool = False
    params: CostParams = field(default_factory=CostParams)

    def __post_init__(self) -> None:
        if self.mode not in PLANNER_MODES:
            raise QueryError(
                f"unknown planner mode {self.mode!r}; expected one of "
                f"{', '.join(PLANNER_MODES)}"
            )

    def plan(self, plan: TraversalPlan) -> PlannedQuery:
        if self.mode == "off":
            return PlannedQuery(original=plan, executed=plan, mode=self.mode)
        rewrites: list[Rewrite] = []
        fused, fr = fuse_filters(plan)
        rewrites += fr
        executed = fused
        level_map: dict[int, int] = {}
        cost_original: Optional[PlanCost] = None
        cost_executed: Optional[PlanCost] = None
        if self.mode == "cost" and self.summary is not None:
            annotated_fwd, _ = _annotate(fused)
            cost_original = estimate_plan(annotated_fwd, self.summary, self.params)
            if self.reverse_available:
                candidate = _reversal_candidate(fused, self.summary)
                if candidate is not None:
                    rev_plan, rev_map = candidate
                    annotated_rev, _ = _annotate(rev_plan)
                    rev_cost = estimate_plan(
                        annotated_rev, self.summary, self.params
                    )
                    if rev_cost.total < REVERSE_MARGIN * cost_original.total:
                        executed = rev_plan
                        level_map = rev_map
                        rewrites.append(
                            Rewrite(
                                "reverse_chain",
                                "evaluated via reverse edges "
                                f"(est {rev_cost.total:.4f}s vs forward "
                                f"{cost_original.total:.4f}s)",
                            )
                        )
        executed, ar = _annotate(executed)
        rewrites += ar
        if self.mode == "cost" and self.summary is not None:
            cost_executed = estimate_plan(executed, self.summary, self.params)
        return PlannedQuery(
            original=plan,
            executed=executed,
            mode=self.mode,
            rewrites=tuple(rewrites),
            cost_original=cost_original,
            cost_executed=cost_executed,
            level_map=level_map,
        )


# -- composite cost estimation -------------------------------------------------
#
# Composite plans (repeat / union / back) execute as a sequence of linear
# child plans driven by the coordinator's orchestrator; each child is planned
# individually at dispatch time, so rewrite boundaries are pinned at
# repeat/union scopes by construction (a rewrite can never cross an operator
# boundary — it only ever sees one child). The estimator below exists for
# EXPLAIN: a coarse, deterministic per-operator cost walk over the summary.

#: assumed iterations for ``repeat().until()`` loops, whose true depth is
#: data-dependent (bounded by the op's ``max_depth``)
UNTIL_ASSUMED_ITERS = 4

#: assumed selectivity for a standalone filter node in a sub-chain
FILTER_ASSUMED_SELECTIVITY = 0.5


@dataclass(frozen=True)
class CompositeOpEstimate:
    """Per-top-level-operator estimate for a composite plan's EXPLAIN."""

    op: str
    detail: str
    rows_out: float
    cost: float

    def payload(self) -> dict:
        return {
            "op": self.op,
            "detail": self.detail,
            "rows_out": round(self.rows_out, 3),
            "cost": round(self.cost, 6),
        }


@dataclass(frozen=True)
class CompositePlanCost:
    ops: tuple[CompositeOpEstimate, ...]
    total: float

    def payload(self) -> dict:
        return {
            "total": round(self.total, 6),
            "ops": [op.payload() for op in self.ops],
        }


def _label_fanout(summary: GraphSummary, labels) -> float:
    """Expected out-edges per frontier vertex across ``labels``."""
    total_v = float(max(summary.total_vertices, 1))
    edges = 0.0
    for label in labels:
        stats = summary.label_stats(label)
        edges += float(sum(stats.src_type_counts.values()))
    return edges / total_v


def _estimate_step_run(
    summary: GraphSummary, params: CostParams, rows: float, steps
) -> tuple[float, float]:
    """(rows_out, cost) of running ``steps`` from a ``rows``-vertex frontier."""
    total_v = float(max(summary.total_vertices, 1))
    cost = 0.0
    for step in steps:
        edges = rows * _label_fanout(summary, step.labels)
        nxt = min(edges, total_v)
        cost += (
            rows * (params.seek + params.visit)
            + edges * params.record
            + nxt * params.dispatch
        )
        if step.vertex_filters:
            nxt *= FILTER_ASSUMED_SELECTIVITY
        rows = nxt
    return rows, cost


def _repeat_iters(op) -> int:
    """Iterations a repeat is costed at: its bound, or the assumed count."""
    if op.times is not None:
        return op.times
    return min(op.max_depth, UNTIL_ASSUMED_ITERS)


def _estimate_op(
    summary: GraphSummary, params: CostParams, rows: float, op, cost: float = 0.0
) -> tuple[float, float]:
    """(rows_out, ``cost`` plus the op's cost) of one step, filter, repeat or
    union run from a ``rows``-vertex frontier. The op's cost is added into
    ``cost`` term by term, so a sub-chain and a top-level operator sum their
    floats in the same order."""
    from repro.lang.composite import FilterNode, RepeatOp, Step

    if isinstance(op, Step):
        rows, c = _estimate_step_run(summary, params, rows, (op,))
        return rows, cost + c
    if isinstance(op, FilterNode):
        cost += rows * (params.seek + params.props_scan + params.visit)
        return rows * FILTER_ASSUMED_SELECTIVITY, cost
    if isinstance(op, RepeatOp):
        for _ in range(_repeat_iters(op)):
            rows, c = _estimate_sub_ops(summary, params, rows, op.body)
            cost += c
        return rows, cost
    merged = 0.0  # a union: every branch runs on the same frontier
    for branch in op.branches:
        out, c = _estimate_sub_ops(summary, params, rows, branch)
        merged += out
        cost += c
    return min(merged, float(max(summary.total_vertices, 1))), cost


def _estimate_sub_ops(
    summary: GraphSummary, params: CostParams, rows: float, ops
) -> tuple[float, float]:
    """(rows_out, cost) of a repeat-body / union-branch sub-chain."""
    cost = 0.0
    for op in ops:
        rows, cost = _estimate_op(summary, params, rows, op, cost)
    return rows, cost


def estimate_composite_plan(cplan, summary: GraphSummary, params: CostParams):
    """Coarse per-operator estimate of a composite plan, for EXPLAIN."""
    from repro.lang.composite import (
        AsOp,
        BackOp,
        FilterNode,
        RepeatOp,
        Step,
        describe_ops,
    )

    rows = float(len(cplan.source_ids))
    ops: list[CompositeOpEstimate] = []
    bindings: dict[str, float] = {}
    source_cost = rows * (
        params.seek
        + (params.props_scan if _fs_needs_props(cplan.source_filters) else 0.0)
        + params.visit
    )
    ops.append(CompositeOpEstimate("source", "v(...)", rows, source_cost))
    steps_since: dict[str, list] = {}
    for op in cplan.ops:
        if isinstance(op, AsOp):
            bindings[op.name] = rows
            steps_since[op.name] = []
            ops.append(CompositeOpEstimate("as", f"as_({op.name!r})", rows, 0.0))
        elif isinstance(op, BackOp):
            bound = bindings.get(op.name, rows)
            # one reverse pass over the intervening steps (or a forward
            # replay from the binding — same step count either way)
            _, cost = _estimate_step_run(
                summary, params, rows, steps_since.get(op.name, ())
            )
            rows = bound
            ops.append(
                CompositeOpEstimate("back", f"back({op.name!r})", rows, cost)
            )
        else:
            rows, cost = _estimate_op(summary, params, rows, op)
            if isinstance(op, Step):
                for trail in steps_since.values():
                    trail.append(op)
                kind, detail = "step", op.describe().lstrip(".")
            elif isinstance(op, FilterNode):
                kind, detail = "filter", "va(...)"
            elif isinstance(op, RepeatOp):
                loop = (
                    f"times({op.times})"
                    if op.times is not None
                    else f"until(..., max_depth={op.max_depth}) "
                    f"~{_repeat_iters(op)} iter(s)"
                )
                kind, detail = "repeat", f"repeat({describe_ops(op.body)}).{loop}"
            else:
                kind = "union"
                detail = f"union of {len(op.branches)} branch(es)"
            ops.append(CompositeOpEstimate(kind, detail, rows, cost))
    if cplan.aggregate is not None:
        ops.append(
            CompositeOpEstimate(
                "aggregate", cplan.aggregate.describe().lstrip("."), rows, 0.0
            )
        )
    return CompositePlanCost(tuple(ops), sum(op.cost for op in ops))
