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
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import QueryError
from repro.lang.composite import AsOp, BackOp, CompositePlan, FilterNode, RepeatOp
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
    the audit trail connecting them. A composite plan executes as compiled."""

    original: Union[TraversalPlan, CompositePlan]
    executed: Union[TraversalPlan, CompositePlan]
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
#
# One walk prices every plan: a linear chain is the all-steps case of the
# operator list. Composite operators (repeat / union / back) execute as a
# sequence of linear child plans, each planned individually at dispatch, so
# no rewrite crosses an operator boundary; the walk prices them for EXPLAIN.

#: assumed iterations for ``repeat().until()`` loops, whose true depth is
#: data-dependent (bounded by the op's ``max_depth``)
UNTIL_ASSUMED_ITERS = 4


def _repeat_iters(op) -> int:
    """Iterations a repeat is costed at: its bound, or the assumed count."""
    if op.times is not None:
        return op.times
    return min(op.max_depth, UNTIL_ASSUMED_ITERS)


def _filter_cost(rows: float, fs: FilterSet, params: CostParams) -> float:
    """Read and filter ``rows`` vertices: a seek each, plus a props-block
    scan when ``fs`` needs properties."""
    return rows * (
        params.seek
        + (params.props_scan if fs.needs_props else 0.0)
        + params.visit
    )


def _source_frontier(
    plan: Union[TraversalPlan, CompositePlan], summary: GraphSummary
) -> tuple[float, dict[str, float]]:
    """Level-0 candidates enumerated, and the estimated level-0 working set
    per vertex type."""
    if plan.source_ids is not None:
        candidates = float(len(set(plan.source_ids)))
        all_vertices = max(summary.total_vertices, 1)
        frontier = {
            t: candidates * c / all_vertices
            for t, c in sorted(summary.type_counts.items())
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
            candidates = float(summary.type_counts.get(type_eq.value, 0))
            frontier = {str(type_eq.value): candidates}
        else:
            candidates = float(summary.total_vertices)
            frontier = {
                t: float(c) for t, c in sorted(summary.type_counts.items())
            }
    return candidates, {
        t: w * summary.vertex_selectivity(t, plan.source_filters)
        for t, w in frontier.items()
    }


def _price_step(
    frontier: dict[str, float],
    step: Step,
    summary: GraphSummary,
    params: CostParams,
    final: bool = False,
    short_circuit: bool = False,
) -> tuple[dict[str, float], float, float]:
    """(per-type frontier after ``step``'s vertex filters, rows processed,
    cost) of one step from ``frontier``. A final step's vertices are only
    *recorded* unless a filter forces a visit — and cost 0 when
    short-circuited."""
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
    out: dict[str, float] = {}
    for dtype in sorted(next_frontier):
        unique = min(next_frontier[dtype], float(summary.type_counts.get(dtype, 0)))
        out[dtype] = unique * summary.vertex_selectivity(dtype, step.vertex_filters)
    arriving = sum(
        min(next_frontier[t], float(summary.type_counts.get(t, 0)))
        for t in next_frontier
    )
    if final and short_circuit:
        # destinations are recorded by the sender; no dispatch, no visit
        return out, 0.0, edges_total * params.record
    if final and not step.vertex_filters:
        # final level vertices are recorded, not expanded
        return out, arriving, (
            arriving * (params.dispatch * 0.25) + edges_total * params.record
        )
    return out, arriving, arriving * (
        params.dispatch
        + params.seek
        + (params.props_scan if step.vertex_filters.needs_props else 0.0)
        + params.visit
    ) + edges_total * params.record


def _price_ops(
    frontier: dict[str, float], ops, summary: GraphSummary, params: CostParams
) -> tuple[dict[str, float], float, float]:
    """(frontier, rows processed, cost) of an op sequence from ``frontier``:
    a filter scales each type by its selectivity, a repeat runs its body
    ``_repeat_iters`` times, and a union sums its branch frontiers per type,
    capped at the type's population."""
    rows_in = cost = 0.0
    for op in ops:
        if isinstance(op, Step):
            frontier, rows, c = _price_step(frontier, op, summary, params)
        elif isinstance(op, FilterNode):
            rows = sum(frontier.values())
            c = _filter_cost(rows, op.filters, params)
            frontier = {
                t: w * summary.vertex_selectivity(t, op.filters)
                for t, w in frontier.items()
            }
        elif isinstance(op, RepeatOp):
            rows = c = 0.0
            for _ in range(_repeat_iters(op)):
                frontier, r, cc = _price_ops(frontier, op.body, summary, params)
                rows, c = rows + r, c + cc
        else:  # a union: every branch runs on the same frontier
            rows = c = 0.0
            merged: dict[str, float] = {}
            for branch in op.branches:
                out, r, cc = _price_ops(frontier, branch, summary, params)
                rows, c = rows + r, c + cc
                for t, w in out.items():
                    merged[t] = merged.get(t, 0.0) + w
            frontier = {
                t: min(merged[t], float(summary.type_counts.get(t, 0)))
                for t in sorted(merged)
            }
        rows_in, cost = rows_in + rows, cost + c
    return frontier, rows_in, cost


def estimate_plan(
    plan: Union[TraversalPlan, CompositePlan],
    summary: GraphSummary,
    params: CostParams,
) -> PlanCost:
    """Walk the plan's operator list over the summary, tracking a per-type
    frontier; one :class:`LevelEstimate` per level, 0 to ``final_level``.

    ``rows_in`` at level k is the number of vertices processed (read +
    expanded) there. ``as_()`` and a filter stay on their level;
    ``back()`` restores the bound frontier at the price of the levels it
    rewinds over.
    """
    candidates, frontier = _source_frontier(plan, summary)
    levels = [
        LevelEstimate(
            0,
            candidates,
            sum(frontier.values()),
            _filter_cost(candidates, plan.source_filters, params),
        )
    ]
    linear = isinstance(plan, TraversalPlan)
    bound: dict[str, tuple[dict[str, float], int]] = {}
    for op in plan.steps if linear else plan.ops:
        if isinstance(op, AsOp):
            bound[op.name] = (frontier, len(levels))
            continue
        if isinstance(op, BackOp):
            frontier, at = bound[op.name]
            rows_in = sum(lv.rows_in for lv in levels[at:])
            cost = sum(lv.cost for lv in levels[at:])
        elif isinstance(op, Step):
            frontier, rows_in, cost = _price_step(
                frontier,
                op,
                summary,
                params,
                final=len(levels) == plan.final_level,
                short_circuit=linear and plan.short_circuit_final,
            )
        else:
            frontier, rows_in, cost = _price_ops(frontier, (op,), summary, params)
            if isinstance(op, FilterNode):
                last = levels.pop()
                rows_in, cost = last.rows_in + rows_in, last.cost + cost
        levels.append(
            LevelEstimate(len(levels), rows_in, sum(frontier.values()), cost)
        )
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

    A composite plan comes back unrewritten (with its estimate in ``cost``
    mode): the coordinator plans each child chain when it dispatches it.

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

    def plan(self, plan: Union[TraversalPlan, CompositePlan]) -> PlannedQuery:
        if self.mode == "off":
            return PlannedQuery(original=plan, executed=plan, mode=self.mode)
        if isinstance(plan, CompositePlan):
            # runs unrewritten: the orchestrator plans each child at dispatch
            cost = (
                estimate_plan(plan, self.summary, self.params)
                if self.mode == "cost" and self.summary is not None
                else None
            )
            return PlannedQuery(
                original=plan,
                executed=plan,
                mode=self.mode,
                cost_original=cost,
                cost_executed=cost,
            )
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
