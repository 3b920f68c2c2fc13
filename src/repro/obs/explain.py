"""GTravel ``explain()`` and ``Client.profile()`` (Gremlin-style, paper §III).

``explain_plan`` renders a compiled :class:`~repro.lang.plan.TraversalPlan`
as a structured, JSON-safe description of what the engines will execute:
source selector, per-step edge labels and property filters, and rtn()
redirection marks. No traversal runs.

``profile_traversal`` is the post-hoc half: given the flight-recorder DAG of
a completed traversal, it produces a per-step :class:`ProfileReport` —
fan-out, visited/filtered counts, per-server execution counts and skew,
wall-clock per step on the virtual clock, and cache-hit attribution. On the
simulated runtime the report is a pure function of (seed, configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.lang.filters import FilterSet
from repro.lang.optimizer import PlannedQuery
from repro.lang.plan import TraversalPlan
from repro.obs.metrics import canonical_json
from repro.obs.trace import TraversalDag

#: node stat keys aggregated into per-step profiles, in display order
_STEP_STATS = (
    "vertices",
    "created",
    "results_sent",
    "real",
    "cache_hits",
    "combined",
    "filtered",
    "absorbed",
    "decoded_blocks",
)


def _filters_payload(filters: FilterSet) -> list[dict[str, Any]]:
    out = []
    for f in filters.filters:
        value = f.value
        if isinstance(value, frozenset):
            value = sorted(value, key=repr)
        elif isinstance(value, tuple):
            value = list(value)
        out.append({"key": f.key, "op": f.op.value, "value": value})
    return out


def _aggregate_payload(spec) -> Optional[dict[str, Any]]:
    if spec is None:
        return None
    return {"kind": spec.kind, "by": spec.by}


def explain_plan(plan: TraversalPlan) -> dict[str, Any]:
    """The compiled step plan as a structured, canonical-JSON-safe dict."""
    steps = []
    for level, step in enumerate(plan.steps, start=1):
        steps.append(
            {
                "level": level,
                "labels": list(step.labels),
                "edge_filters": _filters_payload(step.edge_filters),
                "vertex_filters": _filters_payload(step.vertex_filters),
                "rtn": level in plan.rtn_levels,
            }
        )
    return {
        "query": plan.describe(),
        "source": {
            "ids": list(plan.source_ids) if plan.source_ids is not None else "all",
            "filters": _filters_payload(plan.source_filters),
            "rtn": 0 in plan.rtn_levels,
        },
        "steps": steps,
        "final_level": plan.final_level,
        "rtn_levels": sorted(plan.rtn_levels),
        "return_levels": sorted(plan.return_levels),
        "has_intermediate_returns": plan.has_intermediate_returns,
        "aggregate": _aggregate_payload(plan.aggregate),
        "annotations": {
            "pushdown": plan.pushdown,
            "short_circuit_final": plan.short_circuit_final,
        },
    }


def empty_plan_document() -> dict[str, Any]:
    """A well-formed EXPLAIN document for a chain with no ``v()`` yet: the
    same shape as :func:`explain_plan`, with an empty source and no steps."""
    return {
        "query": "GTravel",
        "source": {"ids": [], "filters": [], "rtn": False},
        "steps": [],
        "final_level": 0,
        "rtn_levels": [],
        "return_levels": [0],
        "has_intermediate_returns": False,
        "aggregate": None,
        "annotations": {"pushdown": False, "short_circuit_final": False},
    }


def _composite_op_payload(op) -> dict[str, Any]:
    """One composite operator (recursively) as a JSON-safe dict."""
    from repro.lang.composite import AsOp, BackOp, FilterNode, RepeatOp, UnionOp
    from repro.lang.plan import Step

    if isinstance(op, Step):
        return {
            "op": "step",
            "labels": list(op.labels),
            "edge_filters": _filters_payload(op.edge_filters),
            "vertex_filters": _filters_payload(op.vertex_filters),
        }
    if isinstance(op, FilterNode):
        return {"op": "filter", "filters": _filters_payload(op.filters)}
    if isinstance(op, RepeatOp):
        doc: dict[str, Any] = {
            "op": "repeat",
            "body": [_composite_op_payload(o) for o in op.body],
        }
        if op.times is not None:
            doc["times"] = op.times
        else:
            doc["until"] = _filters_payload(FilterSet((op.until,)))[0]
            doc["max_depth"] = op.max_depth
        return doc
    if isinstance(op, UnionOp):
        return {
            "op": "union",
            "branches": [
                [_composite_op_payload(o) for o in branch]
                for branch in op.branches
            ],
        }
    if isinstance(op, AsOp):
        return {"op": "as", "name": op.name}
    if isinstance(op, BackOp):
        return {"op": "back", "name": op.name}
    raise TypeError(f"unknown composite op {type(op).__name__}")  # pragma: no cover


def explain_composite(cplan, planner=None) -> dict[str, Any]:
    """EXPLAIN for a composite (repeat/union/back/aggregate) plan.

    Renders the operator tree and, when a ``cost``-mode planner with a graph
    summary is supplied, the per-operator cost estimates from
    :func:`~repro.lang.optimizer.estimate_composite_plan`. Rewrite boundaries
    are structural: the orchestrator plans every child chain it dispatches
    individually, so no rewrite ever crosses a repeat/union scope.
    """
    doc: dict[str, Any] = {
        "query": cplan.describe(),
        "type": "composite",
        "source": {
            "ids": list(cplan.source_ids or ()),
            "filters": _filters_payload(cplan.source_filters),
        },
        "ops": [_composite_op_payload(op) for op in cplan.ops],
        "final_level": cplan.final_level,
        "aggregate": _aggregate_payload(cplan.aggregate),
        "planner": planner.mode if planner is not None else "off",
        "estimate": None,
    }
    if (
        planner is not None
        and planner.mode == "cost"
        and planner.summary is not None
    ):
        from repro.lang.optimizer import estimate_composite_plan

        doc["estimate"] = estimate_composite_plan(
            cplan, planner.summary, planner.params
        ).payload()
    return doc


def explain_planned(planned: PlannedQuery) -> dict[str, Any]:
    """EXPLAIN with the planner in the loop: the plan as compiled, the plan
    as it will execute, the rewrites connecting them, and (in ``cost`` mode)
    the per-level cardinality/cost estimates for both."""
    return {
        "planner": planned.mode,
        "original": explain_plan(planned.original),
        "optimized": explain_plan(planned.executed),
        "rewrites": [r.payload() for r in planned.rewrites],
        "cost_original": (
            planned.cost_original.payload()
            if planned.cost_original is not None
            else None
        ),
        "cost_optimized": (
            planned.cost_executed.payload()
            if planned.cost_executed is not None
            else None
        ),
        "level_map": {str(k): v for k, v in sorted(planned.level_map.items())},
    }


@dataclass
class StepProfile:
    """Aggregated execution profile of one traversal level."""

    level: int
    executions: int = 0
    processed_units: int = 0
    fan_out: int = 0  # executions created out of this level
    #: first execution receipt at this level -> traversal terminal, virtual s
    wall_clock: Optional[float] = None
    per_server: dict[int, int] = field(default_factory=dict)
    retries: int = 0
    replays: int = 0
    dup_drops: int = 0
    lost: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def skew(self) -> float:
        """max/mean of per-server execution counts (1.0 = perfectly even)."""
        if not self.per_server:
            return 0.0
        counts = list(self.per_server.values())
        return max(counts) / (sum(counts) / len(counts))

    def as_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "executions": self.executions,
            "processed_units": self.processed_units,
            "fan_out": self.fan_out,
            "wall_clock": self.wall_clock,
            "per_server": {str(s): self.per_server[s] for s in sorted(self.per_server)},
            "skew": round(self.skew, 6),
            "retries": self.retries,
            "replays": self.replays,
            "dup_drops": self.dup_drops,
            "lost": self.lost,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }


@dataclass
class ProfileReport:
    """The full PROFILE result of one traversal run."""

    travel_id: int
    status: str
    query: str
    plan: dict[str, Any]
    elapsed: Optional[float]
    attempts: int
    steps: list[StepProfile]
    per_server: dict[int, int]
    warnings: list[str]
    trace: dict[str, Any]
    result_count: Optional[int] = None
    #: admission-queue wait (sched.submit → sched.launch, virtual seconds);
    #: None when the scheduler launched synchronously or tracing missed it
    queue_wait: Optional[float] = None
    #: planner audit trail (mode, rewrites, executed query) — empty dict
    #: when the run executed the plan as written
    planner: dict[str, Any] = field(default_factory=dict)
    #: estimated-vs-actual cardinality rows, one per executed level — empty
    #: when no cost estimate was attached to the run
    estimates: list[dict[str, Any]] = field(default_factory=list)

    @property
    def skew(self) -> float:
        if not self.per_server:
            return 0.0
        counts = list(self.per_server.values())
        return max(counts) / (sum(counts) / len(counts))

    def payload(self) -> dict[str, Any]:
        return {
            "travel_id": self.travel_id,
            "status": self.status,
            "query": self.query,
            "plan": self.plan,
            "elapsed": self.elapsed,
            "attempts": self.attempts,
            "result_count": self.result_count,
            "queue_wait": self.queue_wait,
            "per_server": {str(s): self.per_server[s] for s in sorted(self.per_server)},
            "skew": round(self.skew, 6),
            "warnings": list(self.warnings),
            "steps": [s.as_dict() for s in self.steps],
            "trace": self.trace,
            "planner": self.planner,
            "estimates": self.estimates,
        }

    def to_json(self) -> str:
        return canonical_json(self.payload())

    def format(self) -> str:
        """Human-readable per-step table (the README quickstart output)."""
        lines = [
            f"PROFILE travel {self.travel_id} [{self.status}] "
            f"elapsed={self.elapsed if self.elapsed is not None else '?'}s "
            f"attempts={self.attempts + 1}"
            + (
                f" queue_wait={self.queue_wait:.6f}s"
                if self.queue_wait is not None
                else ""
            ),
            f"  query: {self.query}",
            "  level  execs  units  fan-out  visited  cache-hit  wall-clock  skew",
        ]
        for s in self.steps:
            visited = s.stats.get("vertices", 0)
            hits = s.stats.get("cache_hits", 0)
            wall = f"{s.wall_clock:.6f}" if s.wall_clock is not None else "-"
            lines.append(
                f"  L{s.level:<5} {s.executions:<6} {s.processed_units:<6} "
                f"{s.fan_out:<8} {visited:<8} {hits:<10} {wall:<11} {s.skew:.2f}"
            )
        for warning in self.warnings:
            lines.append(f"  WARNING: {warning}")
        return "\n".join(lines)


def profile_traversal(
    dag: TraversalDag,
    plan: TraversalPlan,
    *,
    elapsed: Optional[float] = None,
    result_count: Optional[int] = None,
    queue_wait: Optional[float] = None,
    planned: Optional[PlannedQuery] = None,
) -> ProfileReport:
    """Aggregate one traversal's execution DAG into a per-step profile.

    With ``planned``, the per-level rows follow the *executed* plan (which
    may be reversed or short-circuited), the report carries the planner's
    audit trail, and — when a cost estimate is attached — estimated-vs-actual
    cardinality rows so estimator error is directly observable.
    """
    if planned is not None:
        plan = planned.executed
    by_level: dict[int, StepProfile] = {}

    def step(level: int) -> StepProfile:
        sp = by_level.get(level)
        if sp is None:
            sp = by_level[level] = StepProfile(level=level)
        return sp

    # Make every plan level present even if no execution reached it
    # (e.g. a filter emptied the frontier early).
    for level in range(plan.final_level + 1):
        step(level)

    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        level = node.step if node.step is not None else -1
        sp = step(level)
        sp.executions += 1
        sp.processed_units += node.process_count
        sp.retries += node.retries
        sp.replays += node.replays
        sp.dup_drops += node.dup_drops
        if node.status == "lost":
            sp.lost += 1
        if node.server_id is not None and node.server_id >= 0:
            sp.per_server[node.server_id] = sp.per_server.get(node.server_id, 0) + 1
        for key in _STEP_STATS:
            if key in node.stats:
                sp.stats[key] = sp.stats.get(key, 0) + int(node.stats[key])
        # a level runs from its earliest execution receipt to the
        # traversal's terminal (None while the traversal is running)
        if dag.finished_at is not None and node.first_received is not None:
            wall = dag.finished_at - node.first_received
            sp.wall_clock = wall if sp.wall_clock is None else max(sp.wall_clock, wall)

    for edge in dag.edges.values():
        if edge.parent is None:
            continue
        parent = dag.nodes.get(edge.parent)
        if parent is not None and parent.step is not None:
            step(parent.step).fan_out += edge.count

    per_server: dict[int, int] = {}
    for sp in by_level.values():
        for server, n in sp.per_server.items():
            per_server[server] = per_server.get(server, 0) + n

    planner_doc: dict[str, Any] = {}
    estimates: list[dict[str, Any]] = []
    if planned is not None and planned.mode != "off":
        planner_doc = {
            "mode": planned.mode,
            "rewrites": [r.payload() for r in planned.rewrites],
            "executed_query": planned.executed.describe(),
            "level_map": {str(k): v for k, v in sorted(planned.level_map.items())},
        }
        if planned.cost_executed is not None:
            for est in planned.cost_executed.levels:
                actual = by_level.get(est.level)
                actual_rows = (
                    actual.stats.get("vertices", 0) if actual is not None else 0
                )
                estimates.append(
                    {
                        "level": est.level,
                        "original_level": planned.map_level(est.level),
                        "estimated_rows": round(est.rows_in, 3),
                        "actual_rows": actual_rows,
                        "estimated_cost": round(est.cost, 6),
                    }
                )

    return ProfileReport(
        travel_id=dag.travel_id,
        status=dag.status,
        query=(planned.original if planned is not None else plan).describe(),
        plan=explain_plan(planned.original if planned is not None else plan),
        elapsed=elapsed,
        attempts=dag.attempts,
        steps=[by_level[level] for level in sorted(by_level)],
        per_server=per_server,
        warnings=list(dag.warnings),
        trace=dag.to_payload(),
        result_count=result_count,
        queue_wait=queue_wait,
        planner=planner_doc,
        estimates=estimates,
    )
