"""GTravel ``explain()`` and ``Client.profile()`` (Gremlin-style, paper §III).

``explain_document`` renders a :class:`~repro.lang.optimizer.PlannedQuery`
— linear or composite, under any planner mode — as one structured,
JSON-safe document: the source selector, the operator list (steps with their
labels, property filters and rtn() marks; repeat, union, as_ and back), the
rewrites, and in ``cost`` mode the per-level estimates. No traversal runs.

``profile_traversal`` is the post-hoc half: given the flight-recorder DAG of
a completed traversal, it produces a per-step :class:`ProfileReport` —
fan-out, visited/filtered counts, per-server execution counts and skew,
wall-clock per step on the virtual clock, and cache-hit attribution. On the
simulated runtime the report is a pure function of (seed, configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.lang.composite import (
    AsOp,
    BackOp,
    CompositePlan,
    FilterNode,
    RepeatOp,
    UnionOp,
)
from repro.lang.filters import FilterSet
from repro.lang.optimizer import PlanCost, PlannedQuery
from repro.lang.plan import Step, TraversalPlan
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


def _op_payload(op) -> dict[str, Any]:
    """One operator of an op list (recursively) as a JSON-safe dict."""
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
            "body": [_op_payload(o) for o in op.body],
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
            "branches": [[_op_payload(o) for o in branch] for branch in op.branches],
        }
    return {"op": "as" if isinstance(op, AsOp) else "back", "name": op.name}


def _plan_payload(
    plan: Union[TraversalPlan, CompositePlan], cost: Optional[PlanCost]
) -> dict[str, Any]:
    """One plan — a linear chain is the all-steps case of the op list — with
    its cost estimate (None outside ``cost`` mode). Every top-level op
    carries the level it leaves the working set at; a step also carries
    its ``rtn()`` mark."""
    linear = isinstance(plan, TraversalPlan)
    rtn_levels = plan.rtn_levels if linear else frozenset()
    ops = []
    level = 0
    for op in plan.steps if linear else plan.ops:
        level += isinstance(op, (Step, RepeatOp, UnionOp, BackOp))
        doc = {"level": level, **_op_payload(op)}
        if isinstance(op, Step):
            doc["rtn"] = level in rtn_levels
        ops.append(doc)
    return {
        "query": plan.describe(),
        "source": {
            "ids": list(plan.source_ids) if plan.source_ids is not None else "all",
            "filters": _filters_payload(plan.source_filters),
            "rtn": 0 in rtn_levels,
        },
        "ops": ops,
        "final_level": plan.final_level,
        "return_levels": sorted(plan.return_levels) if linear else [plan.final_level],
        "aggregate": _aggregate_payload(plan.aggregate),
        "annotations": {
            "pushdown": linear and plan.pushdown,
            "short_circuit_final": linear and plan.short_circuit_final,
        },
        "estimate": cost.payload() if cost is not None else None,
    }


def explain_document(planned: PlannedQuery) -> dict[str, Any]:
    """The EXPLAIN document of every plan under every planner mode: the plan
    as compiled, the plan as it will execute, the rewrites connecting them
    and the executed level -> compiled level map. In ``cost`` mode each plan
    carries its per-level estimate."""
    return {
        "planner": planned.mode,
        "plan": _plan_payload(planned.original, planned.cost_original),
        "executed": _plan_payload(planned.executed, planned.cost_executed),
        "rewrites": [r.payload() for r in planned.rewrites],
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
    #: the EXPLAIN document of the run (:func:`explain_document`)
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
    planned: PlannedQuery,
    *,
    elapsed: Optional[float] = None,
    result_count: Optional[int] = None,
    queue_wait: Optional[float] = None,
) -> ProfileReport:
    """Aggregate one traversal's execution DAG into a per-step profile.

    The per-level rows follow the *executed* plan (which may be reversed or
    short-circuited), the report carries the run's EXPLAIN document, and —
    when a cost estimate is attached — estimated-vs-actual cardinality rows
    so estimator error is directly observable.
    """
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

    estimates: list[dict[str, Any]] = []
    if planned.cost_executed is not None:
        for est in planned.cost_executed.levels:
            actual = by_level.get(est.level)
            estimates.append(
                {
                    "level": est.level,
                    "original_level": planned.map_level(est.level),
                    "estimated_rows": round(est.rows_in, 3),
                    "actual_rows": (
                        actual.stats.get("vertices", 0) if actual is not None else 0
                    ),
                    "estimated_cost": round(est.cost, 6),
                }
            )

    return ProfileReport(
        travel_id=dag.travel_id,
        status=dag.status,
        query=planned.original.describe(),
        plan=explain_document(planned),
        elapsed=elapsed,
        attempts=dag.attempts,
        steps=[by_level[level] for level in sorted(by_level)],
        per_server=per_server,
        warnings=list(dag.warnings),
        trace=dag.to_payload(),
        result_count=result_count,
        queue_wait=queue_wait,
        estimates=estimates,
    )
