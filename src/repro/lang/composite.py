"""Composite traversal operators: ``repeat``, ``union``, ``back``.

A linear GTravel chain compiles to a :class:`~repro.lang.plan.TraversalPlan`.
Once a chain uses bounded recursion (``repeat(sub).times(k)`` /
``repeat(sub).until(pred)``), branching (``union(b1, b2, ...)``), or a
``back(label)`` jump to an ``as_(label)`` binding, it compiles to a
:class:`CompositePlan`: an operator tree whose leaves are plain
:class:`~repro.lang.plan.Step` runs.

The execution semantics live in exactly one place — the
:func:`composite_program` generator. It yields child ``TraversalPlan``s and
is sent each child's :class:`~repro.engine.base.TraversalResult` back. The
reference oracle drives the program synchronously with its own ``run``; the
coordinator drives the same generator asynchronously, submitting every child
through the full planner/engine/fault machinery. Because both drivers step
through identical control flow, the distributed engines are differentially
provable against the oracle for free: any divergence is a child-plan
divergence, which the existing linear-plan differential suite already pins.

Frontier control flow:

* a maximal run of consecutive ``Step``s becomes one multi-step child plan
  (so child traversals still exercise pipelined multi-level execution);
* ``repeat(sub).times(k)`` applies the body ``k`` times (``times(0)`` is the
  identity); an empty frontier short-circuits the loop;
* ``repeat(sub).until(pred)`` is a do-while: apply the body, move vertices
  satisfying ``pred`` to the output set, continue with the rest; hitting
  ``max_depth`` with unsatisfied vertices raises
  :class:`~repro.errors.RepeatDepthExceeded` (documented termination
  guarantee — never a hang);
* ``union(b1, ..., bn)`` evaluates every branch from the same incoming
  frontier and merges the branch outputs as a deduplicated set;
* ``back(label)`` rewinds to the working set bound by ``as_(label)``, keeping
  only bound vertices with a path to the current frontier. With a reverse
  adjacency region available it walks ``~label`` edges backward level by
  level, intersecting each recorded frontier; otherwise it replays the
  intervening steps forward with an ``rtn()`` mark at the binding (backward
  pruning returns exactly the bound vertices that reach the end).

Child plans are built with **sorted** source ids so the same composite query
produces byte-identical child plans (and hence traces) on every rerun.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Union

from repro.errors import QueryError, RepeatDepthExceeded
from repro.ids import TravelId, VertexId
from repro.lang.filters import FilterSet, PropertyFilter
from repro.lang.plan import AggregateSpec, Step, TraversalPlan

#: default depth cap for ``repeat(...).until(...)``
DEFAULT_MAX_DEPTH = 32

CompositeOp = Union[Step, "FilterNode", "RepeatOp", "UnionOp", "AsOp", "BackOp"]


@dataclass(frozen=True)
class FilterNode:
    """Filter the current working set (a ``va()`` after a composite op)."""

    filters: FilterSet

    def __post_init__(self) -> None:
        if not self.filters:
            raise QueryError("a filter node needs at least one filter")

    def describe(self) -> str:
        out = ""
        for f in self.filters.filters:
            out += f".va({f.key!r}, {f.op.value}, {f.value!r})"
        return out


@dataclass(frozen=True)
class RepeatOp:
    """Bounded recursion: apply ``body`` ``times`` times, or until ``until``
    is satisfied (with a hard ``max_depth`` cap)."""

    body: tuple[CompositeOp, ...]
    times: Optional[int] = None
    until: Optional[PropertyFilter] = None
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self) -> None:
        if (self.times is None) == (self.until is None):
            raise QueryError(
                "repeat() needs exactly one of .times(k) or .until(pred)"
            )
        if self.times is not None and (
            not isinstance(self.times, int)
            or isinstance(self.times, bool)
            or self.times < 0
        ):
            raise QueryError(f"times() needs an int >= 0, got {self.times!r}")
        if self.until is not None and not isinstance(self.until, PropertyFilter):
            raise QueryError("until() needs a property predicate")
        if not isinstance(self.max_depth, int) or self.max_depth < 1:
            raise QueryError(f"max_depth must be an int >= 1, got {self.max_depth!r}")
        if not self.body:
            raise QueryError("repeat() needs a non-empty sub-traversal body")
        _check_nested(self.body, "repeat()")

    def describe(self) -> str:
        out = f".repeat({describe_ops(self.body)})"
        if self.times is not None:
            out += f".times({self.times})"
        else:
            f = self.until
            out += f".until({f.key!r}, {f.op.value}, {f.value!r}"
            if self.max_depth != DEFAULT_MAX_DEPTH:
                out += f", max_depth={self.max_depth}"
            out += ")"
        return out


@dataclass(frozen=True)
class UnionOp:
    """Evaluate every branch from the same incoming frontier; merge the
    branch outputs as a deduplicated set (the in-language form of the
    client-side ``union_results`` workaround)."""

    branches: tuple[tuple[CompositeOp, ...], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise QueryError("union() needs at least one branch")
        for branch in self.branches:
            _check_nested(branch, "union()")

    def describe(self) -> str:
        inner = ", ".join(describe_ops(b) for b in self.branches)
        return f".union({inner})"


@dataclass(frozen=True)
class AsOp:
    """Bind the current working set to ``name`` for a later ``back()``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise QueryError("as_() needs a non-empty label")

    def describe(self) -> str:
        return f".as_({self.name!r})"


@dataclass(frozen=True)
class BackOp:
    """Rewind to the working set bound by ``as_(name)``, keeping only bound
    vertices with a path to the current frontier."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise QueryError("back() needs a non-empty label")

    def describe(self) -> str:
        return f".back({self.name!r})"


def _check_nested(ops: tuple[CompositeOp, ...], where: str) -> None:
    for op in ops:
        if isinstance(op, (AsOp, BackOp)):
            raise QueryError(
                f"as_()/back() are only allowed at the top level of a "
                f"traversal, not inside {where} sub-chains"
            )
        if not isinstance(op, (Step, FilterNode, RepeatOp, UnionOp)):
            raise QueryError(f"unsupported operator inside {where}: {op!r}")


def describe_ops(ops: tuple[CompositeOp, ...]) -> str:
    """Render a sub-chain the way the builder spells it: ``s().e(...)...``."""
    return "s()" + "".join(op.describe() for op in ops)


@dataclass(frozen=True)
class CompositePlan:
    """The compiled form of a GTravel chain that uses composite operators.

    Level numbering mirrors :class:`~repro.lang.plan.TraversalPlan`: level 0
    is the filtered source set, and every frontier-advancing top-level op
    (``Step``, ``RepeatOp``, ``UnionOp``, ``BackOp``) adds one level. The
    result is always the final frontier (``rtn()`` marks are not supported on
    composite chains).
    """

    source_ids: Optional[tuple[VertexId, ...]]
    source_filters: FilterSet
    ops: tuple[CompositeOp, ...]
    aggregate: Optional[AggregateSpec] = None

    def __post_init__(self) -> None:
        if self.source_ids is not None and len(self.source_ids) == 0:
            raise QueryError("v() with explicit ids requires at least one id")
        bound_at: dict[str, int] = {}
        for i, op in enumerate(self.ops):
            if isinstance(op, AsOp):
                if op.name in bound_at:
                    raise QueryError(f"as_({op.name!r}) bound twice")
                bound_at[op.name] = i
            elif isinstance(op, BackOp):
                if op.name not in bound_at:
                    raise QueryError(
                        f"back({op.name!r}) references a label never bound "
                        "with as_()"
                    )
                between = self.ops[bound_at[op.name] + 1 : i]
                if any(not isinstance(o, Step) for o in between):
                    raise QueryError(
                        f"back({op.name!r}) requires only plain e() steps "
                        "between the as_() binding and the back()"
                    )
            elif not isinstance(op, (Step, FilterNode, RepeatOp, UnionOp)):
                raise QueryError(f"unsupported top-level operator: {op!r}")

    @property
    def final_level(self) -> int:
        """Count of top-level frontier-advancing ops (scheduler cost proxy,
        mirroring ``TraversalPlan.final_level``)."""
        return sum(
            1 for op in self.ops if isinstance(op, (Step, RepeatOp, UnionOp, BackOp))
        )

    def explain(self, planner: Optional[Any] = None) -> dict:
        """Structured EXPLAIN document for the operator tree, with per-op cost
        estimates when a planner (with a graph summary) is supplied. See
        :func:`repro.obs.explain.explain_composite`."""
        from repro.obs.explain import explain_composite

        return explain_composite(self, planner=planner)

    def describe(self) -> str:
        if self.source_ids is None:
            out = "GTravel.v()"
        else:
            ids = ", ".join(map(str, self.source_ids[:4]))
            if len(self.source_ids) > 4:
                ids += ", ..."
            out = f"GTravel.v({ids})"
        for f in self.source_filters.filters:
            out += f".va({f.key!r}, {f.op.value}, {f.value!r})"
        for op in self.ops:
            out += op.describe()
        if self.aggregate is not None:
            out += self.aggregate.describe()
        return out


# ---------------------------------------------------------------------------
# The shared execution program
# ---------------------------------------------------------------------------

#: what composite_program returns: the final frontier plus the reduced
#: aggregate (an AggregateResult from repro.lang.plan) when one was requested
ProgramOutput = tuple


def _ordered(frontier) -> tuple[VertexId, ...]:
    return tuple(sorted(frontier))


def composite_program(
    cplan: CompositePlan,
    reverse_available: bool = False,
    travel_id: TravelId = 0,
) -> Generator[TraversalPlan, Any, ProgramOutput]:
    """The one-and-only composite execution program.

    A generator that yields child :class:`TraversalPlan`s and must be sent
    each child's ``TraversalResult``. Returns ``(frontier, aggregate)`` where
    ``frontier`` is the final frozenset of vertices and ``aggregate`` is the
    child-reduced :class:`~repro.lang.plan.AggregateResult` (or ``None``).

    ``reverse_available`` enables the reverse-adjacency fast path for
    ``back()`` (child plans over planner-internal ``~label`` steps); drivers
    without the reverse region (the oracle, clusters without the cost
    planner) use the forward-replay fallback, which is element-identical by
    construction.

    Child plans never have empty explicit sources — an empty frontier
    short-circuits inside the program instead.
    """
    from repro.lang.plan import reduce_aggregate

    src = yield TraversalPlan(
        source_ids=cplan.source_ids,
        source_filters=cplan.source_filters,
        steps=(),
        rtn_levels=frozenset({0}),
    )
    frontier = frozenset(src.at_level(0))

    # back() needs the true per-step frontiers of the steps it rewinds over,
    # so a chain containing back() dispatches top-level steps one at a time.
    has_back = any(isinstance(op, BackOp) for op in cplan.ops)
    history: list[frozenset] = [frontier]
    steps_history: list[Optional[Step]] = [None]
    bindings: dict[str, int] = {}

    ops = list(cplan.ops)
    idx = 0
    while idx < len(ops):
        op = ops[idx]
        if isinstance(op, AsOp):
            bindings[op.name] = len(history) - 1
            idx += 1
        elif isinstance(op, Step):
            if has_back:
                frontier = yield from _run_steps(frontier, (op,))
                history.append(frontier)
                steps_history.append(op)
                idx += 1
            else:
                run: list[Step] = []
                while idx < len(ops) and isinstance(ops[idx], Step):
                    run.append(ops[idx])
                    idx += 1
                frontier = yield from _run_steps(frontier, tuple(run))
                history.append(frontier)
                steps_history.append(None)
        elif isinstance(op, FilterNode):
            frontier = yield from _filter_frontier(frontier, op.filters)
            idx += 1
        elif isinstance(op, (RepeatOp, UnionOp)):
            if isinstance(op, RepeatOp):
                frontier = yield from _run_repeat(
                    frontier, op, travel_id, reverse_available
                )
            else:
                frontier = yield from _run_union(
                    frontier, op, travel_id, reverse_available
                )
            history.append(frontier)
            steps_history.append(None)
            idx += 1
        elif isinstance(op, BackOp):
            frontier = yield from _run_back(
                frontier, op, history, steps_history, bindings, reverse_available
            )
            history.append(frontier)
            steps_history.append(None)
            idx += 1
        else:  # pragma: no cover - CompositePlan.__post_init__ rejects these
            raise QueryError(f"unsupported top-level operator: {op!r}")

    aggregate = None
    if cplan.aggregate is not None:
        spec = cplan.aggregate
        if spec.needs_keys and frontier:
            # a trailing zero-step fetch carrying the spec: the linear-plan
            # machinery attaches the reduced AggregateResult natively
            res = yield TraversalPlan(
                source_ids=_ordered(frontier),
                source_filters=FilterSet(),
                steps=(),
                rtn_levels=frozenset({0}),
                aggregate=spec,
            )
            aggregate = res.aggregate
        else:
            aggregate = reduce_aggregate(spec, frontier, {})
    return frozenset(frontier), aggregate


def _run_steps(frontier, steps: tuple[Step, ...]):
    if not frontier:
        return frozenset()
    res = yield TraversalPlan(
        source_ids=_ordered(frontier),
        source_filters=FilterSet(),
        steps=steps,
        rtn_levels=frozenset(),
    )
    return frozenset(res.at_level(len(steps)))


def _filter_frontier(frontier, filters: FilterSet):
    if not frontier or not filters:
        return frozenset(frontier)
    res = yield TraversalPlan(
        source_ids=_ordered(frontier),
        source_filters=filters,
        steps=(),
        rtn_levels=frozenset({0}),
    )
    return frozenset(res.at_level(0))


def _run_ops_seq(frontier, ops, travel_id, reverse_available):
    """Run a repeat-body / union-branch op sequence (no as_/back inside)."""
    idx = 0
    while idx < len(ops):
        op = ops[idx]
        if isinstance(op, Step):
            run: list[Step] = []
            while idx < len(ops) and isinstance(ops[idx], Step):
                run.append(ops[idx])
                idx += 1
            frontier = yield from _run_steps(frontier, tuple(run))
            continue
        if isinstance(op, FilterNode):
            frontier = yield from _filter_frontier(frontier, op.filters)
        elif isinstance(op, RepeatOp):
            frontier = yield from _run_repeat(
                frontier, op, travel_id, reverse_available
            )
        elif isinstance(op, UnionOp):
            frontier = yield from _run_union(
                frontier, op, travel_id, reverse_available
            )
        else:  # pragma: no cover - _check_nested rejects these at build time
            raise QueryError(f"operator {op!r} not allowed in a sub-chain")
        idx += 1
    return frozenset(frontier)


def _run_repeat(frontier, op: RepeatOp, travel_id, reverse_available):
    if op.times is not None:
        for _ in range(op.times):
            if not frontier:
                break
            frontier = yield from _run_ops_seq(
                frontier, op.body, travel_id, reverse_available
            )
        return frozenset(frontier)
    pred = FilterSet((op.until,))
    exited: set[VertexId] = set()
    for _ in range(op.max_depth):
        if not frontier:
            return frozenset(exited)
        frontier = yield from _run_ops_seq(
            frontier, op.body, travel_id, reverse_available
        )
        if not frontier:
            return frozenset(exited)
        matched = yield from _filter_frontier(frontier, pred)
        exited |= matched
        frontier = frozenset(frontier) - matched
        if not frontier:
            return frozenset(exited)
    raise RepeatDepthExceeded(travel_id, op.max_depth)


def _run_union(frontier, op: UnionOp, travel_id, reverse_available):
    if not frontier:
        return frozenset()
    out: set[VertexId] = set()
    for branch in op.branches:
        out |= yield from _run_ops_seq(frontier, branch, travel_id, reverse_available)
    return frozenset(out)


def _run_back(frontier, op: BackOp, history, steps_history, bindings, reverse_available):
    bind_idx = bindings[op.name]
    cur_idx = len(history) - 1
    if bind_idx == cur_idx:
        return frozenset(frontier)  # back() straight after as_(): identity
    bound = history[bind_idx]
    if not frontier or not bound:
        return frozenset()
    steps = [steps_history[i] for i in range(bind_idx + 1, cur_idx + 1)]
    # plan validation guarantees these are plain Steps, dispatched singly
    assert all(isinstance(s, Step) for s in steps)
    # Edge filters apply to the forward edge's properties; the reverse region
    # mirrors them, but we only take the reverse walk when no step between the
    # binding and the back() filters edges — the forward fallback is exact
    # regardless.
    filtered = any(s.edge_filters for s in steps)
    if reverse_available and not filtered:
        cur = frozenset(frontier)
        for j in range(cur_idx, bind_idx, -1):
            step = steps_history[j]
            rev = Step(tuple("~" + lbl for lbl in step.labels))
            res = yield TraversalPlan(
                source_ids=_ordered(cur),
                source_filters=FilterSet(),
                steps=(rev,),
                rtn_levels=frozenset(),
            )
            cur = frozenset(res.at_level(1)) & history[j - 1]
            if not cur:
                return frozenset()
        return cur
    res = yield TraversalPlan(
        source_ids=_ordered(bound),
        source_filters=FilterSet(),
        steps=tuple(steps),
        rtn_levels=frozenset({0}),
    )
    return frozenset(res.at_level(0))
