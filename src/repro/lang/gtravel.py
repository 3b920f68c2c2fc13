"""The GTravel query-building language (paper §III).

GTravel is an iterative, chainable builder. Every method returns the caller
instance so queries read exactly like the paper's listings::

    from repro.lang import GTravel, EQ, RANGE

    q = (
        GTravel.v(user_a)
        .e("run").ea("start_ts", RANGE, (t_s, t_e))
        .e("read").va("type", EQ, "text")
        .rtn()
    )
    plan = q.compile()

Semantics:

* ``v(*ids)`` — the entry point: explicit vertex ids, or no arguments to
  start from every vertex (the underlying store's index resolves them).
* ``va(key, op, value)`` — filter the *current* working set of vertices.
  Before any ``e()`` it filters the sources; after an ``e()`` it filters that
  step's destination vertices.
* ``e(label)`` — traverse edges with ``label`` from the working set.
* ``ea(key, op, value)`` — filter the edges of the most recent ``e()``.
* ``rtn()`` — mark the current working set for return; marked vertices are
  returned only if a path through them reaches the end of the chain.

Composite operators (see :mod:`repro.lang.composite` for semantics):

* ``s()`` — entry point for a *sub-chain* (no sources), used as the body of
  ``repeat()`` / branches of ``union()``;
* ``repeat(sub).times(k)`` / ``repeat(sub).until(key, op, value)`` — bounded
  recursion with a hard depth cap on the ``until`` form;
* ``union(sub1, sub2, ...)`` — evaluate every branch from the current
  working set, merge the outputs deduplicated (the in-language form of the
  paper's "separate traversals + union" OR workaround);
* ``as_(name)`` / ``back(name)`` — bind the working set, later rewind to the
  bound vertices that reach the current frontier;
* ``count()`` / ``group_count(by=...)`` — reduce the final working set at
  the coordinator instead of returning the vertex set alone.

``OR`` across filters is not supported (by design, as in the paper); use
``union()`` — or run separate traversals and combine them with
:func:`union_results`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from repro.errors import QueryError
from repro.ids import VertexId
from repro.lang.composite import (
    DEFAULT_MAX_DEPTH,
    AsOp,
    BackOp,
    CompositeOp,
    CompositePlan,
    FilterNode,
    RepeatOp,
    UnionOp,
)
from repro.lang.filters import FilterOp, FilterSet, PropertyFilter
from repro.lang.plan import AggregateSpec, Step, TraversalPlan

CompiledPlan = Union[TraversalPlan, CompositePlan]


class GTravel:
    """Chainable traversal builder; see module docstring for semantics."""

    def __init__(self) -> None:
        self._source_ids: Optional[tuple[VertexId, ...]] = None
        self._source_set = False
        self._sub = False
        self._source_filters = FilterSet()
        # plain steps are kept as mutable dicts until compile; composite ops
        # are appended as their frozen node types
        self._ops: list[Any] = []
        self._rtn_levels: set[int] = set()
        self._pending_repeat: Optional[tuple[CompositeOp, ...]] = None
        self._aggregate: Optional[AggregateSpec] = None

    # -- entry points -------------------------------------------------------

    @classmethod
    def v(cls, *vids: VertexId) -> "GTravel":
        """Start a traversal from explicit vertex ids (or all vertices)."""
        return cls().v_(*vids)

    @classmethod
    def s(cls) -> "GTravel":
        """Start a *sub-chain*: the body of a ``repeat()`` or a branch of a
        ``union()``. Sub-chains have no sources and cannot be compiled or
        run on their own."""
        sub = cls()
        sub._sub = True
        return sub

    def v_(self, *vids: VertexId) -> "GTravel":
        """Instance form of :meth:`v`, for completeness."""
        if self._sub:
            raise QueryError("sub-chains from s() take their sources from the outer chain")
        if self._source_set:
            raise QueryError("v() may only be called once per traversal")
        if self._ops:
            raise QueryError("v() must come before any e() step")
        self._source_set = True
        if vids:
            for vid in vids:
                if not isinstance(vid, int) or isinstance(vid, bool):
                    raise QueryError(f"vertex ids must be ints, got {vid!r}")
            self._source_ids = tuple(dict.fromkeys(vids))  # dedupe, keep order
        else:
            self._source_ids = None  # all vertices
        return self

    # -- steps ----------------------------------------------------------------

    def e(self, *labels: str) -> "GTravel":
        """Traverse edges from the current working set.

        The paper's ``e()`` takes one label; we also accept several —
        ``e("read", "write")`` follows edges with *any* of the labels (an OR
        over labels, which the layout serves with a single scan of the
        vertex's edge block).
        """
        self._require_source("e()")
        self._require_open("e()")
        if not labels:
            raise QueryError("e() requires at least one edge label")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise QueryError(f"edge label must be a non-empty str, got {label!r}")
            if label.startswith("~"):
                # "~" prefixes the planner's internal reverse-edge labels
                raise QueryError(
                    f"edge label {label!r} is reserved: '~'-prefixed labels "
                    "denote reverse edges and are planner-internal"
                )
        self._ops.append(
            {
                "labels": tuple(dict.fromkeys(labels)),
                "edge_filters": FilterSet(),
                "vertex_filters": FilterSet(),
            }
        )
        return self

    def ea(self, key: str, op: FilterOp, value: Any) -> "GTravel":
        """Filter the edges selected by the most recent ``e()``."""
        self._require_open("ea()")
        if not self._ops or not isinstance(self._ops[-1], dict):
            raise QueryError("ea() requires a preceding e() step")
        flt = PropertyFilter(key, op, value)
        step = self._ops[-1]
        step["edge_filters"] = step["edge_filters"].add(flt)
        return self

    def va(self, key: str, op: FilterOp, value: Any) -> "GTravel":
        """Filter the current working set of vertices."""
        self._require_source("va()")
        self._require_open("va()")
        flt = PropertyFilter(key, op, value)
        if not self._ops:
            if self._sub:
                self._ops.append(FilterNode(FilterSet((flt,))))
            else:
                self._source_filters = self._source_filters.add(flt)
        elif isinstance(self._ops[-1], dict):
            step = self._ops[-1]
            step["vertex_filters"] = step["vertex_filters"].add(flt)
        elif isinstance(self._ops[-1], FilterNode):
            self._ops[-1] = FilterNode(self._ops[-1].filters.add(flt))
        else:
            self._ops.append(FilterNode(FilterSet((flt,))))
        return self

    def rtn(self) -> "GTravel":
        """Mark the current working set for return (paper §IV-D)."""
        self._require_source("rtn()")
        self._require_open("rtn()")
        if self._sub:
            raise QueryError("rtn() is not allowed inside repeat()/union() sub-chains")
        if self._has_composite():
            raise QueryError(
                "rtn() marks cannot be combined with repeat()/union()/back(); "
                "composite chains always return the final working set"
            )
        self._rtn_levels.add(len(self._ops))
        return self

    # -- composite operators ---------------------------------------------------

    def repeat(self, sub: "GTravel") -> "GTravel":
        """Apply ``sub`` repeatedly; must be followed by ``times()`` or
        ``until()``."""
        self._require_source("repeat()")
        self._require_open("repeat()", allow_pending=False)
        self._require_no_rtn("repeat()")
        self._pending_repeat = _sub_ops(sub, "repeat()")
        return self

    def times(self, k: int) -> "GTravel":
        """Bound the preceding ``repeat()`` to exactly ``k`` applications of
        the body (``times(0)`` is the identity)."""
        if self._pending_repeat is None:
            raise QueryError("times() requires a preceding repeat()")
        body = self._pending_repeat
        self._pending_repeat = None
        self._ops.append(RepeatOp(body=body, times=k))
        return self

    def until(
        self,
        key: str,
        op: FilterOp,
        value: Any,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> "GTravel":
        """Loop the preceding ``repeat()`` until a vertex satisfies the
        predicate; vertices exit the loop as they match. Hitting
        ``max_depth`` with unsatisfied vertices raises
        :class:`~repro.errors.RepeatDepthExceeded` at run time."""
        if self._pending_repeat is None:
            raise QueryError("until() requires a preceding repeat()")
        body = self._pending_repeat
        self._pending_repeat = None
        self._ops.append(
            RepeatOp(
                body=body,
                until=PropertyFilter(key, op, value),
                max_depth=max_depth,
            )
        )
        return self

    def union(self, *subs: "GTravel") -> "GTravel":
        """Evaluate every sub-chain from the current working set and merge
        the outputs as a deduplicated set."""
        self._require_source("union()")
        self._require_open("union()")
        self._require_no_rtn("union()")
        if not subs:
            raise QueryError("union() needs at least one branch")
        branches = tuple(_sub_ops(sub, "union()") for sub in subs)
        self._ops.append(UnionOp(branches=branches))
        return self

    def as_(self, name: str) -> "GTravel":
        """Bind the current working set to ``name`` for a later ``back()``."""
        self._require_source("as_()")
        self._require_open("as_()")
        self._require_no_rtn("as_()")
        if self._sub:
            raise QueryError("as_() is not allowed inside repeat()/union() sub-chains")
        self._ops.append(AsOp(name))
        return self

    def back(self, name: str) -> "GTravel":
        """Rewind to the working set bound with ``as_(name)``, keeping only
        the bound vertices with a path to the current frontier."""
        self._require_source("back()")
        self._require_open("back()")
        self._require_no_rtn("back()")
        if self._sub:
            raise QueryError("back() is not allowed inside repeat()/union() sub-chains")
        self._ops.append(BackOp(name))
        return self

    # -- aggregations ----------------------------------------------------------

    def count(self) -> "GTravel":
        """Reduce the final working set to its size at the coordinator."""
        self._require_source("count()")
        self._require_open("count()")
        if self._sub:
            raise QueryError("aggregates are not allowed inside sub-chains")
        self._aggregate = AggregateSpec(kind="count")
        return self

    def group_count(self, by: Optional[str] = None) -> "GTravel":
        """Group the final working set and count per group at the
        coordinator. ``by=None`` / ``"label"`` / ``"type"`` group by vertex
        type; any other key groups by that property's value (vertices
        missing the property land in the ``None`` bucket)."""
        self._require_source("group_count()")
        self._require_open("group_count()")
        if self._sub:
            raise QueryError("aggregates are not allowed inside sub-chains")
        self._aggregate = AggregateSpec(kind="group_count", by=by)
        return self

    # -- compilation -----------------------------------------------------------

    def compile(self) -> CompiledPlan:
        """Validate and freeze the chain into a :class:`TraversalPlan` (for
        linear chains) or a :class:`CompositePlan` (once any composite
        operator appears)."""
        self._require_source("compile()")
        if self._sub:
            raise QueryError(
                "sub-chains from s() cannot be compiled directly; pass them "
                "to repeat() or union()"
            )
        if self._pending_repeat is not None:
            raise QueryError("repeat() must be followed by times() or until()")
        if not self._has_composite():
            steps = tuple(
                Step(s["labels"], s["edge_filters"], s["vertex_filters"])
                for s in self._ops
            )
            return TraversalPlan(
                source_ids=self._source_ids,
                source_filters=self._source_filters,
                steps=steps,
                rtn_levels=frozenset(self._rtn_levels),
                aggregate=self._aggregate,
            )
        if self._rtn_levels:
            raise QueryError(
                "rtn() marks cannot be combined with composite operators"
            )
        return CompositePlan(
            source_ids=self._source_ids,
            source_filters=self._source_filters,
            ops=_freeze_ops(self._ops),
            aggregate=self._aggregate,
        )

    def _has_composite(self) -> bool:
        return any(not isinstance(op, dict) for op in self._ops)

    def _require_source(self, what: str) -> None:
        if self._sub:
            return
        if not self._source_set:
            raise QueryError(f"{what} requires a preceding v() entry point")

    def _require_open(self, what: str, allow_pending: bool = False) -> None:
        if self._aggregate is not None:
            raise QueryError(
                f"{what} is not allowed after count()/group_count(): "
                "aggregates terminate the chain"
            )
        if not allow_pending and self._pending_repeat is not None and what not in (
            "times()",
            "until()",
        ):
            raise QueryError("repeat() must be followed by times() or until()")

    def _require_no_rtn(self, what: str) -> None:
        if self._rtn_levels:
            raise QueryError(
                f"{what} cannot be combined with rtn() marks; composite "
                "chains always return the final working set"
            )

    def describe(self) -> str:
        return self.compile().describe()

    def explain(self, planner: Optional[Any] = None) -> dict:
        """Compile and explain under ``planner`` (no traversal runs); see
        :func:`repro.obs.explain.explain_document`. An empty chain (no
        ``v()`` yet) explains as the bare ``v()`` it would start from rather
        than raising."""
        if not self._source_set and not self._sub:
            return GTravel.v().explain(planner=planner)
        return self.compile().explain(planner=planner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            return f"<GTravel {self.describe()}>"
        except QueryError:
            return "<GTravel (incomplete)>"


def _sub_ops(sub: "GTravel", where: str) -> tuple[CompositeOp, ...]:
    """Freeze a sub-chain built with ``GTravel.s()`` into composite ops."""
    if not isinstance(sub, GTravel):
        raise QueryError(f"{where} takes GTravel.s() sub-chains, got {sub!r}")
    if not sub._sub:
        raise QueryError(
            f"{where} takes sub-chains built with GTravel.s(), not full "
            "traversals (the outer chain supplies the sources)"
        )
    if sub._pending_repeat is not None:
        raise QueryError("repeat() must be followed by times() or until()")
    return _freeze_ops(sub._ops)


def _freeze_ops(ops: list) -> tuple[CompositeOp, ...]:
    out: list[CompositeOp] = []
    for op in ops:
        if isinstance(op, dict):
            out.append(Step(op["labels"], op["edge_filters"], op["vertex_filters"]))
        else:
            out.append(op)
    return tuple(out)


def union_results(*results: Iterable[VertexId]) -> tuple[VertexId, ...]:
    """Combine the returned vertex sets of several traversals.

    The paper's substitute for an ``OR`` filter: issue one traversal per
    disjunct and union the results. Returns a canonically ordered
    (sorted, deduplicated) tuple so results crossing the client API are
    deterministic across reruns.
    """
    out: set[VertexId] = set()
    for result in results:
        out.update(result)
    return tuple(sorted(out))
