"""Single-node reference evaluator — the correctness oracle.

Evaluates a :class:`~repro.lang.plan.TraversalPlan` directly on an in-memory
:class:`~repro.graph.builder.PropertyGraph`, with the exact semantics the
distributed engines must reproduce:

* level sets are per-step deduplicated (revisits across steps are allowed,
  revisits within a step are redundant — paper §II-C);
* ``rtn()``-marked vertices are returned only when a path through them
  reaches the end of the chain, computed here by an explicit
  backward-pruning pass.

The distributed engines are differential-tested against this oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import TraversalResult
from repro.graph.builder import PropertyGraph
from repro.ids import TravelId, VertexId
from repro.lang.composite import CompositePlan, composite_program
from repro.lang.plan import AggregateSpec, TraversalPlan, reduce_aggregate


class ReferenceEngine:
    """Sequential oracle over the whole (unpartitioned) graph."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph

    def _source_level(self, plan: TraversalPlan) -> set[VertexId]:
        if plan.source_ids is None:
            candidates = list(self.graph.vertex_ids())
        else:
            candidates = [v for v in plan.source_ids if v in self.graph]
        if not plan.source_filters:
            return set(candidates)
        out = set()
        for vid in candidates:
            if plan.source_filters.matches(self.graph.vertex(vid).effective_props()):
                out.add(vid)
        return out

    def _forward_levels(self, plan: TraversalPlan) -> list[set[VertexId]]:
        """Level sets L0..Ln under forward evaluation."""
        levels = [self._source_level(plan)]
        for step in plan.steps:
            frontier = levels[-1]
            nxt: set[VertexId] = set()
            for vid in frontier:
                for dst, eprops in self._step_edges(vid, step):
                    if dst in nxt:
                        continue
                    if step.vertex_filters and not step.vertex_filters.matches(
                        self.graph.vertex(dst).effective_props()
                    ):
                        continue
                    nxt.add(dst)
            levels.append(nxt)
        return levels

    def _step_edges(self, vid: VertexId, step) -> list[tuple[VertexId, dict]]:
        out = []
        for label in step.labels:
            for _, dst, eprops in self.graph.out_edges(vid, label):
                if step.edge_filters and not step.edge_filters.matches(eprops):
                    continue
                out.append((dst, eprops))
        return out

    def _backward_prune(
        self, plan: TraversalPlan, levels: list[set[VertexId]]
    ) -> list[set[VertexId]]:
        """B_k = vertices of L_k lying on some L0→Ln path (B_n = L_n)."""
        pruned: list[Optional[set[VertexId]]] = [None] * len(levels)
        pruned[-1] = set(levels[-1])
        for k in range(len(levels) - 2, -1, -1):
            step = plan.steps[k]
            downstream = pruned[k + 1]
            keep: set[VertexId] = set()
            for vid in levels[k]:
                for dst, _ in self._step_edges(vid, step):
                    if dst in downstream:
                        keep.add(vid)
                        break
            pruned[k] = keep
        return pruned  # type: ignore[return-value]

    def _group_keys(self, spec: AggregateSpec, vids) -> dict[VertexId, object]:
        """Per-vertex group keys for a ``group_count`` over ``vids``."""
        keys: dict[VertexId, object] = {}
        for vid in vids:
            vertex = self.graph.vertex(vid)
            if spec.needs_props:
                keys[vid] = vertex.effective_props().get(spec.by)
            else:
                keys[vid] = vertex.vtype
        return keys

    def run(self, plan, travel_id: TravelId = 0) -> TraversalResult:
        if isinstance(plan, CompositePlan):
            return self._run_composite(plan, travel_id)
        levels = self._forward_levels(plan)
        if plan.has_intermediate_returns:
            usable = self._backward_prune(plan, levels)
        else:
            usable = levels
        returned = {
            level: frozenset(usable[level]) for level in plan.return_levels
        }
        aggregate = None
        if plan.aggregate is not None:
            final = frozenset(usable[plan.final_level])
            keys = (
                self._group_keys(plan.aggregate, final)
                if plan.aggregate.needs_keys
                else {}
            )
            aggregate = reduce_aggregate(plan.aggregate, final, keys)
        return TraversalResult(
            travel_id=travel_id, returned=returned, aggregate=aggregate
        )

    def _run_composite(
        self, cplan: CompositePlan, travel_id: TravelId
    ) -> TraversalResult:
        """Drive the shared composite program synchronously: every child plan
        the program yields runs through :meth:`run`, making this the oracle
        the distributed drivers are differentially tested against."""
        prog = composite_program(cplan, reverse_available=False, travel_id=travel_id)
        try:
            child = next(prog)
            while True:
                child = prog.send(self.run(child, travel_id))
        except StopIteration as stop:
            frontier, aggregate = stop.value
        return TraversalResult(
            travel_id=travel_id,
            returned={cplan.final_level: frozenset(frontier)},
            aggregate=aggregate,
        )
