"""The visit spec both engines read: derived once per travel and levels
tuple, it must say exactly what the per-visit helpers say.

For generated plans (planner ``off``/``rules``/``cost``; ``ea()``, ``va()``
and type filters; intermediate and final ``rtn()``; aggregates; explicit and
all-vertex sources) and every subset of levels a merged visit can serve, in
both orders, the memoized :class:`~repro.engine.visit.VisitSpec` equals
``labels_needed`` / ``needs_props`` / ``needs_edge_props``, the pushdown
rule and the per-level filter and return facts — with and without the
type-index level-0 override. The memo lives on the travel's
``TravelEntry`` and nowhere else, and is emptied when the entry is
unregistered: after a run across a crash and recovery, and after a travel
that exhausts its restarts, nothing holds a spec.

Runs under a fixed, derandomized hypothesis profile: the same examples on
every run.
"""

from __future__ import annotations

import gc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import ReferenceEngine, graphtrek_options, sync_options
from repro.engine.frontier import intermediate_rtn_levels
from repro.engine.registry import TravelRegistry
from repro.engine.visit import (
    derive_visit_spec,
    filters_at,
    labels_needed,
    needs_edge_props,
    needs_props,
    visit_spec,
)
from repro.errors import TraversalFailed
from repro.faults.plan import CrashEvent, FaultPlan, FaultSpec
from repro.lang import EQ, GTravel, IN, RANGE
from repro.lang.optimizer import QueryPlanner
from repro.workloads import MetadataGraphConfig, generate_metadata_graph

#: derandomized, no wall-clock deadline: the same examples every run
SPEC_FIXED = settings(derandomize=True, deadline=None, max_examples=80)

LABELS = ("run", "hasExecutions", "exe", "read", "write", "readBy", "writtenBy")
VTYPES = ("User", "Job", "Execution", "File")


@pytest.fixture(scope="module")
def md():
    return generate_metadata_graph(MetadataGraphConfig(users=4, files=64, seed=5))


@lru_cache(maxsize=None)
def planner(mode: str) -> QueryPlanner:
    """``off``, ``rules``, or ``cost`` with the merged statistics of a built
    cluster (reverse adjacency available, so chain reversal can fire)."""
    if mode != "cost":
        return QueryPlanner(mode=mode)
    md = generate_metadata_graph(MetadataGraphConfig(users=4, files=64, seed=5))
    cluster = Cluster.build(
        md.graph, ClusterConfig(nservers=2, engine=graphtrek_options(planner="cost"))
    )
    return cluster.coordinator.planner


@st.composite
def queries(draw):
    ids = draw(st.lists(st.integers(0, 60), max_size=3))
    q = GTravel.v(*ids)
    if draw(st.booleans()):
        q = q.va("type", EQ, draw(st.sampled_from(VTYPES)))
    if draw(st.booleans()):
        q = q.va("name", IN, ("user0", "user1"))
    marks = 0
    if draw(st.booleans()):
        q = q.rtn()
        marks += 1
    nsteps = draw(st.integers(1, 4))
    for i in range(nsteps):
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2, unique=True))
        q = q.e(*labels)
        if draw(st.booleans()):
            q = q.ea("ts", RANGE, (0.0, draw(st.sampled_from((1e3, 1e9)))))
        kind = draw(st.sampled_from(("none", "type", "prop", "both")))
        if kind in ("type", "both"):
            q = q.va("type", EQ, draw(st.sampled_from(VTYPES)))
        if kind in ("prop", "both"):
            q = q.va("kind", EQ, "text")
        if i < nsteps - 1 and draw(st.booleans()):
            q = q.rtn()
            marks += 1
    if draw(st.booleans()):
        q = q.rtn()
    elif marks == 0:
        agg = draw(st.sampled_from((None, "count", None, "type", "name")))
        if agg == "count":
            q = q.count()
        elif agg is not None:
            q = q.group_count(by=agg)
    return q.compile()


def _pushdown(plan, levels):
    """The rule both engines applied inline before the spec existed."""
    level = levels[0]
    if plan.pushdown and len(levels) == 1 and level < plan.final_level:
        step = plan.steps[level]
        if step.edge_filters:
            return {l: step.edge_filters for l in step.labels}
    return None


def _level_subsets(final_level):
    levels = range(final_level + 1)
    for n in range(1, final_level + 2):
        for subset in combinations(levels, n):
            yield subset
            if n > 1:
                yield subset[::-1]


@SPEC_FIXED
@given(compiled=queries(), mode=st.sampled_from(("off", "rules", "cost")))
def test_memoized_spec_says_what_the_visit_helpers_say(compiled, mode):
    plan = planner(mode).plan(compiled).executed
    entry = TravelRegistry().register(1, plan)
    rtn_levels = intermediate_rtn_levels(plan)
    indexed_options = (False, True) if entry.source_info.index_type else (False,)
    for levels in _level_subsets(plan.final_level):
        for indexed in indexed_options:
            override = entry.source_info.reduced_filters if indexed else None
            spec = visit_spec(entry, levels, indexed)
            assert visit_spec(entry, levels, indexed) is spec  # memoized
            assert spec == derive_visit_spec(plan, levels, override)
            labels = labels_needed(plan, levels)
            assert spec.labels == labels
            assert spec.labels.forward == {l for l in labels if l[0] != "~"}
            assert spec.labels.reverse == tuple(sorted(l for l in labels if l[0] == "~"))
            assert spec.want_props == needs_props(plan, levels, override)
            assert spec.edge_props == needs_edge_props(plan, levels)
            assert spec.edge_preds == _pushdown(plan, levels)
            assert spec.reads == (bool(labels) or spec.want_props)
            for lvl, facts in zip(levels, spec.facts, strict=True):
                # a merged visit shares the single-level specs' facts
                assert facts is visit_spec(entry, (lvl,), indexed).facts[0]
                fs = filters_at(plan, lvl, override if lvl == 0 else None)
                final = lvl == plan.final_level
                assert facts.vertex_match == (fs.matches if fs else None)
                assert facts.extends_anchors == (lvl in rtn_levels)
                assert facts.rtn_levels == rtn_levels
                assert facts.final == final
                assert facts.returns_final == (final and lvl in plan.return_levels)
                if final:
                    assert facts.labels == ()
                    continue
                step = plan.steps[lvl]
                assert facts.labels == step.labels
                assert facts.edge_match == (
                    step.edge_filters.matches if step.edge_filters else None
                )
                assert facts.short_circuit == (
                    plan.short_circuit_final and lvl + 1 == plan.final_level
                )
    agg = plan.aggregate
    final_facts = visit_spec(entry, (plan.final_level,), False).facts[0]
    assert final_facts.groups == (agg is not None and agg.needs_keys)
    assert final_facts.group_prop == (agg.by if agg is not None and agg.needs_props else None)


def _record_specs(monkeypatch) -> list[list]:
    """The specs each travel's memo held when it was unregistered."""
    specs: list[list] = []
    real = TravelRegistry.unregister

    def unregister(self, travel_id):
        entry = self.get(travel_id)
        if entry is not None:
            specs.append(list(entry.visit_specs.values()))
        real(self, travel_id)
        if entry is not None:
            assert not entry.visit_specs, "the memo outlived the registration"

    monkeypatch.setattr(TravelRegistry, "unregister", unregister)
    return specs


def _holders(specs: list[list]) -> set[str]:
    """Type names of whatever still holds a recorded spec (besides the
    recording itself)."""
    gc.collect()
    recorded = {id(per_travel) for per_travel in specs}
    return {
        type(ref).__name__
        for per_travel in specs
        for spec in per_travel
        for ref in gc.get_referrers(spec)
        if id(ref) not in recorded
    }


@pytest.mark.parametrize("preset", [graphtrek_options, sync_options], ids=["async", "sync"])
def test_the_memo_leaves_with_its_travel_across_a_crash(md, monkeypatch, preset):
    specs = _record_specs(monkeypatch)
    cluster = Cluster.build(
        md.graph,
        ClusterConfig(
            nservers=3,
            engine=preset(planner="rules"),
            fault_plan=FaultPlan(crashes=(CrashEvent(server=1, at=0.002, recover_at=0.004),)),
            coordinator_config=CoordinatorConfig(exec_timeout=0.05),
        ),
    )
    plan = (
        GTravel.v().va("type", EQ, "User").e("run").e("hasExecutions").e("read").rtn()
    ).compile()
    outcome = cluster.traverse(plan)
    assert outcome.result.same_result(ReferenceEngine(md.graph).run(plan))
    assert cluster.metrics_snapshot()["counters"]["faults.crashes{server=1}"] == 1
    assert specs and all(specs), "no travel derived a spec"
    assert not cluster.registry._entries
    assert _holders(specs) == set()


def test_the_memo_leaves_with_a_travel_that_exhausts_its_restarts(md, monkeypatch):
    specs = _record_specs(monkeypatch)
    lost = FaultSpec(drop=1.0)
    cluster = Cluster.build(
        md.graph,
        ClusterConfig(
            nservers=3,
            engine=graphtrek_options(),
            coordinator_config=CoordinatorConfig(exec_timeout=0.05, max_restarts=1),
            fault_plan=FaultPlan(seed=1, per_type={"ExecStatus": lost}),
        ),
    )
    with pytest.raises(TraversalFailed):
        cluster.traverse(GTravel.v(*md.user_ids).e("run").e("hasExecutions").compile())
    assert specs and all(specs)
    assert not cluster.registry._entries
    assert _holders(specs) == set()
