"""Gremlin-class traversal operators: repeat / union / back / aggregate.

The correctness contract is differential, like everything else in this repo:
every composite query must return exactly what the single-node oracle
returns — vertex sets *and* aggregates — on all three distributed engines
under every planner mode, including a seeded random sweep. On top: builder
validation, the edge cases (``times(0)`` identity, ``until`` depth cap,
degenerate unions, unbound ``back``, absent ``group_count`` properties),
chaos legs (crash mid-repeat, cancellation of a unioned traversal), and
EXPLAIN determinism with per-level cost estimates.
"""

import json
import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import (
    EngineKind,
    ReferenceEngine,
    graphtrek_options,
    plain_async_options,
    sync_options,
)
from repro.errors import QueryError, RepeatDepthExceeded, TraversalCancelled
from repro.faults.chaos import chaos_check
from repro.graph import PropertyGraph
from repro.lang import EQ, RANGE, GTravel, union_results
from repro.lang.composite import CompositePlan, FilterNode
from repro.lang.filters import FilterSet
from repro.lang.plan import AggregateResult, TraversalPlan

from .conftest import ALL_ENGINES, build_cluster

MODES = ("off", "rules", "cost")
PRESETS = (sync_options, plain_async_options, graphtrek_options)
LABELS = ("a", "b")


def assert_all_match_oracle(graph, query, nservers=3):
    """Oracle equality (vertex sets + aggregate) on every engine × mode."""
    plan = query.compile() if isinstance(query, GTravel) else query
    ref = ReferenceEngine(graph).run(plan)
    for mode in MODES:
        for preset in PRESETS:
            opts = preset(planner=mode)
            cluster = Cluster.build(
                graph, ClusterConfig(nservers=nservers, engine=opts)
            )
            outcome = cluster.traverse(plan)
            assert outcome.result.same_result(ref), (
                f"{opts.kind.value} planner={mode}: "
                f"{outcome.result.returned} agg={outcome.result.aggregate} != "
                f"{ref.returned} agg={ref.aggregate} for {plan.describe()}"
            )
            assert not cluster.coordinator._composites, "leaked composite state"
    return ref


# -- builder validation -------------------------------------------------------


def test_sub_chains_cannot_compile_or_run():
    with pytest.raises(QueryError):
        GTravel.s().e("a").compile()


def test_repeat_requires_times_or_until():
    q = GTravel.v(1).repeat(GTravel.s().e("a"))
    with pytest.raises(QueryError):
        q.compile()


def test_times_requires_preceding_repeat():
    with pytest.raises(QueryError):
        GTravel.v(1).times(2)


def test_union_requires_at_least_one_branch():
    with pytest.raises(QueryError):
        GTravel.v(1).union()


def test_back_on_never_bound_label_is_an_error():
    with pytest.raises(QueryError, match="never bound"):
        GTravel.v(1).e("a").back("nope").compile()


def test_as_and_aggregates_rejected_inside_sub_chains():
    with pytest.raises(QueryError):
        GTravel.s().as_("x")
    with pytest.raises(QueryError):
        GTravel.s().e("a").count()


def test_linear_chains_still_compile_to_traversal_plans():
    assert isinstance(GTravel.v(1).e("a").compile(), TraversalPlan)
    assert isinstance(GTravel.v(1).e("a").count().compile(), TraversalPlan)
    assert isinstance(
        GTravel.v(1).repeat(GTravel.s().e("a")).times(2).compile(), CompositePlan
    )


# -- a small deterministic graph ----------------------------------------------


def ring_graph(n=6, colors=(0, 1, 2)) -> PropertyGraph:
    """A ring of 'a' edges with chords of 'b' edges; colors cycle."""
    g = PropertyGraph()
    for vid in range(n):
        g.add_vertex(vid, "T", {"color": colors[vid % len(colors)]})
    for vid in range(n):
        g.add_edge(vid, (vid + 1) % n, "a", {"w": vid % 4})
        g.add_edge(vid, (vid + 2) % n, "b", {"w": (vid + 1) % 4})
    return g


# -- edge cases ---------------------------------------------------------------


def test_times_zero_is_identity():
    g = ring_graph()
    ref = assert_all_match_oracle(
        g, GTravel.v(0, 3).repeat(GTravel.s().e("a")).times(0)
    )
    (level,) = ref.returned.values()
    assert level == {0, 3}


def test_until_satisfied_stops_early():
    g = ring_graph()
    # from 0, 'a' ring: stops as soon as a color-0 vertex is in the frontier
    ref = assert_all_match_oracle(
        g, GTravel.v(1).repeat(GTravel.s().e("a")).until("color", EQ, 0)
    )
    (level,) = ref.returned.values()
    assert level == {3}


def test_until_never_satisfied_raises_typed_error_everywhere():
    g = ring_graph()
    q = GTravel.v(0).repeat(GTravel.s().e("a")).until(
        "color", EQ, 99, max_depth=3
    )
    plan = q.compile()
    with pytest.raises(RepeatDepthExceeded):
        ReferenceEngine(g).run(plan)
    for mode in MODES:
        for preset in PRESETS:
            cluster = Cluster.build(
                g, ClusterConfig(nservers=3, engine=preset(planner=mode))
            )
            with pytest.raises(RepeatDepthExceeded) as err:
                cluster.traverse(plan)
            assert err.value.max_depth == 3
            # a declared failure must not hang or leak coordinator state
            assert not cluster.coordinator._composites
            assert not cluster.coordinator._active


def test_union_of_one_branch_equals_that_branch():
    g = ring_graph()
    ref = assert_all_match_oracle(g, GTravel.v(0).union(GTravel.s().e("a")))
    plain = ReferenceEngine(g).run(GTravel.v(0).e("a").compile())
    assert ref.returned[1] == plain.returned[1]


def test_union_deduplicates_overlapping_branches():
    g = ring_graph()
    ref = assert_all_match_oracle(
        g,
        GTravel.v(0).union(
            GTravel.s().e("a"), GTravel.s().e("a"), GTravel.s().e("b")
        ),
    )
    assert ref.returned[1] == {1, 2}


def test_server_union_beats_client_union(metadata_graph):
    """The server-side ``union`` runs the shared prefix once, so it returns
    what the client-side ``union_results`` of two full cold traversals
    returns in fewer virtual seconds and fewer messages. The prefix starts
    from every user: the composite runs one more traversal than the two
    legs, whose control messages a one-user prefix does not outweigh."""
    graph, ids = metadata_graph

    def prefix():  # the builder extends itself in place
        return GTravel.v(*ids["users"]).e("run").e("hasExecutions")

    server = build_cluster(graph, EngineKind.GRAPHTREK).traverse(
        prefix().union(GTravel.s().e("read"), GTravel.s().e("write"))
    )
    cluster = build_cluster(graph, EngineKind.GRAPHTREK)
    legs = [cluster.traverse(prefix().e(label)) for label in ("read", "write")]
    assert sorted(server.result.vertices) == list(
        union_results(*(leg.result.vertices for leg in legs))
    )
    assert server.stats.elapsed < sum(leg.stats.elapsed for leg in legs)
    assert server.stats.messages < sum(leg.stats.messages for leg in legs)


def test_back_keeps_only_bound_vertices_with_a_path():
    g = ring_graph()
    ref = assert_all_match_oracle(
        g,
        GTravel.v(0, 1, 2).e("a").as_("mid").e("b").va("color", EQ, 0).back("mid"),
    )
    # survivors are the bound vertices whose 'b' successor has color 0
    assert set(ref.returned) == {3}  # single rtn at the back level


def test_filter_after_a_composite_op_describes_and_runs():
    """``va()`` right after a repeat is a ``FilterNode``: it renders as the
    chain wrote it and filters the working set on every engine; a filter
    node without filters is a typed error."""
    g = ring_graph()
    query = GTravel.v(0, 1).repeat(GTravel.s().e("a")).times(1).va("color", EQ, 2)
    plan = query.compile()
    assert isinstance(plan.ops[-1], FilterNode)
    assert plan.describe().endswith(plan.ops[-1].describe())
    assert plan.ops[-1].describe().startswith(".va('color', ")
    ref = assert_all_match_oracle(g, query)
    (level,) = ref.returned.values()
    assert level == {2}
    with pytest.raises(QueryError):
        FilterNode(FilterSet())


def test_group_count_on_absent_property_buckets_to_none():
    g = ring_graph()
    ref = assert_all_match_oracle(
        g, GTravel.v(0).e("a").e("a").group_count(by="no_such_prop")
    )
    assert ref.aggregate.groups == ((None, 1),)


def test_count_and_group_count_by_property():
    g = ring_graph()
    ref = assert_all_match_oracle(g, GTravel.v(0, 1).e("a").count())
    assert ref.aggregate.kind == "count" and ref.aggregate.total == 2
    ref = assert_all_match_oracle(
        g, GTravel.v(0, 1, 2).e("a").group_count(by="color")
    )
    assert ref.aggregate.total == 3
    assert sum(n for _, n in ref.aggregate.groups) == 3


def test_aggregate_equality_is_part_of_same_result():
    a = AggregateResult(kind="count", total=3, groups=())
    b = AggregateResult(kind="count", total=4, groups=())
    assert a != b


# -- seeded random differential sweep (10 seeds × 3 engines × 3 modes) --------


def random_sub(rng: random.Random, max_steps=2) -> GTravel:
    sub = GTravel.s()
    for _ in range(rng.randint(1, max_steps)):
        sub = sub.e(rng.choice(LABELS))
        if rng.random() < 0.3:
            sub = sub.va("color", EQ, rng.randrange(3))
    return sub


def random_composite_query(rng: random.Random, n: int) -> GTravel:
    """Seeded generator composing the new operator families."""
    q = GTravel.v(*sorted(rng.sample(range(n), rng.randint(1, 3))))
    if rng.random() < 0.5:
        q = q.e(rng.choice(LABELS))
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.3:
            q = q.repeat(random_sub(rng)).times(rng.randint(0, 3))
        elif roll < 0.45:
            q = q.repeat(random_sub(rng, max_steps=1)).until(
                "color", EQ, rng.randrange(3), max_depth=4
            )
        elif roll < 0.75:
            branches = [random_sub(rng) for _ in range(rng.randint(1, 3))]
            q = q.union(*branches)
        else:
            name = f"b{rng.randrange(10)}"
            q = q.as_(name)
            for _ in range(rng.randint(1, 2)):
                q = q.e(rng.choice(LABELS))
            if rng.random() < 0.4:
                q = q.va("color", EQ, rng.randrange(3))
            q = q.back(name)
    roll = rng.random()
    if roll < 0.25:
        q = q.count()
    elif roll < 0.5:
        q = q.group_count(by=rng.choice((None, "color", "no_such_prop")))
    return q


def seeded_random_graph(rng: random.Random) -> PropertyGraph:
    n = rng.randint(8, 16)
    g = PropertyGraph()
    for vid in range(n):
        g.add_vertex(vid, "T", {"color": rng.randrange(3)})
    for _ in range(rng.randint(n, 3 * n)):
        g.add_edge(
            rng.randrange(n), rng.randrange(n), rng.choice(LABELS),
            {"w": rng.randrange(4)},
        )
    return g


@pytest.mark.parametrize("seed", range(10))
def test_random_composites_differentially_equal_oracle(seed):
    rng = random.Random(seed)
    graph = seeded_random_graph(rng)
    query = random_composite_query(rng, graph.num_vertices)
    plan = query.compile()
    try:
        ref = ReferenceEngine(graph).run(plan)
        expected_error = None
    except RepeatDepthExceeded as exc:
        ref, expected_error = None, exc
    for mode in MODES:
        for preset in PRESETS:
            opts = preset(planner=mode)
            cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=opts))
            if expected_error is None:
                outcome = cluster.traverse(plan)
                assert outcome.result.same_result(ref), (
                    f"seed {seed} {opts.kind.value} planner={mode}: "
                    f"{plan.describe()}"
                )
            else:
                with pytest.raises(RepeatDepthExceeded):
                    cluster.traverse(plan)
            assert not cluster.coordinator._composites, f"seed {seed} leaked"


# -- canonical ordering / byte-identical reruns -------------------------------


def test_composite_reruns_are_byte_identical():
    g = ring_graph(8)
    q = GTravel.v(0, 4).union(
        GTravel.s().e("a"), GTravel.s().e("b")
    ).group_count(by="color")
    plan = q.compile()
    payloads = []
    for _ in range(2):
        cluster = build_cluster(g, EngineKind.GRAPHTREK)
        outcome = cluster.traverse(plan)
        payloads.append(
            json.dumps(
                {
                    "returned": {
                        str(k): sorted(v)
                        for k, v in outcome.result.returned.items()
                    },
                    "aggregate": outcome.result.aggregate.as_dict(),
                    "groups": list(outcome.result.aggregate.groups),
                },
                sort_keys=True,
            )
        )
    assert payloads[0] == payloads[1]


# -- chaos / QoS --------------------------------------------------------------


def test_chaos_crash_mid_repeat_keeps_the_contract():
    g = ring_graph(10)
    q = GTravel.v(0).repeat(GTravel.s().e("a").e("b")).times(3)
    for seed, crash in ((1, True), (4, True), (7, False)):
        outcome = chaos_check(g, [q], seed=seed, crash=crash, trace=crash)
        assert outcome.ok, (
            seed, outcome.verdicts[0].error, outcome.leaked, outcome.net_counters
        )
        if crash and outcome.traces is not None:
            # every reconstructed DAG assembled cleanly (assemble_all raises
            # on orphans/cycles); composite parents contribute vacuous DAGs
            for dag in outcome.traces.values():
                assert dag.travel_id > 0


def test_chaos_union_aggregate_payload_is_fault_checked():
    g = ring_graph(10)
    q = GTravel.v(0, 5).union(
        GTravel.s().e("a"), GTravel.s().e("b")
    ).group_count(by="color")
    for seed in (0, 2):
        outcome = chaos_check(g, [q], seed=seed, crash=seed == 2)
        (v,) = outcome.verdicts
        assert outcome.ok, (seed, v.error, outcome.leaked)
        assert "aggregate" in v.baseline  # the payload carries it
        if v.matched:
            assert v.faulty["aggregate"] == v.baseline["aggregate"]


def test_chaos_many_cancels_unioned_traversal_cleanly():
    g = ring_graph(12)
    union_q = GTravel.v(0).union(
        GTravel.s().e("a").e("a"), GTravel.s().e("b").e("b")
    )
    plain_q = GTravel.v(3).e("a")
    outcome = chaos_check(
        g,
        [union_q, plain_q],
        seed=5,
        deadlines=[1e-6, None],  # the union is cancelled almost immediately
        crash=False,
    )
    assert outcome.ok, (outcome.leaked, [v.__dict__ for v in outcome.verdicts])
    assert outcome.verdicts[0].cancelled
    assert outcome.verdicts[1].ok


def test_direct_cancellation_of_composite_releases_all_state():
    g = ring_graph(12)
    q = GTravel.v(0).repeat(GTravel.s().e("a")).times(6)
    cluster = build_cluster(g, EngineKind.GRAPHTREK)
    travel_id, event = cluster.submit(q, deadline=1e-6)
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(event)
    assert not cluster.coordinator._composites
    assert not cluster.coordinator._active
    assert cluster.registry.get(travel_id) is None
    assert cluster.scheduler.inflight_count == 0


def test_composite_trace_dags_are_valid():
    g = ring_graph(8)
    q = GTravel.v(0).e("a").union(GTravel.s().e("a"), GTravel.s().e("b"))
    cluster = Cluster.build(
        g,
        ClusterConfig(
            nservers=3, engine=EngineKind.GRAPHTREK, trace_enabled=True
        ),
    )
    outcome = cluster.traverse(q)
    from repro.obs.trace import assemble_all

    dags = assemble_all(cluster.board.obs.trace)
    assert len(dags) >= 2  # the composite parent plus its children
    parent_id = outcome.result.travel_id
    assert any(d.travel_id == parent_id for d in dags)


# -- EXPLAIN ------------------------------------------------------------------


def explore_query():
    return (
        GTravel.v(0)
        .e("a")
        .as_("mid")
        .e("b")
        .back("mid")
        .repeat(GTravel.s().e("a"))
        .times(2)
        .union(GTravel.s().e("a"), GTravel.s().e("b"))
        .group_count(by="color")
    )


def test_explain_renders_composite_operators_and_costs():
    g = ring_graph(10)
    cluster = Cluster.build(
        g, ClusterConfig(nservers=3, engine=graphtrek_options(planner="cost"))
    )
    doc = cluster.explain(explore_query())
    plan = doc["plan"]
    kinds = [op["op"] for op in plan["ops"]]
    assert kinds == ["step", "as", "step", "back", "repeat", "union"]
    assert [op["level"] for op in plan["ops"]] == [1, 1, 2, 3, 4, 5]
    assert plan["aggregate"] == {"kind": "group_count", "by": "color"}
    assert doc["planner"] == "cost"
    # a composite runs unrewritten; its children are planned at dispatch
    assert doc["executed"] == plan and doc["rewrites"] == []
    est = plan["estimate"]
    assert est is not None and est["total"] > 0
    assert [lv["level"] for lv in est["levels"]] == list(range(6))
    assert all(lv["cost"] > 0 for lv in est["levels"])


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
def test_explain_prices_a_scan_sourced_composite(preset):
    """Regression: a composite whose source is a ``v()`` scan (no ids) used
    to raise ``TypeError`` when the cost planner priced it."""
    g = ring_graph(10)
    cluster = Cluster.build(
        g, ClusterConfig(nservers=3, engine=preset(planner="cost"))
    )
    q = GTravel.v().va("type", EQ, "T").repeat(GTravel.s().e("a")).times(1)
    doc = cluster.explain(q)
    estimate = doc["plan"]["estimate"]
    assert [lv["level"] for lv in estimate["levels"]] == [0, 1]
    assert estimate["levels"][0]["rows_out"] == 10.0
    assert estimate["total"] > 0


def test_explain_is_deterministic_and_runs_no_traversal():
    g = ring_graph(10)
    docs = []
    for _ in range(2):
        cluster = Cluster.build(
            g,
            ClusterConfig(nservers=3, engine=graphtrek_options(planner="cost")),
        )
        docs.append(json.dumps(cluster.explain(explore_query()), sort_keys=True))
        assert cluster.metrics_snapshot().get("counters", {}).get(
            "coord.submitted"
        ) in (None, 0)
    assert docs[0] == docs[1]


def test_explain_off_mode_has_no_estimate():
    g = ring_graph(6)
    cluster = Cluster.build(
        g, ClusterConfig(nservers=2, engine=graphtrek_options(planner="off"))
    )
    doc = cluster.explain(GTravel.v(0).union(GTravel.s().e("a")))
    assert doc["plan"]["ops"][0]["op"] == "union"
    assert doc["plan"]["estimate"] is None


def test_profile_rejects_composites_with_a_clear_error():
    from repro.errors import UnsupportedProfileTarget

    g = ring_graph(6)
    cluster = build_cluster(g, EngineKind.GRAPHTREK)
    with pytest.raises(UnsupportedProfileTarget, match="composite") as exc:
        cluster.profile(GTravel.v(0).union(GTravel.s().e("a")))
    assert exc.value.kind == "composite"
    assert "explain()" in exc.value.hint

