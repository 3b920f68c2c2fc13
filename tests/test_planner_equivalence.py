"""Differential planner-equivalence suite.

The planner is only allowed to make traversals cheaper, never different:
for every (graph, chain) pair the returned per-level vertex sets must be
element-identical under ``planner=off``, ``rules``, and ``cost``, on all
three distributed engines, and must match the single-node oracle run on
the *original* (unrewritten) plan. Chains cover rtn() placement (none /
final / intermediate), multi-label steps, EQ/IN/RANGE filters on both
vertices and edges, seeded sources and full scans (the scans are what the
cost mode may reverse). Two legs check that planning pays: ``cost`` beats
``off`` on the reversed audit scan and on a k-step chain, and ``rules`` is
never more than 2 % slower than ``off``. A final leg re-checks the cost
planner under a sampled fault plan and a mid-traversal crash.
"""

import random

from repro.cluster import Cluster, ClusterConfig
from repro.engine import (
    ReferenceEngine,
    graphtrek_options,
    plain_async_options,
    sync_options,
)
from repro.faults.chaos import chaos_check
from repro.graph import PropertyGraph
from repro.lang import EQ, IN, RANGE, GTravel
from repro.lang.filters import FilterSet, PropertyFilter
from repro.lang.plan import Step, TraversalPlan
from repro.workloads import (
    MetadataGraphConfig,
    audit_scan_query,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
)

MODES = ("off", "rules", "cost")
ENGINES = (sync_options, plain_async_options, graphtrek_options)
LABELS = ("a", "b")
TYPES = ("U", "F")
SEEDS = range(12)


def seeded_graph(rng: random.Random) -> PropertyGraph:
    """Small typed graph: U and F vertices, 'a'/'b' edges with a weight."""
    n = rng.randint(10, 26)
    g = PropertyGraph()
    for vid in range(n):
        vtype = TYPES[vid % 2]
        g.add_vertex(vid, vtype, {"color": rng.randrange(3), "size": rng.randrange(8)})
    for _ in range(rng.randint(n, 3 * n)):
        g.add_edge(
            rng.randrange(n),
            rng.randrange(n),
            rng.choice(LABELS),
            {"w": rng.randrange(4), "ts": rng.random()},
        )
    return g


def _random_filterset(rng: random.Random, keys: tuple[str, ...]) -> FilterSet:
    filters = []
    for key in keys:
        roll = rng.random()
        if roll < 0.55:
            continue
        if roll < 0.75:
            filters.append(PropertyFilter(key, EQ, rng.randrange(3)))
        elif roll < 0.9:
            filters.append(PropertyFilter(key, IN, (0, rng.randrange(1, 4))))
        else:
            lo = rng.randrange(3)
            filters.append(PropertyFilter(key, RANGE, (lo, lo + rng.randrange(1, 5))))
    return FilterSet.of(filters)


def seeded_plan(rng: random.Random, graph: PropertyGraph) -> TraversalPlan:
    n = graph.num_vertices
    if rng.random() < 0.5:
        source_ids = tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))
        source_filters = _random_filterset(rng, ("color",))
    else:
        # scan source pinned to one type: the shape the cost mode may reverse
        source_ids = None
        source_filters = FilterSet.of(
            [PropertyFilter("type", EQ, rng.choice(TYPES))]
        )
        if rng.random() < 0.5:
            source_filters = source_filters.add(
                PropertyFilter("color", IN, (0, 1))
            )
    n_steps = rng.randint(0, 4)
    steps = []
    for _ in range(n_steps):
        n_labels = 1 if rng.random() < 0.7 else 2
        labels = tuple(sorted(rng.sample(LABELS, n_labels)))
        steps.append(
            Step(
                labels,
                _random_filterset(rng, ("w",)),
                _random_filterset(rng, ("color", "size")),
            )
        )
    # rtn placement: none extra (final only), intermediate, or several
    rtn_levels = {n_steps}
    if n_steps and rng.random() < 0.4:
        rtn_levels.add(rng.randrange(n_steps + 1))
    return TraversalPlan(
        source_ids=source_ids,
        source_filters=source_filters,
        steps=tuple(steps),
        rtn_levels=frozenset(rtn_levels),
    )


def test_planner_modes_and_engines_are_element_identical():
    rewrites_seen: set[str] = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = seeded_graph(rng)
        plan = seeded_plan(rng, graph)
        ref = ReferenceEngine(graph).run(plan)
        for mode in MODES:
            for preset in ENGINES:
                opts = preset(planner=mode)
                cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=opts))
                if cluster.coordinator.planner is not None:
                    rewrites_seen.update(
                        r.name for r in cluster.coordinator.planner.plan(plan).rewrites
                    )
                outcome = cluster.traverse(plan)
                assert outcome.result.same_vertices(ref), (
                    f"seed {seed} planner={mode} engine={opts.kind.value}: "
                    f"{outcome.result.returned} != {ref.returned} "
                    f"for {plan.describe()}"
                )
    # the sweep must actually exercise the rewrite rules, not just identity plans
    assert "short_circuit_final" in rewrites_seen
    assert "fuse_filters" in rewrites_seen or "pushdown_filters" in rewrites_seen


def bipartite_scan_case():
    """A graph + scan chain the cost planner provably reverses: a few E
    vertices fan out over 'r' edges into a large F set, and the chain's
    selective filters all sit at the far (F) end."""
    g = PropertyGraph()
    rng = random.Random(7)
    for vid in range(180):
        g.add_vertex(vid, "E", {"ts": vid / 180.0})
    for vid in range(180, 216):
        g.add_vertex(vid, "F", {"kind": rng.choice(("text", "bin")), "tag": vid % 5})
    for src in range(180):
        g.add_edge(src, rng.randrange(180, 216), "r", {"sz": rng.randrange(10)})
    q = (
        GTravel.v()
        .va("type", EQ, "E")
        .va("ts", RANGE, (0.0, 0.5))
        .e("r")
        .va("kind", EQ, "text")
        .va("tag", IN, (0, 1))
        .rtn()
    )
    return g, q


def test_cost_mode_reversal_preserves_results():
    g, q = bipartite_scan_case()
    plan = q.compile()
    ref = ReferenceEngine(g).run(plan)
    opts = graphtrek_options(planner="cost")
    cluster = Cluster.build(g, ClusterConfig(nservers=3, engine=opts))
    planned = cluster.coordinator.planner.plan(plan)
    assert any(r.name == "reverse_chain" for r in planned.rewrites), (
        "the motivating scan must actually be reversed"
    )
    outcome = cluster.traverse(plan)
    assert outcome.result.same_vertices(ref)
    # the outcome reports levels of the ORIGINAL plan, executed plan attached
    assert outcome.plan == plan
    assert outcome.executed_plan is not None
    assert outcome.executed_plan != plan


def stats_per_mode(graph, plan) -> dict:
    """One cold 4-server GraphTrek run per planner mode; the answers agree."""
    outcomes = {
        mode: Cluster.build(
            graph, ClusterConfig(nservers=4, engine=graphtrek_options(planner=mode))
        ).traverse(plan)
        for mode in MODES
    }
    assert len({frozenset(o.result.returned.items()) for o in outcomes.values()}) == 1
    return {mode: outcome.stats for mode, outcome in outcomes.items()}


def test_cost_mode_wins_on_the_audit_scan():
    """The audit query written as a scan starts from every Execution; the
    cost planner reverses it to start from the far smaller filtered File set
    and processes fewer visits in less virtual time."""
    md = generate_metadata_graph(MetadataGraphConfig(users=12, files=512, seed=42))
    stats = stats_per_mode(md.graph, audit_scan_query().compile())
    off, rules, cost = (stats[mode] for mode in MODES)
    assert cost.total_visits < off.total_visits
    assert cost.elapsed < off.elapsed
    assert rules.elapsed <= off.elapsed * 1.02


def test_planned_k_step_chain_beats_off():
    """The 8-step RMAT chain's final hop is unfiltered, which the rule
    planner short-circuits (no final-level visits): ``cost`` is faster than
    ``off`` and ``rules`` never more than 2 % slower."""
    rmat = paper_rmat1(scale=8, edge_factor=16, seed=1)
    plan = rmat_kstep_query(pick_start_vertex(rmat, rng_seed=7), 8).compile()
    stats = stats_per_mode(rmat_graph(rmat), plan)
    assert stats["cost"].elapsed < stats["off"].elapsed
    assert stats["rules"].elapsed <= stats["off"].elapsed * 1.02


def test_cost_mode_survives_fault_injection():
    g, q = bipartite_scan_case()
    for seed, crash in ((3, False), (5, True)):
        outcome = chaos_check(
            g, [q], seed=seed, engine=graphtrek_options(planner="cost"), crash=crash
        )
        (v,) = outcome.verdicts
        assert outcome.ok, (
            f"seed {seed} crash={crash}: {v.error or v.faulty}, "
            f"leaked={outcome.leaked}"
        )
        assert v.matched or crash, (
            f"seed {seed}: drop/duplicate faults alone must not lose results"
        )


def test_rules_mode_survives_fault_injection_on_random_chain():
    rng = random.Random(41)
    graph = seeded_graph(rng)
    plan = seeded_plan(rng, graph)
    outcome = chaos_check(
        graph, [plan], seed=11, engine=graphtrek_options(planner="rules")
    )
    assert outcome.ok, (outcome.verdicts[0].error, outcome.leaked)
