"""Migration differential suite (this PR's proof obligation): traversal
results must be element-identical with and without a concurrent shard
migration, across every engine, planner mode, and contended scheduler
policy — an online rebalance moves data, never answers.

Legs: the 10-seed × engine × planner × fifo/wfq matrix on linear queries;
composite plans (repeat / union / back) and aggregates crossing a live
migration; deadline-cancelled travels during the double-routing window;
and zero-leak assertions on every migration's terminal state.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.engine.options import options_for
from repro.errors import TraversalCancelled
from repro.faults.chaos import leaked_state
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.rebalance import MigrationConfig
from repro.sched import SchedulerConfig

from tests.conftest import ALL_ENGINES

SEEDS = range(10)
PLANNERS = ("off", "rules", "cost")
POLICIES = ("fifo", "wfq")

#: contended queueing, so migration jobs genuinely interleave with travels
SCHED = SchedulerConfig(
    max_inflight=2, tenant_weights={"interactive": 3.0, "rebalance": 0.5}
)
#: small chunks + a real dual window maximize migration/travel overlap
MIGRATION = MigrationConfig(chunk_vertices=4, dual_window=0.02)


def random_graph(rng: random.Random, nvertices: int = 24, nedges: int = 72):
    g = PropertyGraph()
    for vid in range(nvertices):
        g.add_vertex(vid, "node", {"x": vid % 5})
    for _ in range(nedges):
        src = rng.randrange(nvertices)
        dst = rng.randrange(nvertices)
        g.add_edge(src, dst, rng.choice(("link", "ref")), {})
    return g


def random_queries(rng: random.Random, nvertices: int, n: int = 5):
    queries = []
    for _ in range(n):
        q = GTravel.v(rng.randrange(nvertices))
        for _ in range(rng.randint(1, 3)):
            q = q.e(rng.choice(("link", "ref")))
        if rng.random() < 0.3:
            q = q.rtn()
        queries.append(q.compile())
    return queries


def normalize(returned: dict) -> dict:
    return {lv: frozenset(vids) for lv, vids in returned.items() if vids}


def build(graph, engine, planner, policy):
    return Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=options_for(engine, scheduler=policy, planner=planner),
            scheduler_config=SCHED,
            migration=MIGRATION,
            journal=True,
        ),
    )


def migration_source(cluster, fraction: float = 0.5):
    """Half of server 1's vertices (server 1, so the coordinator host and
    the migration target both stay distinct from the source)."""
    vids = sorted(cluster.servers[1].store.local_vertices())
    take = max(1, int(len(vids) * fraction))
    return tuple(vids[:take])


def run_with_migration(cluster, plans, qos=None):
    """Submit ``plans`` with a migration racing them: half the travels are
    admitted, the migration starts, the rest are admitted, everything
    drains together on the virtual clock."""
    specs = qos if qos is not None else [{} for _ in plans]
    half = len(plans) // 2
    events = [
        cluster.submit(q, **spec)[1]
        for q, spec in zip(plans[:half], specs[:half])
    ]
    vids = migration_source(cluster)
    _, mig_event = cluster.rebalance(1, 2, vids=vids, wait=False)
    events += [
        cluster.submit(q, **spec)[1]
        for q, spec in zip(plans[half:], specs[half:])
    ]
    outcomes = [cluster.runtime.run_until_complete(e) for e in events]
    state = cluster.runtime.run_until_complete(mig_event)
    return outcomes, state, vids


def assert_no_leaks(cluster):
    assert leaked_state(cluster, ()) == []


def assert_moved(cluster, vids):
    for vid in vids:
        assert cluster.routing.owner(vid) == 2
        assert cluster.servers[2].store.has_vertex(vid)
        assert not cluster.servers[1].store.has_vertex(vid)


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_results_identical_with_and_without_migration(engine, planner):
    """The differential matrix: for 10 seeds and both contended policies,
    a concurrent migration changes no traversal's result."""
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        plans = random_queries(rng, 24)
        qos = [
            {"tenant": rng.choice(("interactive", "batch"))} for _ in plans
        ]
        baseline_cluster = build(graph, engine, planner, "fifo")
        baseline = [
            normalize(o.result.returned)
            for o in baseline_cluster.traverse_many(plans, cold=False, qos=qos)
        ]
        for policy in POLICIES:
            cluster = build(graph, engine, planner, policy)
            outcomes, state, vids = run_with_migration(cluster, plans, qos)
            assert state.phase == "done", (seed, policy, state.abort_reason)
            got = [normalize(o.result.returned) for o in outcomes]
            assert got == baseline, (
                f"seed={seed} {engine.value}/{planner}/{policy}: "
                f"migration changed results"
            )
            assert_moved(cluster, vids)
            assert_no_leaks(cluster)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_composite_plans_cross_migration(engine, policy):
    """repeat / union / back / aggregate plans racing a migration return
    exactly what they return on a static cluster."""
    for seed in (0, 1, 2, 3, 4):
        rng = random.Random(200 + seed)
        graph = random_graph(rng)
        plans = [
            GTravel.v(rng.randrange(24))
            .repeat(GTravel.s().e("link"))
            .times(2)
            .compile(),
            GTravel.v(rng.randrange(24))
            .union(GTravel.s().e("link"), GTravel.s().e("ref"))
            .compile(),
            GTravel.v(rng.randrange(24))
            .as_("a")
            .e("link")
            .back("a")
            .e("ref")
            .compile(),
            GTravel.v(rng.randrange(24)).e("link").count().compile(),
        ]
        baseline_cluster = build(graph, engine, "off", policy)
        baseline = []
        for plan in plans:
            out = baseline_cluster.traverse(plan, cold=False)
            baseline.append(
                (normalize(out.result.returned), out.result.aggregate)
            )
        cluster = build(graph, engine, "off", policy)
        outcomes, state, vids = run_with_migration(cluster, plans)
        assert state.phase == "done", (seed, state.abort_reason)
        got = [
            (normalize(o.result.returned), o.result.aggregate)
            for o in outcomes
        ]
        assert got == baseline, f"seed={seed} {engine.value}/{policy}"
        assert_moved(cluster, vids)
        assert_no_leaks(cluster)


@pytest.mark.parametrize("policy", POLICIES)
def test_deadline_cancelled_travels_do_not_wedge_migration(policy):
    """Travels cancelled by deadline mid-migration neither corrupt results
    nor wedge the drain: the migration still commits and nothing leaks."""
    for seed in (0, 1, 2):
        rng = random.Random(300 + seed)
        graph = random_graph(rng, nvertices=30, nedges=120)
        long_plans = [
            GTravel.v(rng.randrange(30)).e("link").e("link").e("ref").compile()
            for _ in range(4)
        ]
        check_plan = GTravel.v(rng.randrange(30)).e("link").compile()
        cluster = build(graph, EngineKind.GRAPHTREK, "off", policy)
        baseline_cluster = build(graph, EngineKind.GRAPHTREK, "off", policy)
        want = normalize(
            baseline_cluster.traverse(check_plan, cold=False).result.returned
        )
        # tiny deadlines: these travels die while the migration runs
        doomed = [
            cluster.submit(p, deadline=1e-4)[1] for p in long_plans[:2]
        ]
        vids = migration_source(cluster)
        _, mig_event = cluster.rebalance(1, 2, vids=vids, wait=False)
        doomed += [
            cluster.submit(p, deadline=1e-4)[1] for p in long_plans[2:]
        ]
        check_event = cluster.submit(check_plan)[1]
        cancelled = 0
        for event in doomed:
            try:
                cluster.runtime.run_until_complete(event)
            except TraversalCancelled:
                cancelled += 1
        outcome = cluster.runtime.run_until_complete(check_event)
        state = cluster.runtime.run_until_complete(mig_event)
        assert cancelled > 0, "deadlines never fired; the leg is vacuous"
        assert state.phase == "done", state.abort_reason
        assert normalize(outcome.result.returned) == want
        assert_moved(cluster, vids)
        assert_no_leaks(cluster)


def test_key_range_migration_and_repeat_queries():
    """The key-range form of ``Cluster.rebalance`` selects exactly the
    source's vertices inside [lo, hi), and repeated post-migration queries
    (cache warm + cold) keep matching."""
    rng = random.Random(42)
    graph = random_graph(rng)
    cluster = build(graph, EngineKind.GRAPHTREK, "cost", "fifo")
    local = sorted(cluster.servers[1].store.local_vertices())
    lo, hi = local[0], local[len(local) // 2] + 1
    expected = tuple(v for v in local if lo <= v < hi)
    plan = GTravel.v(expected[0]).e("link").compile()
    before = normalize(cluster.traverse(plan, cold=False).result.returned)
    state = cluster.rebalance(1, 0, key_range=(lo, hi))
    assert state.phase == "done"
    assert state.vids == expected
    for cold in (False, True):
        after = normalize(
            cluster.traverse(plan, cold=cold).result.returned
        )
        assert after == before
    assert_no_leaks(cluster)
