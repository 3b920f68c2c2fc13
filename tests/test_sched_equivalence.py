"""Differential concurrency harness for the scheduler (the PR's proof
obligation): N random traversals submitted concurrently under every
scheduler policy and every engine must return exactly what serial
single-traversal oracle runs return — scheduling reorders work, never
answers. A second leg reruns the matrix under a sampled fault plan with one
mid-run crash; a third asserts the scheduler itself is deterministic
(identical ``sched.*`` metric snapshots and byte-identical trace
serializations for repeated seeded runs)."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.engine.options import options_for
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel
from repro.sched import POLICY_NAMES, SchedulerConfig

from tests.conftest import ALL_ENGINES

SEEDS = range(10)

#: queueing is forced so policies actually reorder launches
SCHED = SchedulerConfig(
    max_inflight=2, tenant_weights={"interactive": 3.0, "batch": 1.0}
)


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


def qos_specs(rng: random.Random, n: int):
    return [
        {"tenant": rng.choice(("interactive", "batch"))} for _ in range(n)
    ]


def normalize(returned: dict) -> dict:
    """Drop empty levels: engines omit them, the oracle may include them
    (``same_vertices`` semantics)."""
    return {lv: frozenset(vids) for lv, vids in returned.items() if vids}


def oracle_results(graph, plans):
    ref = ReferenceEngine(graph)
    return [normalize(ref.run(plan).returned) for plan in plans]


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_concurrent_matches_serial_oracle(engine: EngineKind, policy: str):
    """The differential contract across ≥10 seeds: concurrent execution
    through the scheduler returns the serial oracle's result sets."""
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        plans = random_queries(rng, 24)
        expected = oracle_results(graph, plans)
        cluster = Cluster.build(
            graph,
            ClusterConfig(
                nservers=3,
                engine=options_for(engine, scheduler=policy),
                scheduler_config=SCHED,
            ),
        )
        outcomes = cluster.traverse_many(
            plans, cold=False, qos=qos_specs(rng, len(plans))
        )
        for i, (outcome, want) in enumerate(zip(outcomes, expected)):
            got = normalize(outcome.result.returned)
            assert got == want, (
                f"seed={seed} {engine.value}/{policy} query {i}: "
                f"{got} != oracle {want}"
            )
        assert cluster.scheduler.queue_depth == 0
        assert cluster.scheduler.inflight_count == 0


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_concurrent_under_faults_with_crash(policy: str):
    """The same differential contract under a PR-2 fault plan with one
    mid-run server crash: every query matches its serial fault-free oracle
    or fails cleanly, and the cluster leaks no state."""
    from repro.faults.chaos import chaos_check

    for seed in (0, 1, 2, 3):
        rng = random.Random(100 + seed)
        graph = random_graph(rng)
        plans = random_queries(rng, 24, n=3)
        outcome = chaos_check(
            graph,
            plans,
            seed=seed,
            engine=options_for(EngineKind.GRAPHTREK, scheduler=policy),
            scheduler_config=SCHED,
            tenants=[spec["tenant"] for spec in qos_specs(rng, len(plans))],
            crash=True,
        )
        assert outcome.ok, (
            f"seed={seed} policy={policy}: leaked={outcome.leaked} "
            f"verdicts={[(v.index, v.matched, v.failed_cleanly, v.error) for v in outcome.verdicts]}"
        )


def _sched_run(seed: int, policy: str):
    """One seeded concurrent run; returns (sched metrics, trace bytes)."""
    rng = random.Random(seed)
    graph = random_graph(rng)
    plans = random_queries(rng, 24)
    specs = qos_specs(rng, len(plans))
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=options_for(EngineKind.GRAPHTREK, scheduler=policy),
            scheduler_config=SCHED,
            trace_enabled=True,
        ),
    )
    cluster.traverse_many(plans, cold=False, qos=specs)
    snap = cluster.metrics_snapshot()
    sched_metrics = {
        section: {
            k: v for k, v in snap.get(section, {}).items() if k.startswith("sched.")
        }
        for section in ("counters", "gauges", "histograms")
    }
    return sched_metrics, cluster.board.obs.trace.to_json()


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_seed_sweep_determinism(policy: str):
    """Repeated runs of the same (seed, policy, workload) on the simulated
    runtime produce identical ``sched.*`` metric snapshots and byte-identical
    trace serializations."""
    for seed in (0, 5, 9):
        first_metrics, first_trace = _sched_run(seed, policy)
        again_metrics, again_trace = _sched_run(seed, policy)
        assert first_metrics == again_metrics, f"seed={seed} metrics diverged"
        assert first_trace == again_trace, f"seed={seed} trace bytes diverged"
        assert first_metrics["counters"], "no sched.* counters recorded"


def test_policies_disagree_on_order_not_results():
    """Sanity check that the matrix is not vacuous: policies genuinely
    produce different launch orders on a contended workload."""
    orders = {}
    for policy in POLICY_NAMES:
        rng = random.Random(7)
        graph = random_graph(rng)
        plans = random_queries(rng, 24)
        cluster = Cluster.build(
            graph,
            ClusterConfig(
                nservers=3,
                engine=options_for(EngineKind.GRAPHTREK, scheduler=policy),
                scheduler_config=SchedulerConfig(max_inflight=1),
                trace_enabled=True,
            ),
        )
        cluster.traverse_many(plans, cold=False, qos=qos_specs(rng, len(plans)))
        orders[policy] = tuple(
            ev.travel_id
            for ev in cluster.board.obs.trace.events()
            if ev.kind == "sched.launch"
        )
    assert len(set(orders.values())) > 1, (
        f"all policies launched in the same order: {orders}"
    )
