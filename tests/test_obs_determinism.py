"""Determinism of the observability layer on the simulated runtime.

Identical seeds and configuration must yield *byte-identical* metrics
snapshots and flight-recorder timelines across independently built
clusters — the contract that makes recorded instrument panels diffable
between runs.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.graph import PropertyGraph
from repro.lang import GTravel
from repro.obs.exporter import canonical_json

LABELS = ("calls", "reads")


def seeded_graph(seed: int, n: int = 40, extra_edges: int = 90) -> PropertyGraph:
    rng = random.Random(seed)
    g = PropertyGraph()
    for vid in range(n):
        g.add_vertex(vid, "T", {"color": rng.randrange(3)})
    for vid in range(1, n):  # connected backbone
        g.add_edge(rng.randrange(vid), vid, rng.choice(LABELS), {"w": rng.randrange(4)})
    for _ in range(extra_edges):
        g.add_edge(
            rng.randrange(n), rng.randrange(n), rng.choice(LABELS),
            {"w": rng.randrange(4)},
        )
    return g


def run_once(kind: EngineKind, seed: int = 11, trace: bool = False):
    graph = seeded_graph(seed)
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=3, engine=kind, trace_enabled=trace)
    )
    plan = GTravel.v(0).e("calls").e(*LABELS).e(*LABELS).compile()
    outcome = cluster.traverse(plan)
    return cluster, outcome


@pytest.mark.parametrize(
    "kind", [EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK]
)
def test_metrics_snapshots_byte_identical_across_runs(kind):
    c1, o1 = run_once(kind)
    c2, o2 = run_once(kind)
    assert o1.result.returned == o2.result.returned
    assert c1.obs.metrics.to_json() == c2.obs.metrics.to_json()


@pytest.mark.parametrize(
    "kind", [EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK]
)
def test_trace_timelines_byte_identical_across_runs(kind):
    c1, _ = run_once(kind, trace=True)
    c2, _ = run_once(kind, trace=True)
    assert len(c1.obs.trace), "traced run recorded no events"
    assert c1.obs.trace.to_json() == c2.obs.trace.to_json()


def test_full_payload_byte_identical_and_snapshot_idempotent():
    c1, _ = run_once(EngineKind.GRAPHTREK)
    c2, _ = run_once(EngineKind.GRAPHTREK)
    assert c1.obs.to_json() == c2.obs.to_json()
    # Snapshotting runs the pull collectors; doing it twice must not drift.
    first = canonical_json(c1.metrics_snapshot())
    second = canonical_json(c1.metrics_snapshot())
    assert first == second


def test_export_writes_identical_bytes(tmp_path):
    c1, _ = run_once(EngineKind.GRAPHTREK)
    c2, _ = run_once(EngineKind.GRAPHTREK)
    p1 = c1.export_observability(tmp_path / "run1.json")
    p2 = c2.export_observability(tmp_path / "run2.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_dag_is_causally_well_formed():
    cluster, outcome = run_once(EngineKind.GRAPHTREK, trace=True)
    travel_id = outcome.result.travel_id
    dag = cluster.trace_dag(travel_id)
    dag.verify()
    assert not dag.warnings
    (submitted,) = (
        e.clock
        for e in cluster.obs.trace.events_for(travel_id)
        if e.kind == "travel.submit"
    )
    assert dag.status == "ok" and dag.finished_at is not None
    processed = [n for n in dag.nodes.values() if n.process_count]
    assert processed
    for node in processed:
        assert node.created_at <= node.first_received <= node.last_terminated
    for node in dag.nodes.values():
        for clock in (node.created_at, node.first_received, node.last_terminated):
            assert clock is None or submitted <= clock <= dag.finished_at
