"""Tier-1 observability smoke target.

Runs a miniature 2-step benchmark cell through the real harness path (the
same ``run_cell`` every figure uses), exports the observability payload, and
fails hard on NaN values or empty/missing histograms — the tripwire for
instrumentation silently falling out of the hot paths.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import metrics_payload, run_cell
from repro.engine import EngineKind
from repro.obs.exporter import validate_snapshot
from repro.workloads import paper_rmat1, pick_start_vertex, rmat_graph, rmat_kstep_query

SMOKE_SCALE = 8  # 256 vertices: seconds of wall time, all hot paths exercised
SMOKE_STEPS = 2


@pytest.fixture(scope="module")
def smoke_graph():
    return rmat_graph(paper_rmat1(scale=SMOKE_SCALE, edge_factor=8, seed=1))


@pytest.fixture(scope="module")
def smoke_plan():
    src = pick_start_vertex(paper_rmat1(scale=SMOKE_SCALE, edge_factor=8, seed=1))
    return rmat_kstep_query(src, SMOKE_STEPS).compile()


@pytest.mark.parametrize(
    "kind", [EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK]
)
def test_smoke_benchmark_cell_emits_healthy_snapshot(smoke_graph, smoke_plan, kind):
    cell = run_cell(smoke_graph, smoke_plan, kind, nservers=2)
    assert cell.metrics, "run_cell must capture an observability snapshot"
    problems = validate_snapshot(cell.metrics, require_histograms=True)
    assert problems == [], f"{kind.value}: " + "; ".join(problems)
    counters = cell.metrics["counters"]
    assert any(key.startswith("engine.real_visits") for key in counters)
    histograms = cell.metrics["histograms"]
    assert any(key.startswith("disk.access_seconds") for key in histograms)
    assert any(key.startswith("travel.elapsed_seconds") for key in histograms)
    # pull collectors populated the storage gauges for every server
    gauges = cell.metrics["gauges"]
    for server in range(2):
        assert f"storage.lsm.gets{{server={server}}}" in gauges


def test_smoke_metrics_payload_round_trips_as_json(smoke_graph, smoke_plan, tmp_path):
    cell = run_cell(smoke_graph, smoke_plan, EngineKind.GRAPHTREK, nservers=2)
    payload = metrics_payload([cell])
    cell_key = f"{cell.engine}x2"
    assert set(payload) == {cell_key}
    out = tmp_path / "smoke_metrics.json"
    out.write_text(json.dumps(payload))
    restored = json.loads(out.read_text())
    assert validate_snapshot(restored[cell_key], require_histograms=True) == []


def test_smoke_snapshot_does_not_change_benchmark_results(smoke_graph, smoke_plan):
    """Instrumentation is out-of-band: recording must not move the simulated
    clock, so the paper-table figures stay exactly where the seed puts them."""
    a = run_cell(smoke_graph, smoke_plan, EngineKind.GRAPHTREK, nservers=2)
    b = run_cell(smoke_graph, smoke_plan, EngineKind.GRAPHTREK, nservers=2)
    assert a.elapsed == b.elapsed
    assert a.real_io_visits == b.real_io_visits
    assert a.metrics == b.metrics
