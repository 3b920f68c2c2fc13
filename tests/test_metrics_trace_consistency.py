"""Differential check between the two observability instruments.

The always-on metrics registry and the opt-in flight recorder observe the
same traversal through independent code paths: the engines' work loop makes
one ``engine.unit_vertices{server}`` observation per processed work unit,
the lifecycle instrumentation one ``exec.terminated(reason="ok")`` record.
They must agree — the summed count of those histograms equals the DAG's
``processed_units``. A divergence means one instrument missed or
double-counted work.
"""

from repro.cluster.coordinator import CoordinatorConfig
from repro.engine import EngineKind
from repro.faults.plan import sample_fault_plan
from repro.lang import GTravel

from tests.conftest import ALL_ENGINES, build_cluster


def query_for(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read")


def run_traced(graph, query, kind, **cfg):
    cluster = build_cluster(graph, kind, trace_enabled=True, **cfg)
    outcome = cluster.traverse(query.compile())
    dag = cluster.trace_dag(outcome.result.travel_id)
    return cluster, dag


def observed_units(cluster) -> int:
    """Work units the registry saw: one histogram sample per unit."""
    histograms = cluster.metrics_snapshot()["histograms"]
    return sum(
        summary["count"]
        for key, summary in histograms.items()
        if key.startswith("engine.unit_vertices{")
    )


def test_unit_observations_match_processed_units_every_engine(metadata_graph):
    graph, ids = metadata_graph
    for kind in ALL_ENGINES:
        cluster, dag = run_traced(graph, query_for(ids), kind)
        assert observed_units(cluster) == dag.processed_units, (
            f"{kind.value}: metrics registry and flight recorder disagree on "
            f"processed work units"
        )
        assert dag.processed_units > 0, kind


def test_unit_observations_match_under_wire_faults(metadata_graph):
    """Retries, duplicate deliveries, and fine-grained replays must not
    desynchronize the two instruments: a duplicate that is deduped produces
    neither an observation nor an ok-termination; a replayed execution
    produces exactly one of each per actual processing."""
    graph, ids = metadata_graph
    plan = sample_fault_plan(7, nservers=3, max_drop=0.15, max_duplicate=0.15)
    cc = CoordinatorConfig(
        exec_timeout=1.0, watch_interval=0.25, fine_grained_recovery=True
    )
    for kind in (EngineKind.GRAPHTREK, EngineKind.ASYNC):
        cluster, dag = run_traced(
            graph,
            query_for(ids),
            kind,
            fault_plan=plan,
            reliable=True,
            coordinator_config=cc,
        )
        assert observed_units(cluster) == dag.processed_units, (
            f"{kind.value}: instruments diverged under faults"
        )


def test_processed_units_stable_across_identical_runs(metadata_graph):
    graph, ids = metadata_graph
    counts = []
    for _ in range(2):
        _, dag = run_traced(graph, query_for(ids), EngineKind.GRAPHTREK)
        counts.append(dag.processed_units)
    assert counts[0] == counts[1]
