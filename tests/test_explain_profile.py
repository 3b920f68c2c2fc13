"""GTravel ``explain()`` and ``Client.profile()`` acceptance tests.

The two query-facing halves of the tracing stack: EXPLAIN is a pure
function of the compiled plan (no traversal runs), PROFILE reconstructs a
rooted execution DAG that must cover 100% of recorded executions, and on
the simulated runtime the whole report is byte-identical per
(seed, configuration).
"""

import json

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.client import GraphTrekClient
from repro.engine import EngineKind, graphtrek_options
from repro.lang import GTravel
from repro.lang.filters import EQ
from repro.obs.explain import empty_plan_document
from repro.obs.trace import validate_trace

from tests.conftest import ALL_ENGINES, build_cluster


def query_for(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read")


def test_explain_is_structural_and_runs_no_traversal(metadata_graph):
    graph, ids = metadata_graph
    q = (
        GTravel.v(*ids["users"])
        .e("run")
        .e("hasExecutions")
        .va("model", EQ, "A")
        .rtn()
        .e("read")
        .va("kind", EQ, "text")
    )
    plan = q.explain()
    assert plan["final_level"] == 3
    assert [s["labels"] for s in plan["steps"]] == [
        ["run"], ["hasExecutions"], ["read"]
    ]
    assert plan["steps"][1]["vertex_filters"] == [
        {"key": "model", "op": "EQ", "value": "A"}
    ]
    assert plan["steps"][1]["rtn"] and not plan["steps"][0]["rtn"]
    assert plan["rtn_levels"] == [2]
    assert plan["has_intermediate_returns"]
    assert sorted(v for v in ids["users"]) == sorted(plan["source"]["ids"])
    # canonical-JSON-safe: frozenset/tuple filter values already converted
    json.dumps(plan, sort_keys=True)


def test_explain_matches_compiled_plan_explain(metadata_graph):
    _, ids = metadata_graph
    q = query_for(ids)
    assert q.explain() == q.compile().explain()
    composite = GTravel.v(*ids["users"]).repeat(GTravel.s().e("run")).times(1)
    doc = composite.explain()
    assert doc == composite.compile().explain()
    assert doc["type"] == "composite" and doc["ops"][0]["op"] == "repeat"


def test_profile_reconstructs_full_dag_every_engine(metadata_graph):
    """Acceptance: the profile's trace is a rooted DAG covering 100% of the
    recorded executions, for all three engines."""
    graph, ids = metadata_graph
    for kind in ALL_ENGINES:
        cluster = build_cluster(graph, kind)
        client = GraphTrekClient(cluster)
        report = client.profile(query_for(ids))
        assert report.status == "ok", kind
        dag_nodes = {n["exec_id"] for n in report.trace["nodes"]}
        assert dag_nodes, kind
        # rooted + full coverage: every recorded execution is reachable
        dag = cluster.trace_dag(report.travel_id)
        assert dag.reachable() == set(dag.nodes), kind
        assert set(dag.nodes) == dag_nodes, kind
        assert report.trace["roots"], kind
        # per-step rows exist for every plan level, with real work attributed
        assert [s.level for s in report.steps][:4] == [0, 1, 2, 3]
        assert sum(s.processed_units for s in report.steps) == dag.processed_units
        assert sum(report.per_server.values()) == len(dag.nodes)
        assert all(s.wall_clock > 0 for s in report.steps if s.executions), kind
        # the history recorded the run like a normal query
        assert client.history and client.history[-1].outcome is not None


def test_profile_reports_cache_hits_and_wall_clock(metadata_graph):
    graph, ids = metadata_graph
    cluster = build_cluster(graph, EngineKind.GRAPHTREK)
    _, report = cluster.profile(query_for(ids))
    final = report.steps[-1]
    assert final.wall_clock is not None and final.wall_clock > 0
    # a level runs from its first receipt to the terminal, and level k+1 is
    # first received after level k: wall-clock never grows along the chain
    walls = [s.wall_clock for s in report.steps]
    assert all(later <= earlier for earlier, later in zip(walls, walls[1:]))
    visited = sum(s.stats.get("vertices", 0) for s in report.steps)
    assert visited > 0
    assert report.result_count is not None and report.result_count > 0
    # the formatted table renders one row per level
    table = report.format()
    assert table.count("\n  L") == len(report.steps)


def test_profile_is_byte_identical_per_seed_and_config(metadata_graph):
    graph, ids = metadata_graph
    payloads = []
    for _ in range(2):
        cluster = build_cluster(graph, EngineKind.GRAPHTREK)
        _, report = cluster.profile(query_for(ids))
        payloads.append(report.to_json())
        chrome = json.dumps(cluster.trace_payload(), sort_keys=True)
        payloads.append(chrome)
        dag = cluster.trace_dag(report.travel_id).to_json()
        assert json.loads(dag) == report.trace
        payloads.append(dag)
    assert payloads[0] == payloads[3]  # profile JSON
    assert payloads[1] == payloads[4]  # Chrome trace JSON
    assert payloads[2] == payloads[5]  # execution DAG JSON


def scan_query():
    """A scan-shaped chain the cost planner can rewrite."""
    return (
        GTravel.v()
        .va("type", EQ, "Execution")
        .e("read")
        .va("kind", EQ, "text")
        .rtn()
    )


def planner_cluster(graph, mode="cost", **cfg):
    return Cluster.build(
        graph,
        ClusterConfig(nservers=3, engine=graphtrek_options(planner=mode), **cfg),
    )


def test_explain_with_planner_shows_both_plans_and_costs(metadata_graph):
    graph, _ = metadata_graph
    cluster = planner_cluster(graph, "cost")
    doc = cluster.explain(scan_query())
    assert doc["planner"] == "cost"
    # both plan documents are complete EXPLAIN structures
    for side in ("original", "optimized"):
        assert doc[side]["steps"], side
        assert "annotations" in doc[side], side
    # cost mode always carries numeric per-level estimates for both plans
    for side in ("cost_original", "cost_optimized"):
        assert doc[side] is not None, side
        assert doc[side]["total"] > 0.0, side
        assert len(doc[side]["levels"]) >= 1, side
        for row in doc[side]["levels"]:
            assert set(row) == {"level", "rows_in", "rows_out", "cost"}
    assert isinstance(doc["rewrites"], list)
    json.dumps(doc, sort_keys=True)
    # rules mode explains without cost estimates
    rules_doc = planner_cluster(graph, "rules").explain(scan_query())
    assert rules_doc["planner"] == "rules"
    assert rules_doc["cost_original"] is None
    # and the planner-free cluster keeps the plain single-plan document
    plain_doc = build_cluster(graph, EngineKind.GRAPHTREK).explain(scan_query())
    assert "planner" not in plain_doc
    assert plain_doc["steps"]


def test_profile_with_planner_reports_estimated_vs_actual(metadata_graph):
    graph, _ = metadata_graph
    cluster = planner_cluster(graph, "cost")
    _, report = cluster.profile(scan_query())
    assert report.status == "ok"
    assert report.planner["mode"] == "cost"
    assert report.estimates, "cost mode must attach estimate rows"
    actual_by_level = {s.level: s.stats.get("vertices", 0) for s in report.steps}
    for row in report.estimates:
        assert set(row) >= {
            "level", "original_level", "estimated_rows", "actual_rows",
            "estimated_cost",
        }
        assert row["actual_rows"] == actual_by_level.get(row["level"], 0)
    # the report's query/plan keep the ORIGINAL chain the user wrote
    assert report.plan["steps"][0]["labels"] == ["read"]
    json.dumps(report.payload(), sort_keys=True)


def test_profile_with_planner_is_byte_identical_per_seed_and_config(metadata_graph):
    graph, _ = metadata_graph
    payloads = []
    for _ in range(2):
        cluster = planner_cluster(graph, "cost")
        _, report = cluster.profile(scan_query())
        payloads.append(report.to_json())
        payloads.append(json.dumps(cluster.trace_payload(), sort_keys=True))
    assert payloads[0] == payloads[2]  # profile JSON
    assert payloads[1] == payloads[3]  # Chrome trace JSON


def test_empty_chain_explain_is_well_formed():
    """Regression: ``GTravel().explain()`` used to blow up before ``v()``."""
    doc = GTravel().explain()
    assert doc == empty_plan_document()
    assert doc["final_level"] == 0
    assert doc["steps"] == []
    json.dumps(doc, sort_keys=True)


def test_chrome_trace_round_trips_the_validator(metadata_graph):
    graph, ids = metadata_graph
    cluster = build_cluster(graph, EngineKind.ASYNC, trace_enabled=True)
    cluster.traverse(query_for(ids).compile())
    payload = cluster.trace_payload(label="test")
    assert payload["traceEvents"]
    assert validate_trace(payload) == []
    # serialization round trip preserves validity
    assert validate_trace(json.loads(json.dumps(payload))) == []
