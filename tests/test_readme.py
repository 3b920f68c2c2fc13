"""README's python blocks run: the Quickstart, "Elastic scale-out" and
"Concurrency & QoS" blocks execute in order in one namespace (the later
blocks reuse the Quickstart's ``graph`` and ``query``), each expression of
the "Query language" block runs against the oracle, the "Observability"
block and the "Operations" telemetry block each run after the Quickstart on
its cluster or graph, the
"EXPLAIN / PROFILE" and "Query planning" blocks run on the generated
Darshan-like graph ``md`` the "Chaos testing" block builds, and the "Chaos
testing" block runs on its own, so a change that breaks the documented
surface fails here.
"""

import ast
import json
import re
from pathlib import Path

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.obs import validate_openmetrics
from repro.workloads import MetadataGraphConfig, generate_metadata_graph

README = Path(__file__).resolve().parents[1] / "README.md"

#: 1-based positions of the ```python blocks this test runs, in order
RUN_BLOCKS = (1, 6, 9)

#: the "Query language" block: five operator expressions over the free names
#: ``f`` (a file), ``u`` (a user) and ``ex`` (an execution)
QUERY_LANGUAGE_BLOCK = 2

#: the "Observability" block (metrics snapshot, profile, Chrome trace,
#: export), run after the Quickstart on its cluster
OBSERVABILITY_BLOCK = 3

#: the keys of every histogram summary in a metrics snapshot
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}

#: the "Operations" block (SLO, sampling, rollups, alerts, hot shards,
#: health, OpenMetrics), run after the Quickstart
TELEMETRY_BLOCK = 5

#: the EXPLAIN / PROFILE block and the query-planning block, run after the
#: Quickstart (for its imports) on ``md``
MD_BLOCKS = (4, 7)

#: the "Chaos testing" block: the one-call differential check, then an
#: explicit fault plan wired into a cluster
CHAOS_BLOCK = 8

#: the top-level keys the README names for every EXPLAIN document
DOCUMENT_KEYS = {"planner", "plan", "executed", "rewrites", "level_map"}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def run_block(blocks: list[str], n: int, namespace: dict) -> None:
    exec(compile(blocks[n - 1], f"README.md python block {n}", "exec"), namespace)


def test_readme_blocks_run_in_one_namespace(capsys):
    blocks = python_blocks()
    namespace: dict = {"__name__": "readme"}
    for n in RUN_BLOCKS:
        run_block(blocks, n, namespace)
    assert namespace["state"].phase == "done"
    assert sorted(namespace["outcome"].result.vertices) == [namespace["data"]]
    assert capsys.readouterr().out.strip()


def test_readme_query_language_block_matches_the_oracle():
    """Bind the block's free names on a small generated graph, evaluate each
    top-level expression, and run it on a 3-server GraphTrek cluster: vertex
    sets and aggregates equal the oracle's."""
    md = generate_metadata_graph(MetadataGraphConfig(users=4, files=64, seed=42))
    namespace: dict = {
        "f": md.file_ids[0],
        "u": md.user_ids[0],
        "ex": md.execution_ids[0],
    }
    name = f"README.md python block {QUERY_LANGUAGE_BLOCK}"
    queries = []
    for node in ast.parse(python_blocks()[QUERY_LANGUAGE_BLOCK - 1]).body:
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), name, "eval")
            queries.append(eval(expression, namespace))
        else:
            exec(compile(ast.Module([node], []), name, "exec"), namespace)
    assert len(queries) == 5
    oracle = ReferenceEngine(md.graph)
    for query in queries:
        plan = query.compile()
        cluster = Cluster.build(
            md.graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
        )
        assert cluster.traverse(plan).result.same_result(oracle.run(plan)), (
            plan.describe()
        )


def test_readme_observability_block_runs(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
    namespace: dict = {"__name__": "readme"}
    run_block(blocks, 1, namespace)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)  # the block exports run.json into the cwd
    run_block(blocks, OBSERVABILITY_BLOCK, namespace)
    snap, srv = namespace["snap"], namespace["srv"]
    disk = snap["histograms"]["disk.access_seconds" + srv]
    assert set(disk) == HISTOGRAM_KEYS
    assert disk["count"] > 0 and disk["min"] <= disk["p50"] <= disk["max"]
    assert namespace["report"].result_count == 1
    assert "L3" in capsys.readouterr().out
    assert namespace["chrome"]["traceEvents"]
    exported = json.loads((tmp_path / "run.json").read_text())
    assert set(exported) == {"metrics", "trace"}


def test_readme_explain_profile_and_planning_blocks_run(capsys):
    blocks = python_blocks()
    md = generate_metadata_graph(MetadataGraphConfig(users=12, files=512, seed=42))
    namespace: dict = {"__name__": "readme", "md": md}
    run_block(blocks, 1, namespace)
    explain_block, planning_block = MD_BLOCKS
    run_block(blocks, explain_block, namespace)
    doc, report = namespace["doc"], namespace["report"]
    assert set(doc) == DOCUMENT_KEYS
    assert [op["level"] for op in doc["plan"]["ops"]] == [1, 2, 3]
    assert set(report.plan) == DOCUMENT_KEYS
    assert report.result_count > 0
    assert "L3" in capsys.readouterr().out
    run_block(blocks, planning_block, namespace)
    doc = namespace["doc"]
    assert set(doc) == DOCUMENT_KEYS
    assert [r["name"] for r in doc["rewrites"]] == ["reverse_chain"]
    assert doc["plan"]["estimate"] and doc["executed"]["estimate"]


def test_readme_telemetry_block_runs(capsys):
    blocks = python_blocks()
    namespace: dict = {"__name__": "readme"}
    run_block(blocks, 1, namespace)
    capsys.readouterr()
    run_block(blocks, TELEMETRY_BLOCK, namespace)
    cluster = namespace["cluster"]
    # the Quickstart query outlasts the block's 5 ms objective
    assert [(a["objective"], a["state"]) for a in cluster.alert_log()] == [
        ("latency", "firing"),
    ]
    assert cluster.health()["status"] == "degraded"
    assert cluster.rollups()["counters"]
    text = capsys.readouterr().out.removesuffix("\n")  # print's newline
    assert "rollup_engine_real_visits_rate" in text
    assert validate_openmetrics(text) == []


def test_readme_chaos_block_runs(capsys):
    blocks = python_blocks()
    namespace: dict = {"__name__": "readme"}
    run_block(blocks, CHAOS_BLOCK, namespace)
    outcome = namespace["outcome"]
    assert outcome.ok
    assert outcome.leaked == []
    (verdict,) = outcome.verdicts
    # the explicit-plan leg returns the fault-free set
    assert namespace["result"].result.returned == verdict.baseline
    assert "faults.crashes" in capsys.readouterr().out
