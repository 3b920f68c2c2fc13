"""Consistency of traversals running concurrently with live ingest.

The paper's system "must support live updates (to ingest production
information in real time)" alongside traversals. With additive updates
(vertices/edges only appear), a traversal racing with ingest must return a
result bounded by the two snapshots:

    oracle(pre-state)  ⊆  result  ⊆  oracle(post-state)
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine, options_for
from repro.graph import GraphBuilder, PropertyGraph, hpc_metadata_schema
from repro.lang import GTravel


def build_base():
    b = GraphBuilder(schema=hpc_metadata_schema())
    user = b.vertex("User", name="u0")
    jobs = [b.vertex("Job", jobid=i, ts=float(i)) for i in range(4)]
    execs = []
    for j in jobs:
        b.edge(user, j, "run", ts=1.0)
        for r in range(3):
            e = b.vertex("Execution", model="A", ts=2.0)
            execs.append(e)
            b.edge(j, e, "hasExecutions")
    return b.build(), user, jobs, execs


@pytest.mark.parametrize("kind", [EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK])
def test_traversal_racing_live_ingest_is_snapshot_bounded(kind):
    graph, user, jobs, execs = build_base()
    plan = GTravel.v(user).e("run").e("hasExecutions").compile()
    pre = ReferenceEngine(graph).run(plan).vertices

    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=kind))
    sim = cluster.runtime.sim

    # post-state: extra jobs and executions ingested while the traversal runs
    new_jobs = [10_000 + i for i in range(3)]
    new_execs = [20_000 + i for i in range(3)]

    def ingest(i):
        cluster.ingest_vertex(new_jobs[i], "Job", {"jobid": 900 + i, "ts": 1.0})
        cluster.ingest_edge(user, new_jobs[i], "run", {"ts": 1.0})
        cluster.ingest_vertex(new_execs[i], "Execution", {"model": "A", "ts": 2.0})
        cluster.ingest_edge(new_jobs[i], new_execs[i], "hasExecutions", {})

    travel_id, event = cluster.submit(plan)
    # spread the ingests across the traversal's execution window
    for i, delay in enumerate((0.0005, 0.002, 0.008)):
        sim.schedule(delay, lambda i=i: ingest(i))
    cluster.runtime.run_until_complete(event)
    result = event.value.result.vertices

    # post-state oracle: rebuild the full graph including the ingested parts
    post_graph, *_ = build_base()
    for i in range(3):
        post_graph.add_vertex(new_jobs[i], "Job", {"jobid": 900 + i, "ts": 1.0})
        post_graph.add_edge(user, new_jobs[i], "run", {"ts": 1.0})
        post_graph.add_vertex(new_execs[i], "Execution", {"model": "A", "ts": 2.0})
        post_graph.add_edge(new_jobs[i], new_execs[i], "hasExecutions", {})
    post = ReferenceEngine(post_graph).run(plan).vertices

    assert pre <= result, "additive updates must never hide pre-existing results"
    assert result <= post, "nothing outside the post-state may appear"


def test_ingested_subgraph_fully_visible_to_later_traversal():
    graph, user, jobs, execs = build_base()
    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK))
    cluster.ingest_vertex(555, "Job", {"jobid": 555, "ts": 3.0})
    cluster.ingest_edge(user, 555, "run", {"ts": 3.0})
    cluster.ingest_vertex(556, "Execution", {"model": "B", "ts": 4.0})
    cluster.ingest_edge(555, 556, "hasExecutions", {})
    plan = GTravel.v(user).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert 556 in out.result.vertices
    assert set(execs) <= set(out.result.vertices)


@pytest.mark.parametrize("kind", [EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK])
def test_ingested_edges_reach_the_reverse_index(kind):
    """A cluster built with the cost planner materialises ``~label`` reverse
    adjacency; edges ingested afterwards must land there too, or ``back()``
    (evaluated over reverse edges) silently misses every ingested path."""
    graph = PropertyGraph()
    for vid in range(1, 9):
        graph.add_vertex(vid, "T", {})
    for src, dst in ((1, 2), (1, 3), (2, 4), (3, 5)):
        graph.add_edge(src, dst, "e", {})
    cluster = Cluster.build(
        graph, ClusterConfig(nservers=2, engine=options_for(kind, planner="cost"))
    )
    for src, dst in ((6, 7), (7, 8)):
        cluster.ingest_edge(src, dst, "e")
        graph.add_edge(src, dst, "e", {})
    query = GTravel.v(1, 6).as_("a").e("e").e("e").back("a")
    expected = ReferenceEngine(graph).run(query.compile())
    assert expected.vertices == {1, 6}
    assert cluster.traverse(query).result.same_vertices(expected)
