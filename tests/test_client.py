"""Tests for the client facade."""

from repro.cluster import Cluster, ClusterConfig, GraphTrekClient
from repro.engine import EngineKind, ReferenceEngine
from repro.lang import EQ, GTravel


def make_client(graph):
    cluster = Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK))
    return GraphTrekClient(cluster)


def test_client_query_returns_outcome(metadata_graph):
    graph, ids = metadata_graph
    client = make_client(graph)
    outcome = client.query(GTravel.v(ids["users"][0]).e("run"))
    expected = ReferenceEngine(graph).run(GTravel.v(ids["users"][0]).e("run").compile())
    assert outcome.result.same_vertices(expected)
    assert len(client.history) == 1
    assert client.history[0].travel_id > 0


def test_client_accepts_precompiled_plan(metadata_graph):
    graph, ids = metadata_graph
    client = make_client(graph)
    plan = GTravel.v(ids["users"][1]).e("run").compile()
    outcome = client.query(plan)
    assert outcome.plan is plan


def test_client_union_emulates_or(metadata_graph):
    """The paper's OR workaround: separate traversals, unioned results."""
    graph, ids = metadata_graph
    client = make_client(graph)
    q_a = GTravel.v(*ids["execs"]).va("model", EQ, "A")
    q_b = GTravel.v(*ids["execs"]).va("model", EQ, "B")
    combined = client.query_union(q_a, q_b)
    assert combined == tuple(sorted(ids["execs"]))
    assert len(client.history) == 2


def test_client_last_stats(metadata_graph):
    graph, ids = metadata_graph
    client = make_client(graph)
    assert client.last_stats() is None
    client.query(GTravel.v(ids["users"][0]).e("run"))
    assert client.last_stats().elapsed > 0


def test_client_cold_query_drops_caches_like_cluster_traverse(metadata_graph):
    graph, ids = metadata_graph
    query = GTravel.v(*ids["users"]).e("run").e("hasExecutions")
    client = make_client(graph)
    twin = make_client(graph).cluster
    for cluster in (client.cluster, twin):  # identical warm-up on both
        cluster.traverse(query, cold=True)
    cold = client.query(query, cold=True).stats.elapsed
    assert cold == twin.traverse(query, cold=True).stats.elapsed
    # the caches really were dropped: a warm rerun is faster
    assert client.query(query).stats.elapsed < cold
