"""Id-allocation regression tests: concurrent submissions must never share
travel or execution ids."""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.graph.builder import PropertyGraph
from repro.lang.gtravel import GTravel


def fan_graph(width: int = 30) -> PropertyGraph:
    g = PropertyGraph()
    g.add_vertex(0, "root", {})
    for i in range(1, width + 1):
        g.add_vertex(i, "leaf", {})
        g.add_edge(0, i, "link", {})
        g.add_vertex(width + i, "leaf2", {})
        g.add_edge(i, width + i, "link", {})
    return g


def test_many_inflight_traversals_get_unique_ids():
    """With many traversals in flight at once, every travel id and every
    execution id in the flight recorder is unique."""
    cluster = Cluster.build(
        fan_graph(),
        ClusterConfig(
            nservers=3, engine=EngineKind.GRAPHTREK, trace_enabled=True
        ),
    )
    submissions = [
        cluster.submit(GTravel.v(0).e("link").e("link")) for _ in range(16)
    ]
    for _, event in submissions:
        cluster.runtime.run_until_complete(event)
    travel_ids = [tid for tid, _ in submissions]
    exec_ids = [
        ev.exec_id
        for ev in cluster.board.obs.trace.events()
        if ev.kind == "exec.created"
    ]
    assert len(travel_ids) == len(set(travel_ids)) == 16
    assert exec_ids, "no executions traced"
    assert len(exec_ids) == len(set(exec_ids))


def test_exec_id_spaces_disjoint_across_allocators():
    """Per-server exec allocators start in disjoint ``(server+1) << 32``
    blocks, and the coordinator's block is disjoint from all of them — so
    allocators on different servers cannot collide even in principle."""
    cluster = Cluster.build(
        fan_graph(), ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK)
    )
    blocks = [next(s.engine._next_exec) >> 32 for s in cluster.servers]
    blocks.append(next(cluster.coordinator._next_exec) >> 32)
    assert blocks == [1, 2, 3, 4]
