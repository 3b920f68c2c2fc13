"""Tests for the GraphStore layout (graph partition on the LSM store)."""

import pytest

from repro.errors import GraphError, KeyNotFound
from repro.graph import GraphBuilder, hpc_metadata_schema
from repro.storage import GraphStore, LSMConfig


@pytest.fixture()
def sample():
    b = GraphBuilder(schema=hpc_metadata_schema())
    u = b.vertex("User", name="sam", uid=7)
    j = b.vertex("Job", jobid=1, ts=10.0)
    e1 = b.vertex("Execution", model="A", ts=11.0)
    f1 = b.vertex("File", name="/d/x.txt", kind="text")
    f2 = b.vertex("File", name="/d/y.bin", kind="binary")
    b.edge(u, j, "run", ts=10.0)
    b.edge(j, e1, "hasExecutions", ts=11.0)
    b.edge(e1, f1, "read", ts=11.5)
    b.edge(e1, f2, "read", ts=11.6)
    b.edge(e1, f2, "write", ts=11.7)
    graph = b.build()
    return graph, (u, j, e1, f1, f2)


def loaded_store(graph, vids):
    store = GraphStore(LSMConfig())
    store.load_partition(graph, vids)
    return store


def test_load_partition_counts(sample):
    graph, vids = sample
    store = loaded_store(graph, vids)
    assert store.vertex_count() == 5
    assert sorted(store.local_vertices()) == sorted(vids)


def test_vertex_props_include_type(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    props, cost = store.vertex_props(u)
    assert props["name"] == "sam"
    assert props["uid"] == 7
    assert props["type"] == "User"
    assert cost.seeks >= 1  # attribute scan hits the SSTable


def test_edges_by_label(sample):
    graph, (u, j, e1, f1, f2) = sample
    store = loaded_store(graph, [e1])
    reads, _ = store.edges(e1, "read")
    assert sorted(dst for dst, _ in reads) == sorted([f1, f2])
    writes, _ = store.edges(e1, "write")
    assert [dst for dst, _ in writes] == [f2]
    assert store.edges(e1, "nonexistent")[0] == []


def test_edge_props_roundtrip(sample):
    graph, (u, j, *_rest) = sample
    store = loaded_store(graph, [u])
    edges, _ = store.edges(u, "run")
    assert edges == [(j, {"ts": 10.0})]


def test_all_edges_grouped(sample):
    graph, (_u, _j, e1, f1, f2) = sample
    store = loaded_store(graph, [e1])
    all_edges, _ = store.all_edges(e1)
    labels = sorted(set(label for label, _, _ in all_edges))
    assert labels == ["hasExecutions", "read", "write"] or labels == ["read", "write"]
    # e1 has no hasExecutions out-edge; only read/read/write
    assert len(all_edges) == 3


def test_vertices_of_type_index(sample):
    graph, (u, j, e1, f1, f2) = sample
    store = loaded_store(graph, [u, j, e1, f1, f2])
    assert sorted(store.local_vertices_of_type("File")) == sorted([f1, f2])
    assert store.local_vertices_of_type("Nothing") == []


def test_remote_vertex_raises(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    assert not store.has_vertex(999)
    with pytest.raises(KeyNotFound):
        store.vertex_props(999)
    with pytest.raises(KeyNotFound):
        store.edges(999, "run")


def test_namespace_of(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    assert store.namespace_of(u) == "User"
    assert store.namespace_of(999) is None


def test_live_insert_vertex_and_edge(sample):
    graph, (u, j, *_rest) = sample
    store = loaded_store(graph, [u])
    store.insert_vertex(100, "Job", {"jobid": 2})
    props, _ = store.vertex_props(100)
    assert props["jobid"] == 2 and props["type"] == "Job"
    store.insert_edge(u, 100, "run", {"ts": 20.0})
    edges, _ = store.edges(u, "run")
    assert (100, {"ts": 20.0}) in edges
    assert (j, {"ts": 10.0}) in edges


def test_reinsert_under_the_same_type_updates_without_reindexing(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    store.insert_vertex(100, "Job", {"jobid": 2})
    store.insert_vertex(100, "Job", {"jobid": 3})
    store.insert_vertex(u, "User", {"uid": 8})
    assert store.local_vertices_of_type("Job") == [100]
    assert store.local_vertices_of_type("User") == [u]
    assert sorted(store.local_vertices()) == sorted([u, 100])
    assert store.vertex_props(100)[0]["jobid"] == 3
    props, _ = store.vertex_props(u)
    assert props["uid"] == 8 and props["name"] == "sam"
    store.delete_vertex(100)
    assert store.local_vertices_of_type("Job") == []


def test_reinsert_under_another_type_is_refused(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    before = store.kv.scan_prefix(b"")[0]
    with pytest.raises(GraphError):
        store.insert_vertex(u, "Job", {"jobid": 2})
    assert store.namespace_of(u) == "User"
    assert store.local_vertices_of_type("Job") == []
    assert store.kv.scan_prefix(b"")[0] == before


def test_live_insert_edge_sequencing(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    for i in range(3):
        store.insert_edge(u, 200 + i, "run", {"n": i})
    edges, _ = store.edges(u, "run")
    assert len(edges) == 4  # 1 loaded + 3 live


def test_set_vertex_prop_overwrites(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    store.set_vertex_prop(u, "name", "sammy")
    props, _ = store.vertex_props(u)
    assert props["name"] == "sammy"


def test_delete_vertex_removes_everything(sample):
    graph, (u, *_rest) = sample
    store = loaded_store(graph, [u])
    store.delete_vertex(u)
    assert not store.has_vertex(u)
    assert store.local_vertices_of_type("User") == []
    with pytest.raises(KeyNotFound):
        store.vertex_props(u)


def test_vertex_without_props_still_discoverable():
    b = GraphBuilder()
    v = b.vertex("Bare")
    graph = b.build()
    store = loaded_store(graph, [v])
    props, _ = store.vertex_props(v)
    assert props == {"type": "Bare"}


def test_cold_start_clears_block_cache(sample):
    graph, vids = sample
    store = GraphStore(LSMConfig(block_cache_blocks=64))
    store.load_partition(graph, vids)
    _, cold1 = store.vertex_props(vids[0])
    _, warm = store.vertex_props(vids[0])
    assert warm.blocks == 0
    store.cold_start()
    _, cold2 = store.vertex_props(vids[0])
    assert cold2.blocks >= 1


def test_empty_partition_is_fine(sample):
    graph, _ = sample
    store = GraphStore(LSMConfig())
    assert store.load_partition(graph, []) == 0
    assert store.vertex_count() == 0
