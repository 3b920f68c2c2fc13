"""The cluster build's load path: one walk of each partition loads the
stores (forward and ``~label`` reverse records) and feeds the planner
statistics.

The generative tests hold the one-walk loader and :class:`SummaryBuilder`
against models written the obvious way (the graph's own adjacency, and a
per-edge ``Counter`` tally); the mechanism tests check that the build reads
each vertex's adjacency once and that the statistics allocate nothing per
edge. ``GOLDEN_BUILD`` in ``test_metric_snapshot_golden.py`` pins the bytes.
"""

from __future__ import annotations

import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.engine.options import options_for
from repro.graph import GraphSummary, PropertyGraph
from repro.graph import stats as stats_module
from repro.graph.stats import PropertySketch, SummaryBuilder
from repro.storage import GraphStore, LSMConfig
from repro.storage.layout import EDGE_LAYOUTS, load_partitions
from repro.workloads import MetadataGraphConfig, generate_metadata_graph

#: derandomized, no wall-clock deadline: the same examples every run
LOAD_FIXED = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def graphs(draw):
    """A small typed multigraph with ids inserted out of order, parallel and
    self edges, optional properties, and a random partition of its ids."""
    n = draw(st.integers(1, 10))
    vids = draw(st.permutations(range(n)))
    graph = PropertyGraph()
    for vid in vids:
        props = draw(st.dictionaries(st.sampled_from("cd"), st.integers(0, 3), max_size=2))
        graph.add_vertex(vid, draw(st.sampled_from("AB")), props)
    edge = st.tuples(
        st.sampled_from(vids),
        st.sampled_from(vids),
        st.sampled_from("xy"),
        st.dictionaries(st.sampled_from("wz"), st.integers(0, 2) | st.text(max_size=2), max_size=2),
    )
    for src, dst, label, props in draw(st.lists(edge, max_size=30)):
        graph.add_edge(src, dst, label, props)
    nparts = draw(st.integers(1, 3))
    owner = {vid: draw(st.integers(0, nparts - 1)) for vid in vids}
    parts = [[vid for vid in graph.vertex_ids() if owner[vid] == p] for p in range(nparts)]
    return graph, parts


def _in_edges(graph: PropertyGraph, vid, label):
    """The reverse records of ``vid`` for ``label`` in sequence order:
    ascending source, a source's parallel edges in adjacency order."""
    return [
        (src, props)
        for src in sorted(graph.vertex_ids())
        for lbl, dst, props in graph.out_edges(src)
        if dst == vid and lbl == label
    ]


@pytest.mark.parametrize("layout", EDGE_LAYOUTS)
@given(case=graphs())
@LOAD_FIXED
def test_one_walk_load_matches_the_graph(layout, case):
    graph, parts = case
    stores = [GraphStore(LSMConfig(), edge_layout=layout) for _ in parts]
    builders = [SummaryBuilder(graph) for _ in parts]
    loaded = load_partitions(
        graph, stores, parts, reverse=True, observers=[b.add for b in builders]
    )
    assert loaded == [len(part) for part in parts]
    for store, part, builder in zip(stores, parts, builders):
        assert store.local_vertices() == part
        assert builder.build().to_json() == GraphSummary.from_graph(graph, part).to_json()
        assert store.metrics_snapshot()["edge_count"] == sum(
            graph.out_degree(vid) for vid in part
        )
        for vid in part:
            vertex = graph.vertex(vid)
            assert store.vertex_props(vid)[0] == vertex.effective_props()
            for label in "xy":
                want = [(dst, props) for _, dst, props in graph.out_edges(vid, label)]
                if layout == "columnar":  # a block stores its column by destination
                    want.sort(key=lambda pair: pair[0])
                assert store.edges(vid, label)[0] == want
                assert store.edges(vid, "~" + label)[0] == _in_edges(graph, vid, label)


def _summary_model(graph: PropertyGraph, vids) -> dict:
    """The planner statistics of ``vids`` counted edge by edge."""
    types: Counter = Counter()
    vertex_values: dict = {}
    labels: dict = {}
    for vid in sorted(vids):
        vertex = graph.vertex(vid)
        types[vertex.vtype] += 1
        for key, value in vertex.props.items():
            vertex_values.setdefault(vertex.vtype, {}).setdefault(key, Counter())[value] += 1
        for label, dst, props in graph.out_edges(vid):
            entry = labels.setdefault(
                label, {"n": 0, "src": Counter(), "dst": Counter(), "srcs": {}, "dsts": {}, "props": {}}
            )
            dtype = graph.vertex(dst).vtype
            entry["n"] += 1
            entry["src"][vertex.vtype] += 1
            entry["dst"][dtype] += 1
            entry["srcs"].setdefault(vertex.vtype, set()).add(vid)
            entry["dsts"].setdefault(dtype, set()).add(dst)
            for key, value in props.items():
                entry["props"].setdefault(key, Counter())[value] += 1
    return {
        "total_vertices": sum(types.values()),
        "type_counts": dict(sorted(types.items())),
        "vertex_sketches": {
            vtype: {
                key: PropertySketch.from_counter(counter, types[vtype]).payload()
                for key, counter in sorted(vertex_values.get(vtype, {}).items())
            }
            for vtype in sorted(types)
        },
        "labels": {
            label: {
                "label": label,
                "count": e["n"],
                "src_type_counts": dict(sorted(e["src"].items())),
                "dst_type_counts": dict(sorted(e["dst"].items())),
                "src_distinct_by_type": {t: len(s) for t, s in sorted(e["srcs"].items())},
                "dst_distinct_by_type": {t: len(s) for t, s in sorted(e["dsts"].items())},
                "sketches": {
                    key: PropertySketch.from_counter(counter, e["n"]).payload()
                    for key, counter in sorted(e["props"].items())
                },
            }
            for label, e in sorted(labels.items())
        },
    }


@given(case=graphs(), seed=st.integers(0, 3))
@LOAD_FIXED
def test_summary_builder_matches_the_per_edge_model_in_any_order(case, seed):
    graph, parts = case
    for part in parts:
        assert GraphSummary.from_graph(graph, part).payload() == _summary_model(graph, part)
        shuffled = list(part)
        random.Random(seed).shuffle(shuffled)
        builder = SummaryBuilder(graph)
        for vid in shuffled:
            builder.add(graph.vertex(vid), graph.adjacency(vid))
        assert builder.build().to_json() == GraphSummary.from_graph(graph, part).to_json()


def _audit_graph() -> PropertyGraph:
    return generate_metadata_graph(MetadataGraphConfig(users=8, files=256, seed=3)).graph


def test_cluster_build_reads_each_adjacency_once():
    """Load, reverse records and statistics all come from one walk: every
    vertex's adjacency is read exactly once, and no flattened edge list is
    built."""
    graph = _audit_graph()
    reads: Counter = Counter()
    adjacency = graph.adjacency

    def counted(vid):
        reads[vid] += 1
        return adjacency(vid)

    def flattened(*args, **kwargs):
        raise AssertionError("the build flattened an adjacency through out_edges")

    graph.adjacency = counted
    graph.out_edges = flattened
    Cluster.build(
        graph,
        ClusterConfig(nservers=4, engine=options_for(EngineKind.GRAPHTREK, planner="cost")),
    )
    assert reads == Counter({vid: 1 for vid in graph.vertex_ids()})


def test_summary_allocates_no_counter_per_edge(monkeypatch):
    """One Counter per column (property key per vertex type, destinations
    and property key per label) is built; none per edge or vertex."""
    graph = _audit_graph()
    created = []

    class CountingCounter(Counter):
        def __init__(self, *args, **kwargs):
            created.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(stats_module, "Counter", CountingCounter)
    summary = GraphSummary.from_graph(graph)
    columns = sum(len(s) for s in summary.vertex_sketches.values()) + sum(
        1 + len(stats.sketches) for stats in summary.labels.values()
    )
    assert len(created) == columns
    assert columns < 100 < graph.num_edges
