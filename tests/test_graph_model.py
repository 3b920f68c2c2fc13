"""Tests for the property-graph data model, schema, and statistics."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    GraphBuilder,
    PropertyGraph,
    Schema,
    Vertex,
    fit_powerlaw_alpha,
    gini,
    hpc_metadata_schema,
    imbalance_factor,
    in_degree_stats,
    out_degree_stats,
    props_size_bytes,
    validate_props,
)


# -- properties -------------------------------------------------------------

def test_validate_props_accepts_scalars():
    props = validate_props({"a": 1, "b": "s", "c": 2.0, "d": b"x", "e": True, "f": None})
    assert props["a"] == 1


def test_validate_props_rejects_container():
    with pytest.raises(GraphError):
        validate_props({"a": [1]})


def test_validate_props_rejects_empty_key():
    with pytest.raises(GraphError):
        validate_props({"": 1})


def test_props_size_tracks_payload():
    small = props_size_bytes({"a": "x"})
    large = props_size_bytes({"a": "x" * 100})
    assert large - small == 99


# -- vertex/edge ---------------------------------------------------------------

def test_vertex_effective_props_adds_type():
    v = Vertex(1, "User", {"name": "n"})
    assert v.effective_props() == {"name": "n", "type": "User"}


def test_vertex_explicit_type_prop_wins():
    v = Vertex(1, "User", {"type": "Override"})
    assert v.effective_props()["type"] == "Override"


# -- graph construction ----------------------------------------------------------

def test_builder_builds_graph():
    b = GraphBuilder()
    v1 = b.vertex("A", x=1)
    v2 = b.vertex("B")
    b.edge(v1, v2, "to", w=5)
    g = b.build()
    assert g.num_vertices == 2 and g.num_edges == 1
    assert g.out_edges(v1, "to") == [("to", v2, {"w": 5})]


def test_builder_reusable_after_build():
    b = GraphBuilder()
    b.vertex("A")
    g1 = b.build()
    v = b.vertex("A")
    g2 = b.build()
    assert g1.num_vertices == 1 and g2.num_vertices == 1
    assert v in g2 and v not in g1 or v in g1  # ids keep increasing


def test_duplicate_vertex_id_rejected():
    g = PropertyGraph()
    g.add_vertex(1, "A")
    with pytest.raises(GraphError):
        g.add_vertex(1, "A")


def test_edge_requires_endpoints():
    g = PropertyGraph()
    g.add_vertex(1, "A")
    with pytest.raises(GraphError):
        g.add_edge(1, 2, "to")
    with pytest.raises(GraphError):
        g.add_edge(2, 1, "to")


def test_multigraph_allows_parallel_edges():
    g = PropertyGraph()
    g.add_vertex(1, "A")
    g.add_vertex(2, "A")
    g.add_edge(1, 2, "to", {"n": 1})
    g.add_edge(1, 2, "to", {"n": 2})
    assert g.out_degree(1, "to") == 2


def test_out_edges_all_labels():
    g = PropertyGraph()
    for i in (1, 2, 3):
        g.add_vertex(i, "A")
    g.add_edge(1, 2, "x")
    g.add_edge(1, 3, "y")
    assert len(g.out_edges(1)) == 2
    assert g.out_degree(1) == 2
    assert g.edge_labels() == {"x", "y"}


def test_in_degrees():
    g = PropertyGraph()
    for i in (1, 2, 3):
        g.add_vertex(i, "A")
    g.add_edge(1, 3, "x")
    g.add_edge(2, 3, "x")
    assert g.in_degrees() == {3: 2}


def test_vertices_of_type_and_counts():
    g = PropertyGraph()
    g.add_vertex(1, "A")
    g.add_vertex(2, "B")
    g.add_vertex(3, "A")
    assert sorted(g.vertices_of_type("A")) == [1, 3]
    assert g.type_counts() == {"A": 2, "B": 1}


def test_unknown_vertex_access_raises():
    g = PropertyGraph()
    with pytest.raises(GraphError):
        g.vertex(9)
    with pytest.raises(GraphError):
        g.out_edges(9)


# -- schema -------------------------------------------------------------------------

def test_schema_enforces_vertex_types():
    schema = Schema().add_vertex_type("A")
    g = PropertyGraph(schema)
    g.add_vertex(1, "A")
    with pytest.raises(GraphError):
        g.add_vertex(2, "B")


def test_schema_enforces_edge_rules():
    schema = Schema().add_vertex_type("A").add_vertex_type("B")
    schema.add_edge_rule("to", "A", "B")
    g = PropertyGraph(schema)
    g.add_vertex(1, "A")
    g.add_vertex(2, "B")
    g.add_edge(1, 2, "to")
    with pytest.raises(GraphError):
        g.add_edge(2, 1, "to")  # wrong direction
    with pytest.raises(GraphError):
        g.add_edge(1, 2, "unknown")


def test_edge_rule_requires_known_types():
    schema = Schema().add_vertex_type("A")
    with pytest.raises(GraphError):
        schema.add_edge_rule("to", "A", "Missing")


def test_hpc_schema_covers_paper_labels():
    schema = hpc_metadata_schema()
    for label in ("run", "hasExecutions", "exe", "read", "write", "readBy"):
        assert label in schema.edge_rules
    schema.check_edge("read", "Execution", "File")
    with pytest.raises(GraphError):
        schema.check_edge("read", "File", "Execution")


# -- statistics ----------------------------------------------------------------------

def star_graph(n: int) -> PropertyGraph:
    g = PropertyGraph()
    g.add_vertex(0, "A")
    for i in range(1, n + 1):
        g.add_vertex(i, "A")
        g.add_edge(0, i, "to")
    return g


def test_degree_stats_on_star():
    g = star_graph(10)
    out = out_degree_stats(g)
    assert out.maximum == 10
    assert out.mean == pytest.approx(10 / 11)
    inn = in_degree_stats(g)
    assert inn.maximum == 1


def test_gini_extremes():
    assert gini(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-9)
    assert gini(np.array([0.0, 0.0, 100.0])) > 0.6
    assert gini(np.array([])) == 0.0


def test_imbalance_factor():
    assert imbalance_factor(np.array([10, 10, 10])) == pytest.approx(1.0)
    assert imbalance_factor(np.array([1, 1, 10])) == pytest.approx(2.5)
    assert imbalance_factor(np.array([], dtype=np.int64)) == 1.0


def test_powerlaw_alpha_recovers_exponent():
    rng = np.random.default_rng(0)
    alpha = 2.5
    u = rng.random(20_000)
    degrees = np.floor((1 - u) ** (-1 / (alpha - 1))).astype(np.int64)
    # fit on the tail, where the discretization bias is small
    fitted = fit_powerlaw_alpha(degrees, dmin=5)
    assert 2.2 < fitted < 2.8


def test_powerlaw_alpha_insufficient_data():
    assert np.isnan(fit_powerlaw_alpha(np.array([], dtype=np.int64)))


