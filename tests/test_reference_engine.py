"""Tests for the single-node reference evaluator (the correctness oracle)."""

import pytest

from repro.engine import ReferenceEngine
from repro.graph import GraphBuilder, PropertyGraph
from repro.lang import EQ, IN, RANGE, GTravel


@pytest.fixture()
def diamond():
    """a -> {b, c} -> d, with properties for filtering."""
    g = PropertyGraph()
    g.add_vertex(0, "A", {"name": "a"})
    g.add_vertex(1, "B", {"name": "b", "keep": 1})
    g.add_vertex(2, "B", {"name": "c", "keep": 0})
    g.add_vertex(3, "C", {"name": "d"})
    g.add_edge(0, 1, "to", {"w": 1})
    g.add_edge(0, 2, "to", {"w": 9})
    g.add_edge(1, 3, "to", {"w": 1})
    g.add_edge(2, 3, "to", {"w": 1})
    return g


def run(graph, query):
    return ReferenceEngine(graph).run(query.compile())


def test_simple_one_step(diamond):
    res = run(diamond, GTravel.v(0).e("to"))
    assert res.vertices == {1, 2}


def test_two_step_reaches_sink(diamond):
    res = run(diamond, GTravel.v(0).e("to").e("to"))
    assert res.vertices == {3}


def test_edge_filter_prunes_path(diamond):
    res = run(diamond, GTravel.v(0).e("to").ea("w", EQ, 1))
    assert res.vertices == {1}


def test_vertex_filter_after_step(diamond):
    res = run(diamond, GTravel.v(0).e("to").va("keep", EQ, 1))
    assert res.vertices == {1}


def test_source_filter(diamond):
    res = run(diamond, GTravel.v(0, 1).va("name", EQ, "b").e("to"))
    assert res.vertices == {3}


def test_all_vertices_source_with_type_filter(diamond):
    res = run(diamond, GTravel.v().va("type", EQ, "B"))
    assert res.vertices == {1, 2}


def test_missing_source_ids_ignored(diamond):
    res = run(diamond, GTravel.v(0, 999).e("to"))
    assert res.vertices == {1, 2}


def test_zero_step_returns_filtered_sources(diamond):
    res = run(diamond, GTravel.v(1, 2).va("keep", EQ, 0))
    assert res.vertices == {2}
    assert res.at_level(0) == {2}


def test_empty_result_when_filter_excludes_all(diamond):
    res = run(diamond, GTravel.v(0).e("to").ea("w", EQ, 42))
    assert res.vertices == frozenset()


def test_rtn_intermediate_requires_completed_path(diamond):
    # Return level-1 vertices whose onward edge has w == 1: both b and c do.
    res = run(diamond, GTravel.v(0).e("to").rtn().e("to").ea("w", EQ, 1))
    assert res.at_level(1) == {1, 2}


def test_rtn_intermediate_prunes_dead_ends():
    g = PropertyGraph()
    g.add_vertex(0, "A")
    g.add_vertex(1, "B")  # has onward edge
    g.add_vertex(2, "B")  # dead end
    g.add_vertex(3, "C")
    g.add_edge(0, 1, "to")
    g.add_edge(0, 2, "to")
    g.add_edge(1, 3, "to")
    res = run(g, GTravel.v(0).e("to").rtn().e("to"))
    assert res.at_level(1) == {1}
    assert 2 not in res.vertices


def test_rtn_source_level(diamond):
    res = run(diamond, GTravel.v(0, 1).rtn().e("to").e("to"))
    # both 0 and 1 have 2-step paths? 1 -> 3 -> (3 has no out-edges)
    assert res.at_level(0) == {0}


def test_multiple_rtn_levels(diamond):
    res = run(diamond, GTravel.v(0).rtn().e("to").rtn().e("to"))
    assert res.at_level(0) == {0}
    assert res.at_level(1) == {1, 2}
    assert res.at_level(2) == frozenset()  # final not marked -> not returned


def test_rtn_final_equals_default(diamond):
    with_rtn = run(diamond, GTravel.v(0).e("to").rtn())
    without = run(diamond, GTravel.v(0).e("to"))
    assert with_rtn.same_vertices(without)


def test_revisit_across_steps_allowed():
    """A cycle: the same vertex may appear at different levels (§II-C)."""
    g = PropertyGraph()
    g.add_vertex(0, "A")
    g.add_vertex(1, "A")
    g.add_edge(0, 1, "to")
    g.add_edge(1, 0, "to")
    res = run(g, GTravel.v(0).e("to").e("to"))
    assert res.vertices == {0}
    res4 = run(g, GTravel.v(0).e("to").e("to").e("to").e("to"))
    assert res4.vertices == {0}


def test_within_step_dedup():
    """Parallel edges produce the vertex once per level."""
    g = PropertyGraph()
    g.add_vertex(0, "A")
    g.add_vertex(1, "A")
    g.add_edge(0, 1, "to")
    g.add_edge(0, 1, "to")
    res = run(g, GTravel.v(0).e("to"))
    assert res.at_level(1) == {1}


def test_in_filter_on_vertices(diamond):
    res = run(diamond, GTravel.v(0).e("to").va("name", IN, ["b", "zzz"]))
    assert res.vertices == {1}


def test_range_filter_on_edges(diamond):
    res = run(diamond, GTravel.v(0).e("to").ea("w", RANGE, (0, 5)))
    assert res.vertices == {1}


def test_label_isolation():
    g = PropertyGraph()
    g.add_vertex(0, "A")
    g.add_vertex(1, "A")
    g.add_vertex(2, "A")
    g.add_edge(0, 1, "x")
    g.add_edge(0, 2, "y")
    assert run(g, GTravel.v(0).e("x")).vertices == {1}
    assert run(g, GTravel.v(0).e("y")).vertices == {2}
    assert run(g, GTravel.v(0).e("z")).vertices == set()

