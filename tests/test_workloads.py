"""Tests for the RMAT and metadata-graph workload generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import hpc_metadata_schema, in_degree_stats, out_degree_stats
from repro.graph.property import props_size_bytes
from repro.workloads import (
    PAPER_TABLE2,
    YEAR,
    MetadataGraphConfig,
    RMATConfig,
    data_audit_query,
    generate_metadata_graph,
    paper_rmat1,
    paper_scaled_config,
    pick_start_vertex,
    provenance_query,
    rmat_kstep_query,
    suspicious_user_query,
)
from repro.workloads.rmat import rmat_edge_array, rmat_graph


# -- RMAT ------------------------------------------------------------------------

def test_rmat_edge_counts():
    cfg = RMATConfig(scale=8, edge_factor=4, seed=1)
    edges = rmat_edge_array(cfg)
    assert edges.shape == (256 * 4, 2)
    assert edges.min() >= 0 and edges.max() < 256


def test_rmat_deterministic():
    cfg = paper_rmat1(scale=7)
    assert np.array_equal(rmat_edge_array(cfg), rmat_edge_array(cfg))


def test_rmat_seed_changes_graph():
    a = rmat_edge_array(paper_rmat1(scale=7, seed=1))
    b = rmat_edge_array(paper_rmat1(scale=7, seed=2))
    assert not np.array_equal(a, b)


def test_rmat_parameters_validated():
    with pytest.raises(GraphError):
        RMATConfig(a=0.5, b=0.5, c=0.5, d=0.5)
    with pytest.raises(GraphError):
        RMATConfig(scale=0)
    with pytest.raises(GraphError):
        RMATConfig(edge_factor=0)


def test_rmat_paper_params_produce_skew():
    """a=0.45 concentrates edges on low-id vertices (power-law skew)."""
    cfg = paper_rmat1(scale=10, edge_factor=8)
    graph = rmat_graph(cfg)
    out = out_degree_stats(graph)
    assert out.maximum > 4 * out.mean  # heavy tail
    assert out.gini > 0.3
    inn = in_degree_stats(graph)
    assert inn.maximum > 4 * inn.mean


def test_rmat_uniform_params_produce_little_skew():
    cfg = RMATConfig(scale=10, edge_factor=8, a=0.25, b=0.25, c=0.25, d=0.25)
    out = out_degree_stats(rmat_graph(cfg))
    assert out.gini < 0.3


def test_rmat_graph_attribute_sizes():
    cfg = paper_rmat1(scale=6)
    graph = rmat_graph(cfg)
    for vid in list(graph.vertex_ids())[:10]:
        size = props_size_bytes(graph.vertex(vid).props)
        assert 100 <= size <= 160  # ~128 bytes, as in the paper


def test_rmat_graph_single_label():
    graph = rmat_graph(paper_rmat1(scale=6))
    assert graph.edge_labels() == {"link"}


def test_pick_start_vertex_has_degree():
    cfg = paper_rmat1(scale=8)
    src = pick_start_vertex(cfg, min_degree=2)
    graph = rmat_graph(cfg)
    assert graph.out_degree(src) >= 2


def test_pick_start_vertex_deterministic():
    cfg = paper_rmat1(scale=8)
    assert pick_start_vertex(cfg) == pick_start_vertex(cfg)


# -- metadata graph ------------------------------------------------------------------

@pytest.fixture(scope="module")
def md():
    return generate_metadata_graph(MetadataGraphConfig(users=16, files=512, seed=3))


def test_metadata_counts_consistent(md):
    stats = md.stats
    assert stats.users == 16 and stats.files == 512
    assert stats.jobs == len(md.job_ids)
    assert stats.executions == len(md.execution_ids)
    assert md.graph.num_edges == stats.edges
    assert md.graph.num_vertices == stats.users + stats.jobs + stats.executions + stats.files


def test_metadata_schema_valid(md):
    """Generation went through the schema-checked builder, so every edge
    already satisfies hpc_metadata_schema; spot-check the labels exist."""
    labels = md.graph.edge_labels()
    for label in ("run", "hasExecutions", "exe", "read", "write", "readBy"):
        assert label in labels, label


def test_metadata_read_edges_have_reverse(md):
    assert md.stats.by_label["read"] == md.stats.by_label["readBy"]
    assert md.stats.by_label["write"] == md.stats.by_label["writtenBy"]


def test_metadata_timestamps_in_year(md):
    for jid in md.job_ids[:50]:
        ts = md.graph.vertex(jid).props["ts"]
        assert 0 <= ts < YEAR


def test_metadata_power_law_file_popularity(md):
    inn = in_degree_stats(md.graph)
    assert inn.maximum > 10 * max(1.0, inn.p50)  # heavy-tailed popularity


def test_metadata_entity_chain(md):
    g = md.graph
    uid = md.user_ids[0]
    jobs = [dst for _, dst, _ in g.out_edges(uid, "run")]
    assert jobs, "power user 0 runs jobs"
    execs = [dst for _, dst, _ in g.out_edges(jobs[0], "hasExecutions")]
    assert execs
    assert g.vertex(execs[0]).vtype == "Execution"
    exes = [dst for _, dst, _ in g.out_edges(execs[0], "exe")]
    assert len(exes) == 1 and g.vertex(exes[0]).vtype == "File"


def test_metadata_deterministic():
    a = generate_metadata_graph(MetadataGraphConfig(users=8, files=128, seed=9))
    b = generate_metadata_graph(MetadataGraphConfig(users=8, files=128, seed=9))
    assert a.stats.row() == b.stats.row()
    assert a.graph.num_edges == b.graph.num_edges


#: seed -> sha256 of the generated graph's vertex + edge lists, recorded with
#: the generator that rebuilt the Zipf vector on every draw (before ISSUE 21
#: memoised it): the memo must not move a single ``rng.choice`` draw
METADATA_GRAPH_DIGESTS = {
    1: "7ad99196441de2954194e20e22a5deeb9bd21628aa019ef048ef3316cd3c1f3d",
    2: "ac0e7b160d38c49a67cc86a5551734129d26c0b2572b88cfbe5e6ac639fc331d",
}


@pytest.mark.parametrize("seed", sorted(METADATA_GRAPH_DIGESTS))
def test_metadata_graph_unchanged_by_zipf_memo(seed):
    import hashlib

    from repro.obs.metrics import canonical_json

    graph = generate_metadata_graph(
        MetadataGraphConfig(users=16, files=512, seed=seed)
    ).graph
    vids = sorted(graph.vertex_ids())
    vertices = [(v, graph.vertex(v).vtype, graph.vertex(v).props) for v in vids]
    edges = [(v, label, dst, props) for v in vids for label, dst, props in graph.out_edges(v)]
    digest = hashlib.sha256(canonical_json([vertices, edges]).encode()).hexdigest()
    assert digest == METADATA_GRAPH_DIGESTS[seed]


def test_zipf_choice_draws_match_the_unmemoised_vector():
    from repro.workloads.metadata_graph import _zipf_choice

    for n, alpha in ((512, 1.1), (37, 1.2), (512, 1.1)):  # repeat: memo hit
        probs = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
        probs /= probs.sum()
        want = np.random.default_rng(n).choice(n, size=64, p=probs)
        got = _zipf_choice(np.random.default_rng(n), n, 64, alpha)
        assert np.array_equal(got, want)


def test_paper_scaled_config_ratios():
    small = paper_scaled_config(0.5)
    big = paper_scaled_config(2.0)
    assert big.users > small.users
    assert big.files > small.files
    assert PAPER_TABLE2["jobs"] / PAPER_TABLE2["users"] > 100  # sanity on constants


def test_stats_ratios_normalized(md):
    ratios = md.stats.ratios()
    assert ratios["users"] == 1.0
    assert ratios["executions"] > ratios["jobs"] > 0


# -- canned queries -------------------------------------------------------------------

def test_audit_query_structure():
    plan = data_audit_query(5, 0.0, 100.0).compile()
    assert [s.label for s in plan.steps] == ["run", "hasExecutions", "read"]
    assert plan.return_levels == frozenset({3})


def test_provenance_query_structure():
    plan = provenance_query().compile()
    assert plan.source_ids is None
    assert plan.rtn_levels == frozenset({0})


def test_suspicious_user_query_is_paper_chain():
    plan = suspicious_user_query(9).compile()
    assert [s.label for s in plan.steps] == [
        "run", "hasExecutions", "write", "readBy", "write",
    ]
    assert plan.return_levels == frozenset({5})


def test_rmat_kstep_query_depth():
    plan = rmat_kstep_query(3, 8).compile()
    assert plan.num_steps == 8
    assert all(s.label == "link" for s in plan.steps)
