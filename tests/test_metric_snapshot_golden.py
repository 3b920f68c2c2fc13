"""The refactoring oracle as a test: pinned metric-snapshot digests.

The simulator is deterministic, so a change that only removes or moves
Python code cannot change a single counter, gauge or histogram bucket of a
seeded run. Each cell below pins ``sha256(canonical_json(metrics_snapshot()))``
for one engine on one seeded graph; a refactor passes unchanged, a change to
virtual behaviour (event order, disk cost, message count) does not.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.obs.export import canonical_json
from repro.workloads import (
    MetadataGraphConfig,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
    suspicious_user_query,
)

NSERVERS = 4
ENGINES = (EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK)

#: (workload, engine) -> sha256 of the canonical metrics snapshot
GOLDEN = {
    ("rmat-seed1", "Sync-GT"): "3bf83bf204a65533b1df1f9626045b1a55102f63a50ec896c2c1844682a9f4d0",
    ("rmat-seed1", "Async-GT"): "a4d38688f49ab3823dbdc523a8ca52c9dcce06fd67001dc9367d2d3346c74fc0",
    ("rmat-seed1", "GraphTrek"): "81c7b75ec71367acf067300475fdb9e3cf9ecaa3b8a6aa05d836cb977747cff1",
    ("rmat-seed2", "Sync-GT"): "fadbc0af34c682d0644418c349647304d0a07eb1a97d0210cf823311106b8a03",
    ("rmat-seed2", "Async-GT"): "0b779faf569cb9784d86bc749b8adf5588a47accdb9fed83acf8b7f181f5cad9",
    ("rmat-seed2", "GraphTrek"): "c22e7a29bed25ca8e7869b83c9c9da9ec5f66f3ffd4e41236624782ff1d6bb95",
    ("audit-seed3", "Sync-GT"): "a53028282d7c457c0eb51201309ee5dc7e72af2e44e609ce648dd0ae3ade36cb",
    ("audit-seed3", "Async-GT"): "3e41500ec09ddaecb01e9a9aed8601dea0d445e5724572d59b01744185fc0d86",
    ("audit-seed3", "GraphTrek"): "5f4e60742e8f64e0f16603bc3d86c74c079c32ac7452bce99852cfe688277cd6",
}


def _rmat_cell(seed: int):
    config = paper_rmat1(scale=8, seed=seed)
    return rmat_graph(config), rmat_kstep_query(pick_start_vertex(config), 6)


def _audit_cell():
    md = generate_metadata_graph(MetadataGraphConfig(users=8, files=256, seed=3))
    return md.graph, suspicious_user_query(md.user_ids[0])


WORKLOADS = {
    "rmat-seed1": lambda: _rmat_cell(1),
    "rmat-seed2": lambda: _rmat_cell(2),
    "audit-seed3": _audit_cell,
}


def snapshot_digest(workload: str, engine: EngineKind) -> str:
    graph, query = WORKLOADS[workload]()
    cluster = Cluster.build(graph, ClusterConfig(nservers=NSERVERS, engine=engine))
    outcome = cluster.traverse(query.compile(), cold=True)
    assert outcome.result.vertices, "golden cell returned nothing; it pins no work"
    payload = canonical_json(cluster.metrics_snapshot())
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_metrics_snapshot_matches_golden_digest(workload, engine):
    digest = snapshot_digest(workload, engine)
    assert digest == GOLDEN[workload, engine.value], (
        f"metrics snapshot of {engine.value} on {workload} drifted: got {digest}. "
        "A refactor must leave every seeded counter, gauge and histogram "
        "byte-identical; a digest may only be re-recorded by a PR that states "
        "why virtual behaviour changed."
    )
