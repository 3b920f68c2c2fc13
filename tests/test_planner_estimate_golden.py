"""The linear cost estimator, pinned float for float.

The cost planner's reversal choice compares two ``estimate_plan`` totals,
so a refactor of the estimator must not move a single estimate by a float.
``GOLDEN_ESTIMATES`` pins, under ``rules`` and ``cost``, every
:class:`~repro.lang.optimizer.PlannedQuery` of a fixed query set: the
rewrite names, the executed chain, the level map and every
:class:`~repro.lang.optimizer.LevelEstimate` field as the ``repr`` of the
raw float (not the rounded payload). The query set is the Darshan audit
scan, ``suspicious_user_query``, an RMAT k-step chain and the chains of
``tests/test_planner_equivalence.py``. The digest must not depend on the
interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
import random

from repro.cluster import Cluster, ClusterConfig
from repro.engine import graphtrek_options
from repro.obs.exporter import canonical_json
from repro.workloads import (
    MetadataGraphConfig,
    audit_scan_query,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
    suspicious_user_query,
)
from tests.test_planner_equivalence import (
    SEEDS,
    bipartite_scan_case,
    seeded_graph,
    seeded_plan,
)

#: sha256 of :func:`estimate_document`, recorded before the composite
#: estimator and the linear one became one walk
GOLDEN_ESTIMATES = "b44474cdfade61296e67a18b33054e345bb60ab250105c7b366bd155ef09ad77"


def _cells():
    """(name, graph, [(query name, plan)]) for every pinned query."""
    md = generate_metadata_graph(MetadataGraphConfig(users=8, files=256, seed=3))
    yield "darshan", md.graph, [
        ("audit_scan", audit_scan_query().compile()),
        ("suspicious_user", suspicious_user_query(md.user_ids[0]).compile()),
    ]
    config = paper_rmat1(scale=8, seed=1)
    yield "rmat", rmat_graph(config), [
        ("kstep6", rmat_kstep_query(pick_start_vertex(config), 6).compile()),
    ]
    graph, query = bipartite_scan_case()
    yield "bipartite", graph, [("scan", query.compile())]
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = seeded_graph(rng)
        yield f"seed{seed}", graph, [("chain", seeded_plan(rng, graph))]
    rng = random.Random(41)
    graph = seeded_graph(rng)
    yield "seed41", graph, [("chain", seeded_plan(rng, graph))]


def _cost(cost):
    if cost is None:
        return None
    return {
        "total": repr(cost.total),
        "levels": [
            [lv.level, repr(lv.rows_in), repr(lv.rows_out), repr(lv.cost)]
            for lv in cost.levels
        ],
    }


def estimate_document() -> dict:
    document = {}
    for cell, graph, queries in _cells():
        for mode in ("rules", "cost"):
            cluster = Cluster.build(
                graph,
                ClusterConfig(nservers=3, engine=graphtrek_options(planner=mode)),
            )
            for name, plan in queries:
                planned = cluster.coordinator.planner.plan(plan)
                document[f"{cell}/{name}/{mode}"] = {
                    "rewrites": [r.name for r in planned.rewrites],
                    "executed": planned.executed.describe(),
                    "level_map": sorted(planned.level_map.items()),
                    "cost_original": _cost(planned.cost_original),
                    "cost_executed": _cost(planned.cost_executed),
                }
    return document


def test_linear_estimates_match_golden_digest():
    document = estimate_document()
    assert any("reverse_chain" in d["rewrites"] for d in document.values()), (
        "no pinned query is reversed; the pin would not cover the choice"
    )
    digest = hashlib.sha256(canonical_json(document).encode()).hexdigest()
    assert digest == GOLDEN_ESTIMATES, (
        f"linear plan estimates drifted: got {digest}. The cost planner's "
        "reversal choice rests on these floats; the digest may only be "
        "re-recorded by a PR that states why the cost model changed."
    )
