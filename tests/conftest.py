"""Shared fixtures and helpers for the distributed-engine tests."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.faults.inject import CLEAN, FaultDecision
from repro.graph import GraphBuilder, PropertyGraph, hpc_metadata_schema

ALL_ENGINES = (EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK)


class DropWhen:
    """Surgical stand-in for a compiled FaultPlan in the runtime's one
    injection slot (``runtime.fault_injector = DropWhen(pred)``): drops
    exactly the deliveries ``pred(src, dst, msg)`` selects."""

    def __init__(self, pred):
        self.pred = pred

    def decide(self, src, dst, msg) -> FaultDecision:
        return FaultDecision(drop=True) if self.pred(src, dst, msg) else CLEAN


def build_cluster(graph: PropertyGraph, kind: EngineKind, nservers: int = 3, **cfg):
    return Cluster.build(graph, ClusterConfig(nservers=nservers, engine=kind, **cfg))


def assert_engines_match_oracle(graph, query, nservers=3, engines=ALL_ENGINES, **cfg):
    """Differential check: every engine returns the oracle's vertex sets."""
    plan = query.compile() if hasattr(query, "compile") else query
    ref = ReferenceEngine(graph).run(plan)
    outcomes = {}
    for kind in engines:
        cluster = build_cluster(graph, kind, nservers, **cfg)
        outcome = cluster.traverse(plan)
        assert outcome.result.same_vertices(ref), (
            f"{kind.value} diverged from oracle: "
            f"{outcome.result.returned} != {ref.returned}"
        )
        outcomes[kind] = outcome
    return ref, outcomes


@pytest.fixture()
def metadata_graph():
    """A small, hand-built rich-metadata graph covering all paper labels."""
    b = GraphBuilder(schema=hpc_metadata_schema())
    users = [b.vertex("User", name=f"user{i}") for i in range(3)]
    jobs, execs, files = [], [], []
    for i in range(6):
        files.append(b.vertex("File", name=f"f{i}", kind="text" if i % 2 else "binary",
                              annotation="B" if i < 3 else "raw"))
    for u_idx, user in enumerate(users):
        for j in range(2):
            job = b.vertex("Job", jobid=len(jobs), ts=float(100 * len(jobs)))
            jobs.append(job)
            b.edge(user, job, "run", ts=float(100 * (len(jobs) - 1)))
            for e in range(2):
                ex = b.vertex("Execution", model="A" if (u_idx + e) % 2 == 0 else "B",
                              ts=float(100 * len(jobs) + e))
                execs.append(ex)
                b.edge(job, ex, "hasExecutions")
                fin = files[(u_idx * 2 + e) % len(files)]
                fout = files[(u_idx * 2 + e + 3) % len(files)]
                b.edge(ex, fin, "read", ts=1.0)
                b.edge(fin, ex, "readBy")
                b.edge(ex, fout, "write", ts=2.0)
    graph = b.build()
    return graph, {"users": users, "jobs": jobs, "execs": execs, "files": files}
