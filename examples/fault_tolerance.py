#!/usr/bin/env python
"""Fault tolerance: message loss, fine-grained recovery, and checkpoints.

Demonstrates the three layers of the reproduction's failure story:

1. the paper's baseline (§IV-C): a lost execution is detected by the
   coordinator's status tracing and the traversal restarts;
2. the paper's future work, implemented here: fine-grained recovery replays
   just the lost execution — no restart;
3. durability: a server's store checkpoints to real files and restores after
   a "failure" (the role GPFS plays in the paper's deployment).

Run:  python examples/fault_tolerance.py
"""

import tempfile

from repro import (
    Cluster,
    ClusterConfig,
    CoordinatorConfig,
    EngineKind,
    GTravel,
    MetadataGraphConfig,
    generate_metadata_graph,
)
from repro.faults.inject import FaultDecision
from repro.net.message import TraverseRequest
from repro.storage.persist import checkpoint_graph_store, restore_graph_store


class DropOneForward:
    """A hand-written fault injector (anything with ``decide(src, dst, msg)
    -> FaultDecision`` fits the runtime's injection slot; a seeded
    ``FaultPlan`` is the declarative way): lose the first inter-server
    dispatch, deliver everything else untouched."""

    def __init__(self):
        self.dropped = 0

    def decide(self, src, dst, msg) -> FaultDecision:
        if (
            isinstance(msg, TraverseRequest)
            and msg.level > 0
            and self.dropped == 0
            and src != dst
        ):
            self.dropped += 1
            return FaultDecision(drop=True)
        return FaultDecision()


def lossy_cluster(graph, fine_grained: bool):
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=4,
            engine=EngineKind.GRAPHTREK,
            coordinator_config=CoordinatorConfig(
                exec_timeout=0.5,
                watch_interval=0.1,
                fine_grained_recovery=fine_grained,
            ),
        ),
    )
    cluster.runtime.fault_injector = DropOneForward()
    return cluster


def main() -> None:
    md = generate_metadata_graph(MetadataGraphConfig(users=16, files=512, seed=3))
    graph = md.graph
    user = max(md.user_ids, key=lambda u: graph.out_degree(u, "run"))
    plan = GTravel.v(user).e("run").e("hasExecutions").compile()

    print("1) baseline recovery (paper §IV-C): lose a dispatch, restart")
    cluster = lossy_cluster(graph, fine_grained=False)
    out = cluster.traverse(plan)
    print(f"   restarts={out.stats.restarts} replays={out.stats.replays} "
          f"elapsed={out.stats.elapsed * 1000:.0f} ms, "
          f"{len(out.result.vertices)} results")

    print("2) fine-grained recovery (future work, implemented): replay only")
    cluster = lossy_cluster(graph, fine_grained=True)
    out2 = cluster.traverse(plan)
    print(f"   restarts={out2.stats.restarts} replays={out2.stats.replays} "
          f"elapsed={out2.stats.elapsed * 1000:.0f} ms, "
          f"{len(out2.result.vertices)} results")
    assert out2.result.same_vertices(out.result)
    assert out2.stats.restarts == 0

    print("3) checkpoint/restore: a server's store survives its server")
    cluster = Cluster.build(graph, ClusterConfig(nservers=4, engine=EngineKind.GRAPHTREK))
    victim = cluster.servers[2]
    with tempfile.TemporaryDirectory() as ckpt:
        checkpoint_graph_store(victim.store, ckpt)
        print(f"   checkpointed {victim.store.vertex_count()} vertices")
        victim.store = None  # the failure
        restored = restore_graph_store(ckpt)
    victim.store = restored
    victim.engine.store = restored
    out3 = cluster.traverse(plan)
    assert out3.result.same_vertices(out.result)
    print(f"   restored server answers traversals again "
          f"({len(out3.result.vertices)} results)")


if __name__ == "__main__":
    main()
