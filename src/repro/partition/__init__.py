"""Graph partitioning: edge-cut (engine default) and vertex-cut (analysis)."""

from repro.partition.balance import PartitionReport, evaluate_partition
from repro.partition.edge_cut import (
    GreedyBalancedEdgeCut,
    HashEdgeCut,
    Partitioner,
    make_partitioner,
    splitmix64,
)
from repro.partition.vertex_cut import VertexCutResult, greedy_vertex_cut

__all__ = [
    "PartitionReport",
    "evaluate_partition",
    "GreedyBalancedEdgeCut",
    "HashEdgeCut",
    "Partitioner",
    "make_partitioner",
    "splitmix64",
    "VertexCutResult",
    "greedy_vertex_cut",
]
