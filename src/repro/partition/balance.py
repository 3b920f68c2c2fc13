"""Partition quality metrics.

Quantifies the per-server load skew that drives stragglers: vertex counts,
edge counts, and byte sizes per server, plus imbalance summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import PropertyGraph
from repro.graph.property import props_size_bytes
from repro.graph.stats import gini, imbalance_factor
from repro.partition.edge_cut import Partitioner


@dataclass(frozen=True)
class PartitionReport:
    """Per-server loads and their skew summaries."""

    nservers: int
    vertex_loads: np.ndarray
    edge_loads: np.ndarray
    byte_loads: np.ndarray

    @property
    def vertex_imbalance(self) -> float:
        return imbalance_factor(self.vertex_loads)

    @property
    def edge_imbalance(self) -> float:
        return imbalance_factor(self.edge_loads)

    @property
    def byte_imbalance(self) -> float:
        return imbalance_factor(self.byte_loads)

    @property
    def edge_gini(self) -> float:
        return gini(self.edge_loads.astype(np.float64))

    def as_dict(self) -> dict[str, float]:
        return {
            "nservers": self.nservers,
            "vertex_imbalance": self.vertex_imbalance,
            "edge_imbalance": self.edge_imbalance,
            "byte_imbalance": self.byte_imbalance,
            "edge_gini": self.edge_gini,
        }


def evaluate_partition(graph: PropertyGraph, partitioner: Partitioner) -> PartitionReport:
    """Measure the load each server would carry under ``partitioner``."""
    n = partitioner.nservers
    vloads = np.zeros(n, dtype=np.int64)
    eloads = np.zeros(n, dtype=np.int64)
    bloads = np.zeros(n, dtype=np.int64)
    for vid in graph.vertex_ids():
        server = partitioner.owner(vid)
        vertex = graph.vertex(vid)
        vloads[server] += 1
        deg = graph.out_degree(vid)
        eloads[server] += deg
        size = props_size_bytes(vertex.props)
        for _, _, eprops in graph.out_edges(vid):
            size += 16 + props_size_bytes(eprops)
        bloads[server] += size
    return PartitionReport(n, vloads, eloads, bloads)
