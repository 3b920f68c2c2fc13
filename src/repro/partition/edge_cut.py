"""Edge-cut partitioners: every vertex (and its out-edges) lives on exactly
one server.

The paper's evaluation uses the common hash-based edge-cut ("as most graph
databases do", §VI); :class:`HashEdgeCut` reproduces it. A degree-aware
greedy variant is provided for the load-balancing ablation the paper's
future-work section gestures at.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.errors import PartitionError
from repro.graph.builder import PropertyGraph
from repro.ids import ServerId, VertexId


def splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer (SplitMix64 finalizer).

    Python's built-in ``hash`` of ints is the identity, which would turn a
    modulo partitioner into round-robin and hide the skew real hash
    partitioning produces; this mixer avoids that.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Partitioner(ABC):
    """Maps vertex ids to server ids for an ``nservers``-way deployment."""

    def __init__(self, nservers: int):
        if nservers < 1:
            raise PartitionError(f"nservers must be >= 1, got {nservers}")
        self.nservers = nservers

    @abstractmethod
    def owner(self, vid: VertexId) -> ServerId:
        """Server that stores ``vid`` and its out-edges."""

    def assign(self, graph: PropertyGraph) -> list[list[VertexId]]:
        """Vertex lists per server, in deterministic order."""
        parts: list[list[VertexId]] = [[] for _ in range(self.nservers)]
        for vid in graph.vertex_ids():
            parts[self.owner(vid)].append(vid)
        return parts


class HashEdgeCut(Partitioner):
    """Hash vertices across servers (the paper's default strategy)."""

    def __init__(self, nservers: int, salt: int = 0):
        super().__init__(nservers)
        self.salt = salt
        #: vertices already placed: the hash is pure, so a placement is
        #: mixed once (by ``assign`` at build) and looked up afterwards
        self._placed: dict[VertexId, ServerId] = {}

    def owner(self, vid: VertexId) -> ServerId:
        server = self._placed.get(vid)
        if server is None:
            server = self._placed[vid] = splitmix64(vid ^ self.salt) % self.nservers
        return server


class GreedyBalancedEdgeCut(Partitioner):
    """Degree-aware greedy placement: heaviest vertices first, each to the
    currently lightest server (by out-edge count).

    Still an edge-cut (engine-compatible), but flattens the per-server edge
    load that hash placement leaves skewed on power-law graphs. Requires
    :meth:`fit` before :meth:`owner` can answer.
    """

    def __init__(self, nservers: int):
        super().__init__(nservers)
        self._owner: dict[VertexId, ServerId] = {}

    def fit(self, graph: PropertyGraph) -> "GreedyBalancedEdgeCut":
        vids = list(graph.vertex_ids())
        degrees = np.array([graph.out_degree(v) for v in vids], dtype=np.int64)
        order = np.argsort(-degrees, kind="stable")
        loads = np.zeros(self.nservers, dtype=np.int64)
        counts = np.zeros(self.nservers, dtype=np.int64)
        for idx in order:
            vid = vids[int(idx)]
            deg = int(degrees[int(idx)])
            # Lightest by edges; break ties by vertex count for even spread.
            target = int(np.lexsort((counts, loads))[0])
            self._owner[vid] = target
            loads[target] += deg
            counts[target] += 1
        return self

    def owner(self, vid: VertexId) -> ServerId:
        try:
            return self._owner[vid]
        except KeyError:
            raise PartitionError(
                f"vertex {vid} not fitted; call fit(graph) first"
            ) from None


def make_partitioner(
    kind: str, nservers: int, graph: Optional[PropertyGraph] = None
) -> Partitioner:
    """Factory used by experiment configs: ``"hash"`` or ``"greedy"``."""
    if kind == "hash":
        return HashEdgeCut(nservers)
    if kind == "greedy":
        if graph is None:
            raise PartitionError("greedy partitioner requires the graph to fit")
        return GreedyBalancedEdgeCut(nservers).fit(graph)
    raise PartitionError(f"unknown partitioner kind {kind!r}")
