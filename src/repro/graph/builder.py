"""Property-graph construction and the in-memory graph container.

:class:`PropertyGraph` is the canonical in-memory representation used by
generators, partitioners, and the single-node reference engine. The
distributed engines never touch it directly — they read partitions loaded
into per-server :class:`~repro.storage.layout.GraphStore` instances.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterator, Mapping, Optional

from repro.errors import GraphError
from repro.graph.edge import Edge
from repro.graph.schema import Schema
from repro.graph.vertex import Vertex
from repro.ids import VertexId


class PropertyGraph:
    """Directed property multigraph with typed vertices and labelled edges.

    Out-adjacency is grouped by label (matching the storage layout), so
    ``graph.out_edges(v, "read")`` is the in-memory twin of the engine's
    sequential edge scan.
    """

    def __init__(self, schema: Optional[Schema] = None):
        self.schema = schema
        self._vertices: dict[VertexId, Vertex] = {}
        # vid -> label -> list[(dst, props)]
        self._out: dict[VertexId, dict[str, list[tuple[VertexId, dict[str, Any]]]]] = {}
        self._edge_count = 0

    # -- construction ---------------------------------------------------

    def add_vertex(
        self, vid: VertexId, vtype: str, props: Optional[Mapping[str, Any]] = None
    ) -> Vertex:
        if vid in self._vertices:
            raise GraphError(f"duplicate vertex id {vid}")
        if self.schema is not None:
            self.schema.check_vertex(vtype)
        vertex = Vertex(vid, vtype, dict(props or {}))
        self._vertices[vid] = vertex
        self._out[vid] = {}
        return vertex

    def add_edge(
        self,
        src: VertexId,
        dst: VertexId,
        label: str,
        props: Optional[Mapping[str, Any]] = None,
    ) -> Edge:
        if src not in self._vertices:
            raise GraphError(f"edge source {src} does not exist")
        if dst not in self._vertices:
            raise GraphError(f"edge destination {dst} does not exist")
        if self.schema is not None:
            self.schema.check_edge(
                label, self._vertices[src].vtype, self._vertices[dst].vtype
            )
        edge = Edge(src, dst, label, dict(props or {}))
        self._out[src].setdefault(label, []).append((dst, edge.props))
        self._edge_count += 1
        return edge

    # -- queries ----------------------------------------------------------

    def __contains__(self, vid: VertexId) -> bool:
        return vid in self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def vertex(self, vid: VertexId) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise GraphError(f"no vertex {vid}") from None

    def vertex_ids(self) -> Iterator[VertexId]:
        return iter(self._vertices.keys())

    def vertices_of_type(self, vtype: str) -> list[VertexId]:
        return [v.vid for v in self._vertices.values() if v.vtype == vtype]

    def adjacency(
        self, vid: VertexId
    ) -> Mapping[str, list[tuple[VertexId, dict[str, Any]]]]:
        """Out-adjacency of ``vid`` as the graph holds it: label -> ``[(dst,
        props), ...]``, labels in first-insertion order and each list in
        insertion order. Every list is non-empty. The graph's own
        containers, not copies: read them, never mutate them."""
        adj = self._out.get(vid)
        if adj is None:
            raise GraphError(f"no vertex {vid}")
        return adj

    def out_edges(
        self, vid: VertexId, label: Optional[str] = None
    ) -> list[tuple[str, VertexId, dict[str, Any]]]:
        """(label, dst, props) triples out of ``vid``; all labels if None."""
        adj = self.adjacency(vid)
        if label is not None:
            return [(label, dst, props) for dst, props in adj.get(label, [])]
        out = []
        for lbl, targets in adj.items():
            out.extend((lbl, dst, props) for dst, props in targets)
        return out

    def out_degree(self, vid: VertexId, label: Optional[str] = None) -> int:
        adj = self._out.get(vid)
        if adj is None:
            raise GraphError(f"no vertex {vid}")
        if label is not None:
            return len(adj.get(label, []))
        return sum(len(t) for t in adj.values())

    def edge_labels(self) -> set[str]:
        labels: set[str] = set()
        for adj in self._out.values():
            labels.update(adj.keys())
        return labels

    def in_degrees(self) -> dict[VertexId, int]:
        """In-degree of every vertex (one full pass; used by stats)."""
        degrees: dict[VertexId, int] = defaultdict(int)
        for adj in self._out.values():
            for targets in adj.values():
                for dst, _ in targets:
                    degrees[dst] += 1
        return dict(degrees)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for v in self._vertices.values():
            counts[v.vtype] += 1
        return dict(counts)


class GraphBuilder:
    """Incremental builder with id allocation and validation.

    Convenience for workload generators::

        b = GraphBuilder(schema=hpc_metadata_schema())
        u = b.vertex("User", name="sam")
        j = b.vertex("Job", jobid=17)
        b.edge(u, j, "run", ts=1000)
        graph = b.build()
    """

    def __init__(self, schema: Optional[Schema] = None, first_vid: int = 0):
        self._graph = PropertyGraph(schema)
        self._next_vid = first_vid

    def vertex(self, vtype: str, **props: Any) -> VertexId:
        vid = self._next_vid
        self._next_vid += 1
        self._graph.add_vertex(vid, vtype, props)
        return vid

    def edge(self, src: VertexId, dst: VertexId, label: str, **props: Any) -> None:
        self._graph.add_edge(src, dst, label, props)

    def build(self) -> PropertyGraph:
        graph = self._graph
        self._graph = PropertyGraph(graph.schema)  # builder can be reused
        return graph
