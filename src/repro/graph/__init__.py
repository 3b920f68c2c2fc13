"""Property-graph data model: vertices, edges, schemas, builders, stats."""

from repro.graph.builder import GraphBuilder, PropertyGraph
from repro.graph.edge import Edge
from repro.graph.property import props_size_bytes, validate_props
from repro.graph.schema import EdgeRule, Schema, hpc_metadata_schema
from repro.graph.stats import (
    DegreeStats,
    GraphSummary,
    LabelStats,
    PropertySketch,
    degree_stats,
    fit_powerlaw_alpha,
    gini,
    imbalance_factor,
    in_degree_stats,
    out_degree_stats,
)
from repro.graph.vertex import Vertex

__all__ = [
    "GraphBuilder",
    "PropertyGraph",
    "Edge",
    "Vertex",
    "EdgeRule",
    "Schema",
    "hpc_metadata_schema",
    "props_size_bytes",
    "validate_props",
    "DegreeStats",
    "GraphSummary",
    "LabelStats",
    "PropertySketch",
    "degree_stats",
    "fit_powerlaw_alpha",
    "gini",
    "imbalance_factor",
    "in_degree_stats",
    "out_degree_stats",
]
