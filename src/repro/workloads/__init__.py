"""Workload generators: R-MAT graphs, the Darshan-like metadata graph, and
the paper's canned queries."""

from repro.workloads.metadata_graph import (
    PAPER_TABLE2,
    YEAR,
    MetadataGraph,
    MetadataGraphConfig,
    MetadataGraphStats,
    generate_metadata_graph,
    paper_scaled_config,
)
from repro.workloads.properties import sized_props
from repro.workloads.queries import (
    agent_exploration,
    audit_scan_query,
    data_audit_query,
    k_hop_lineage,
    provenance_query,
    qos_mixed_workload,
    rmat_kstep_query,
    suspicious_user_query,
)
from repro.workloads.rmat import (
    RMATConfig,
    paper_rmat1,
    pick_start_vertex,
    rmat_edge_array,
    rmat_graph,
)

__all__ = [
    "PAPER_TABLE2",
    "YEAR",
    "MetadataGraph",
    "MetadataGraphConfig",
    "MetadataGraphStats",
    "generate_metadata_graph",
    "paper_scaled_config",
    "sized_props",
    "agent_exploration",
    "audit_scan_query",
    "data_audit_query",
    "k_hop_lineage",
    "provenance_query",
    "qos_mixed_workload",
    "rmat_kstep_query",
    "suspicious_user_query",
    "RMATConfig",
    "paper_rmat1",
    "pick_start_vertex",
    "rmat_edge_array",
    "rmat_graph",
]
