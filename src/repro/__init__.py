"""GraphTrek reproduction: asynchronous graph traversal for property
graph-based metadata management (Dai et al., IEEE CLUSTER 2015).

Quickstart::

    from repro import (
        Cluster, ClusterConfig, EngineKind, GTravel, EQ, RANGE,
        GraphBuilder, hpc_metadata_schema,
    )

    b = GraphBuilder(schema=hpc_metadata_schema())
    user = b.vertex("User", name="sam")
    job = b.vertex("Job", jobid=1, ts=100.0)
    b.edge(user, job, "run", ts=100.0)
    graph = b.build()

    cluster = Cluster.build(graph, ClusterConfig(nservers=4, engine=EngineKind.GRAPHTREK))
    outcome = cluster.traverse(GTravel.v(user).e("run"))
    print(sorted(outcome.result.vertices), outcome.stats.elapsed)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.cluster import (
    BackendServer,
    Cluster,
    ClusterConfig,
    Coordinator,
    CoordinatorConfig,
    ExternalInterference,
    GraphTrekClient,
    StragglerSpec,
    paper_interference,
)
from repro.engine import (
    EngineKind,
    EngineOptions,
    ReferenceEngine,
    TraversalOutcome,
    TraversalResult,
    TraversalStats,
    graphtrek_options,
    plain_async_options,
    sync_options,
)
from repro.errors import (
    GraphError,
    KeyNotFound,
    PartitionError,
    QueryError,
    ReproError,
    SimulationError,
    StorageError,
    TraversalError,
    TraversalFailed,
)
from repro.graph import (
    Edge,
    GraphBuilder,
    PropertyGraph,
    Schema,
    Vertex,
    hpc_metadata_schema,
)
from repro.faults import CrashEvent, FaultPlan, FaultSpec, sample_fault_plan
from repro.lang import EQ, IN, RANGE, FilterOp, GTravel, TraversalPlan, union_results
from repro.net import ETHERNET_10G, INFINIBAND_QDR, NetworkModel
from repro.storage import GPFS, LOCAL_DISK, DiskCostModel, GraphStore, LSMConfig, LSMStore
from repro.workloads import (
    MetadataGraphConfig,
    RMATConfig,
    data_audit_query,
    generate_metadata_graph,
    paper_rmat1,
    paper_scaled_config,
    pick_start_vertex,
    provenance_query,
    rmat_graph,
    rmat_kstep_query,
    suspicious_user_query,
)

__version__ = "1.0.0"

__all__ = [
    "BackendServer",
    "Cluster",
    "ClusterConfig",
    "Coordinator",
    "CoordinatorConfig",
    "ExternalInterference",
    "GraphTrekClient",
    "StragglerSpec",
    "paper_interference",
    "EngineKind",
    "EngineOptions",
    "ReferenceEngine",
    "TraversalOutcome",
    "TraversalResult",
    "TraversalStats",
    "graphtrek_options",
    "plain_async_options",
    "sync_options",
    "GraphError",
    "KeyNotFound",
    "PartitionError",
    "QueryError",
    "ReproError",
    "SimulationError",
    "StorageError",
    "TraversalError",
    "TraversalFailed",
    "CrashEvent",
    "FaultPlan",
    "FaultSpec",
    "sample_fault_plan",
    "Edge",
    "GraphBuilder",
    "PropertyGraph",
    "Schema",
    "Vertex",
    "hpc_metadata_schema",
    "EQ",
    "IN",
    "RANGE",
    "FilterOp",
    "GTravel",
    "TraversalPlan",
    "union_results",
    "ETHERNET_10G",
    "INFINIBAND_QDR",
    "NetworkModel",
    "GPFS",
    "LOCAL_DISK",
    "DiskCostModel",
    "GraphStore",
    "LSMConfig",
    "LSMStore",
    "MetadataGraphConfig",
    "RMATConfig",
    "data_audit_query",
    "generate_metadata_graph",
    "paper_rmat1",
    "paper_scaled_config",
    "pick_start_vertex",
    "provenance_query",
    "rmat_graph",
    "rmat_kstep_query",
    "suspicious_user_query",
    "__version__",
]
