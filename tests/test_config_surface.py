"""The configuration surface, pinned field by field.

Every knob a user can set lives on one of these dataclasses. Pinning their
field names (in declaration order) makes adding or removing a knob a
one-line diff here, reviewed together with the code that needs it.

Removed so far: ``ClusterConfig.telemetry_enabled`` (the telemetry plane is
part of every cluster), ``ClusterConfig.trace_max_events``
(``Cluster.enable_tracing(max_events=)`` bounds the recorder) and
``CoordinatorConfig.max_replay_rounds`` (now the module constant
``MAX_REPLAY_ROUNDS``), ``ClusterConfig.runtime`` (the simulator is the
only runtime) and ``ClusterConfig.journal_storage`` (the journal lives in
its one in-memory storage, which outlives the coordinator).
``SchedulerConfig.per_server_inflight``, ``quota_capacity`` and
``quota_refill_rate`` went with launch backpressure and the tenant token
buckets, and ``RebalancerConfig`` with the closed-loop rebalancer: no entry
point ran them.

Fifteen more went because no workload, experiment, example or README block
set them; each is now a module constant with its old default:

- ``ReliableConfig`` (``ack_timeout``, ``max_retries``, ``window``): no
  cluster ever passed one; ``ACK_TIMEOUT``, ``MAX_RETRIES`` and ``WINDOW``
  in ``repro.net.reliable``.
- ``TelemetryConfig`` (``window_width``, ``max_windows``,
  ``max_samples_per_window``): no ``Observability`` ever passed one;
  ``WINDOW_WIDTH``, ``MAX_WINDOWS`` and ``MAX_SAMPLES_PER_WINDOW`` in
  ``repro.obs.telemetry``.
- ``SLOConfig.error_budget``, ``fast_window``, ``slow_window`` and
  ``burn_threshold``: the burn policy; ``ERROR_BUDGET``, ``FAST_WINDOW``,
  ``SLOW_WINDOW`` and ``BURN_THRESHOLD`` in ``repro.obs.slo``.
- ``MigrationConfig.ack_timeout``, ``max_resends``, ``drain_timeout``,
  ``tenant`` and ``priority``: migration pacing; ``ACK_TIMEOUT``,
  ``MAX_RESENDS``, ``DRAIN_TIMEOUT``, ``TENANT`` and ``PRIORITY`` in
  ``repro.rebalance.migrate``.

The public methods of ``Cluster`` and ``TraversalScheduler`` are pinned
too. Removed so far: ``Cluster.start_rebalancer``/``stop_rebalancer``
(a caller picks a move with ``select_migration`` and runs it with
``Cluster.rebalance``) and ``TraversalScheduler.tenant_tokens``.

The runtime is single-threaded, so no module under ``src/repro`` may import
a threading primitive: a lock cannot come back without a diff here.

The simulation kernel and the runtime seam are pinned the same way: the
names ``repro.sim`` exports and the public methods of ``SimServerContext``.
Removed so far: ``AnyOf``, ``AllOf``, ``Interrupt``, ``TokenBucket`` and
``RngRegistry`` (nothing scheduled on them), and the context's
``queue_put``/``queue_get``/``queue_len``/``wait``/``cpu`` (engines use
their queue, the events they were handed and ``sleep`` directly).
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.sim
from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineOptions
from repro.obs import SLOConfig
from repro.rebalance import MigrationConfig
from repro.runtime import SimServerContext
from repro.sched import SchedulerConfig, TraversalScheduler
from repro.storage import LSMConfig

SURFACE = {
    ClusterConfig: (
        "nservers",
        "engine",
        "partitioner",
        "network",
        "disk_model",
        "disk_capacity",
        "block_cache_blocks",
        "coordinator_server",
        "coordinator_config",
        "interference",
        "edge_layout",
        "fault_plan",
        "reliable",
        "trace_enabled",
        "scheduler_config",
        "journal",
        "slo_config",
        "trace_sampling",
        "migration",
    ),
    CoordinatorConfig: (
        "exec_timeout",
        "watch_interval",
        "max_restarts",
        "fine_grained_recovery",
        "control_overhead_per_msg",
    ),
    EngineOptions: (
        "kind",
        "cache_enabled",
        "merge_enabled",
        "priority_schedule",
        "cache_capacity",
        "workers",
        "cpu_per_request",
        "cpu_async_overhead",
        "cpu_per_vertex",
        "batch_seek_factor",
        "planner",
        "scheduler",
    ),
    SchedulerConfig: ("max_pending", "max_inflight", "tenant_weights"),
    MigrationConfig: ("chunk_vertices", "dual_window"),
    SLOConfig: ("latency_objective", "min_events"),
    LSMConfig: (
        "memtable_flush_bytes",
        "max_sstables",
        "block_cache_blocks",
        "cost_model",
    ),
}


@pytest.mark.parametrize("config", SURFACE, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(config):
    fields = tuple(f.name for f in dataclasses.fields(config))
    assert fields == SURFACE[config]


SIM_EXPORTS = (
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "derive_seed",
)


def public_methods(cls) -> tuple:
    """The public names a class defines itself: methods, classmethods and
    properties, sorted."""
    return tuple(name for name in sorted(vars(cls)) if not name.startswith("_"))


METHOD_SURFACE = {
    Cluster: (
        "alert_log",
        "build",
        "cancel",
        "cold_start",
        "enable_tracing",
        "explain",
        "export_observability",
        "health",
        "health_json",
        "hot_shard_report",
        "ingest_edge",
        "ingest_vertex",
        "journal",
        "metrics_snapshot",
        "now",
        "obs",
        "openmetrics",
        "profile",
        "progress",
        "rebalance",
        "rollups",
        "server_loads",
        "slo",
        "submit",
        "telemetry",
        "trace_dag",
        "trace_payload",
        "traverse",
        "traverse_many",
    ),
    TraversalScheduler: (
        "cancel",
        "drain_queued",
        "entry_for",
        "for_cluster",
        "inflight_count",
        "on_host_crash",
        "on_travel_terminal",
        "queue_depth",
        "restore",
        "submit",
        "submit_job",
    ),
}


@pytest.mark.parametrize("cls", METHOD_SURFACE, ids=lambda cls: cls.__name__)
def test_public_methods_are_pinned(cls):
    assert public_methods(cls) == METHOD_SURFACE[cls]


SERVER_CONTEXT_METHODS = (
    "disk",
    "now",
    "queue",
    "send",
    "send_coordinator",
    "sleep",
    "spawn",
)


def test_sim_kernel_exports_are_pinned():
    assert tuple(repro.sim.__all__) == SIM_EXPORTS


def test_server_context_methods_are_pinned():
    methods = tuple(
        name
        for name, member in sorted(vars(SimServerContext).items())
        if callable(member) and not name.startswith("_")
    )
    assert methods == SERVER_CONTEXT_METHODS


THREADING_MODULES = {"threading", "queue", "concurrent", "_thread"}


def test_src_is_single_threaded():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in THREADING_MODULES:
                    offenders.append(f"{path.relative_to(src)}: {name}")
    assert offenders == []
