"""Experiment harness: configuration, graph caching, and sweep execution.

Two seams carry every experiment. :func:`build_cluster` is the only place
``repro.bench`` builds a cluster (and so the only place tracing is switched
on); :func:`measure` is the only place a :class:`Cell` is made, labelled and
given its metrics snapshot and its trace. :func:`run_cell` — a fresh cluster,
one cold traversal — and :func:`run_engine_comparison` — every engine at
every server count — are the two compositions the paper's grid needs. All
numbers are virtual time; wall-clock belongs to ``benchmarks/perf``.

Environment knobs (so the full paper scale can be attempted off-laptop):

* ``REPRO_BENCH_SCALE``       — RMAT scale (default 12; paper used 20)
* ``REPRO_BENCH_EDGE_FACTOR`` — RMAT average out-degree (default 16, as paper)
* ``REPRO_BENCH_SERVERS``     — comma list of server counts (default 2,4,8,16,32)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, EngineOptions, TraversalOutcome
from repro.graph.builder import PropertyGraph
from repro.lang.plan import TraversalPlan
from repro.workloads import (
    MetadataGraph,
    MetadataGraphConfig,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
)

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

PAPER_SERVERS = (2, 4, 8, 16, 32)

ENGINE_ORDER = (EngineKind.SYNC, EngineKind.ASYNC, EngineKind.GRAPHTREK)


@dataclass(frozen=True)
class BenchEnvironment:
    """Resolved benchmark-scale knobs."""

    scale: int = 12
    edge_factor: int = 16
    servers: tuple[int, ...] = PAPER_SERVERS
    seed: int = 1
    #: the bench CLI's ``--trace``: every cluster built for a reported cell
    #: records a flight-recorder trace (see :mod:`repro.obs.trace`)
    trace: bool = False

    @classmethod
    def from_env(cls) -> "BenchEnvironment":
        scale = int(os.environ.get("REPRO_BENCH_SCALE", "12"))
        edge_factor = int(os.environ.get("REPRO_BENCH_EDGE_FACTOR", "16"))
        servers_raw = os.environ.get("REPRO_BENCH_SERVERS", "")
        servers = (
            tuple(int(s) for s in servers_raw.split(",") if s)
            if servers_raw
            else PAPER_SERVERS
        )
        return cls(scale=scale, edge_factor=edge_factor, servers=servers)


@lru_cache(maxsize=4)
def rmat1_graph(scale: int, edge_factor: int, seed: int = 1) -> PropertyGraph:
    """The paper's RMAT-1 graph (cached across benchmarks in one session)."""
    return rmat_graph(paper_rmat1(scale=scale, edge_factor=edge_factor, seed=seed))


@lru_cache(maxsize=4)
def rmat1_source(scale: int, edge_factor: int, seed: int = 1, pick: int = 7) -> int:
    return pick_start_vertex(
        paper_rmat1(scale=scale, edge_factor=edge_factor, seed=seed), rng_seed=pick
    )


@lru_cache(maxsize=2)
def darshan_graph(scale_users: int = 128, seed: int = 42) -> MetadataGraph:
    """The Darshan-like rich-metadata graph used by Table II/III benches."""
    return generate_metadata_graph(
        MetadataGraphConfig(
            users=scale_users,
            mean_jobs_per_user=16.0,
            mean_execs_per_job=10.0,
            files=max(1024, scale_users * 64),
            mean_reads_per_exec=1.6,
            mean_writes_per_exec=1.0,
            seed=seed,
        )
    )


def kstep_plan(env: BenchEnvironment, steps: int, pick: int = 7) -> TraversalPlan:
    src = rmat1_source(env.scale, env.edge_factor, env.seed, pick)
    return rmat_kstep_query(src, steps).compile()


@dataclass
class Cell:
    """One measurement: (engine, nservers) on a fixed plan."""

    engine: str
    nservers: int
    elapsed: float
    real_io_visits: int
    combined_visits: int
    redundant_visits: int
    messages: int
    bytes_sent: int
    barrier_rounds: int
    executions: int
    per_server: dict = field(default_factory=dict)
    #: full observability snapshot of the cluster that produced this cell
    #: (saved separately as <experiment>_metrics.json, excluded from the
    #: paper-table payload)
    metrics: dict = field(default_factory=dict)
    #: Chrome ``trace_event`` payload when the run was traced (saved
    #: separately as <experiment>_trace.json, excluded everywhere else)
    trace: dict = field(default_factory=dict)

    @property
    def visits(self) -> int:
        """Requests received: real + combined + redundant."""
        return self.real_io_visits + self.combined_visits + self.redundant_visits

    @classmethod
    def from_outcome(cls, engine, nservers: int, outcome: TraversalOutcome):
        st = outcome.stats
        name = engine.value if isinstance(engine, EngineKind) else engine.kind.value
        return cls(
            engine=name,
            nservers=nservers,
            elapsed=st.elapsed,
            real_io_visits=st.real_io_visits,
            combined_visits=st.combined_visits,
            redundant_visits=st.redundant_visits,
            messages=st.messages,
            bytes_sent=st.bytes_sent,
            barrier_rounds=st.barrier_rounds,
            executions=st.executions,
            per_server=dict(st.per_server),
        )


def build_cluster(
    graph: PropertyGraph,
    engine: Union[EngineKind, EngineOptions],
    nservers: int,
    *,
    interference_factory=None,
    **cluster_kwargs,
) -> Cluster:
    """The one cluster seam of ``repro.bench``."""
    config = ClusterConfig(nservers=nservers, engine=engine, **cluster_kwargs)
    if interference_factory is not None:
        config.interference = interference_factory()
    return Cluster.build(graph, config)


def measure(
    cluster: Cluster,
    plans: Sequence,
    *,
    label: Optional[str] = None,
    stats_of: int = 0,
    qos: Optional[list[dict]] = None,
) -> tuple[Cell, list[TraversalOutcome]]:
    """Run ``plans`` as one concurrent batch on ``cluster`` and report it.

    The cell takes its visit/message statistics from outcome ``stats_of``
    and the batch's makespan as ``elapsed`` (for one plan, that plan's
    elapsed); ``label`` replaces the engine name where several cells share
    an engine. The snapshot and — when the cluster records one — the trace
    cover everything the cluster has run so far. The outcomes come back for
    experiment-specific reads; the caller still holds the cluster.
    """
    config = cluster.config
    outcomes = cluster.traverse_many(list(plans), qos=qos)
    cell = Cell.from_outcome(config.engine, config.nservers, outcomes[stats_of])
    cell.elapsed = max(o.stats.elapsed for o in outcomes)
    if label is not None:
        cell.engine = label
    cell.metrics = cluster.metrics_snapshot()
    if config.trace_enabled:
        cell.trace = cluster.trace_payload(label=f"{cell.engine}x{cell.nservers}")
    return cell, outcomes


def run_cell(
    graph: PropertyGraph,
    plan: TraversalPlan,
    engine: Union[EngineKind, EngineOptions],
    nservers: int,
    *,
    label: Optional[str] = None,
    **build_kwargs,
) -> Cell:
    """One cold-start traversal on a freshly built cluster."""
    cluster = build_cluster(graph, engine, nservers, **build_kwargs)
    return measure(cluster, [plan], label=label)[0]


def run_engine_comparison(
    graph: PropertyGraph,
    plan: TraversalPlan,
    servers: Sequence[int],
    engines: Sequence[EngineKind] = ENGINE_ORDER,
    **build_kwargs,
) -> list[Cell]:
    """The standard sweep: every engine at every server count."""
    return [
        run_cell(graph, plan, engine, nservers, **build_kwargs)
        for nservers in servers
        for engine in engines
    ]


def cell_lookup(cells: Sequence[Cell]) -> dict[tuple[str, int], Cell]:
    return {(c.engine, c.nservers): c for c in cells}


def save_results(name: str, payload) -> Path:
    """Persist experiment output under benchmarks/results/<name>.json."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def cells_payload(cells: Sequence[Cell]) -> list[dict]:
    return [
        {
            k: v
            for k, v in cell.__dict__.items()
            if k not in ("per_server", "metrics", "trace")
        }
        for cell in cells
    ]


def metrics_payload(cells: Sequence[Cell]) -> dict[str, dict]:
    """Per-cell observability snapshots keyed ``<engine>x<nservers>``."""
    return {
        f"{cell.engine}x{cell.nservers}": cell.metrics
        for cell in cells
        if cell.metrics
    }


def trace_payload(cells: Sequence[Cell]) -> dict:
    """Merge the per-cell Chrome traces into one loadable payload.

    Each cell's process ids are shifted into a disjoint block so Perfetto
    shows every cell's servers side by side under its own labels.
    """
    merged: list[dict] = []
    block = 0
    for cell in cells:
        events = cell.trace.get("traceEvents")
        if not events:
            continue
        for ev in events:
            ev = dict(ev)
            ev["pid"] = ev["pid"] + block
            merged.append(ev)
        block += 1000
    return {"traceEvents": merged, "displayTimeUnit": "ms"}
