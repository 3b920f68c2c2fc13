"""Engine configuration: which optimizations are on, and CPU cost knobs.

The three paper engines are presets over one option set:

* ``sync_options()``       — level-synchronous baseline (Sync-GT);
* ``plain_async_options()``— asynchronous, no optimizations (Async-GT);
* ``graphtrek_options()``  — asynchronous + traversal-affiliate caching +
  execution scheduling & merging (GraphTrek).

Ablation benches flip individual flags (cache only, merge only, FIFO
scheduling) to attribute the win to its mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.base import EngineKind


@dataclass(frozen=True)
class EngineOptions:
    """Per-server engine behaviour and cost constants."""

    kind: EngineKind = EngineKind.GRAPHTREK
    #: traversal-affiliate caching: drop already-served (travel, step, vertex)
    #: requests before they reach the disk.
    cache_enabled: bool = True
    #: execution merging: serve queued same-vertex other-step requests with
    #: the disk access already being made.
    merge_enabled: bool = True
    #: execution scheduling: workers take the smallest step id first
    #: (FIFO when off).
    priority_schedule: bool = True
    #: preallocated traversal-affiliate cache capacity, in triples.
    cache_capacity: int = 1 << 20
    #: workers per server pulling from the local request queue (the
    #: paper's worker threads, as simulated processes).
    workers: int = 4
    #: fixed CPU time to unpack/handle one queued request (RPC + dispatch).
    cpu_per_request: float = 120e-6
    #: extra per-request CPU the asynchronous engines pay over the barrier
    #: engine: worker-pool handoff, execution-status composition, and
    #: traversal-affiliate cache maintenance. This is why short traversals
    #: favour Sync-GT (paper §VII-B: "the short traversal does not provide
    #: enough optimization opportunities for asynchronous executions").
    cpu_async_overhead: float = 100e-6
    #: incremental CPU time per vertex in a request.
    cpu_per_vertex: float = 4e-6
    #: seek discount for the 2nd..Nth vertex of one sorted batch: a worker
    #: serving a key-ordered batch approximates an elevator pass over the
    #: SSTables, so later seeks are cheaper. 1.0 disables the effect.
    batch_seek_factor: float = 0.45
    #: plan-time optimizer mode: "off" executes chains as written (the
    #: paper's behaviour), "rules" applies statistics-free rewrites (filter
    #: fusion, predicate pushdown, final-step short-circuit), "cost" adds
    #: statistics-driven chain reversal with per-level cost estimates.
    planner: str = "off"
    #: multi-traversal launch policy of the admission scheduler: "fifo"
    #: (submission order — the legacy behaviour), "priority" (short
    #: traversals first), or "wfq" (weighted-fair queueing across tenants).
    #: Resource limits live in ``ClusterConfig.scheduler_config``.
    scheduler: str = "fifo"


def graphtrek_options(**overrides) -> EngineOptions:
    """The full GraphTrek engine (paper §V)."""
    return replace(
        EngineOptions(
            kind=EngineKind.GRAPHTREK,
            cache_enabled=True,
            merge_enabled=True,
            priority_schedule=True,
        ),
        **overrides,
    )


def plain_async_options(**overrides) -> EngineOptions:
    """Async-GT: the unoptimized asynchronous engine (paper §VII-A)."""
    return replace(
        EngineOptions(
            kind=EngineKind.ASYNC,
            cache_enabled=False,
            merge_enabled=False,
            priority_schedule=False,
        ),
        **overrides,
    )


def sync_options(**overrides) -> EngineOptions:
    """Sync-GT: the level-synchronous baseline (paper §VI).

    The optimization flags are meaningless under barrier execution and are
    forced off.
    """
    return replace(
        EngineOptions(
            kind=EngineKind.SYNC,
            cache_enabled=False,
            merge_enabled=False,
            priority_schedule=False,
        ),
        **overrides,
    )


def options_for(kind: EngineKind, **overrides) -> EngineOptions:
    """Preset lookup by engine kind."""
    if kind is EngineKind.SYNC:
        return sync_options(**overrides)
    if kind is EngineKind.ASYNC:
        return plain_async_options(**overrides)
    if kind is EngineKind.GRAPHTREK:
        return graphtrek_options(**overrides)
    raise ValueError(f"no server engine for {kind}")
