"""The rebalancer policy loop: hot-shard telemetry → migration choices.

Selection is a pure function (:func:`select_migration`) over a
:class:`~repro.obs.telemetry.HotShardReport` and the per-server vertex
loads, so a pinned report fixture yields a deterministic, testable choice.
:class:`Rebalancer` is the thin closed loop around it: sample the report,
pick a move, run it through the :class:`~repro.rebalance.migrate.ShardMigrator`,
cool down, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.ids import ServerId, VertexId


@dataclass(frozen=True)
class RebalancerConfig:
    """Knobs for the policy loop."""

    #: seconds between hot-shard samples
    interval: float = 0.25
    #: fraction of the hot server's vertices to move per migration
    fraction: float = 0.5
    #: hard cap on vertices moved in one migration
    max_vertices: int = 64
    #: pause after a migration completes before sampling again
    cooldown: float = 0.5
    #: stop after this many migrations (None = run until stopped)
    max_migrations: Optional[int] = None
    #: only act when the report flags a server as *hot* (score above the
    #: telemetry plane's skew threshold); False migrates off the hottest
    #: server regardless, useful in benchmarks
    require_hot: bool = True


@dataclass(frozen=True)
class MigrationChoice:
    """A selected move: ``vids`` from ``src`` to ``dst``."""

    src: ServerId
    dst: ServerId
    vids: tuple[VertexId, ...]
    #: equivalent ``[lo, hi)`` key range (informational; vids are exact)
    key_range: tuple[VertexId, VertexId]


def select_migration(
    report,
    loads: dict[ServerId, list[VertexId]],
    *,
    fraction: float = 0.5,
    max_vertices: int = 64,
    require_hot: bool = True,
) -> Optional[MigrationChoice]:
    """Pick a migration from a hot-shard report, deterministically.

    Source is the hottest flagged server (or the top-ranked one when
    ``require_hot=False``); target is the *coolest* server — the lowest
    score, ties broken by server id. The move is the lowest-keyed
    ``fraction`` of the source's vertices (bounded by ``max_vertices``):
    sorted prefixes keep the choice stable across runs and make the
    equivalent key range contiguous.

    Returns ``None`` when there is nothing actionable: no hot server, a
    single-server report, or an empty source.
    """
    if require_hot:
        candidates = list(report.hot)
    else:
        candidates = list(report.ranked)
    src = next((s for s in candidates if loads.get(s)), None)
    if src is None or len(report.servers) < 2:
        return None
    coolest = min(
        (row for row in report.servers if row["server"] != src),
        key=lambda row: (row["score"], row["server"]),
        default=None,
    )
    if coolest is None:
        return None
    dst = coolest["server"]
    source_vids = sorted(loads[src])
    k = max(1, min(max_vertices, int(len(source_vids) * fraction)))
    vids = tuple(source_vids[:k])
    return MigrationChoice(
        src=src,
        dst=dst,
        vids=vids,
        key_range=(vids[0], vids[-1] + 1),
    )


class Rebalancer:
    """The closed loop: watch hot-shard telemetry, migrate ranges off hot
    servers onto cool ones. Runs as a coordinator-hosted process; at most
    one migration is in flight at a time (serial moves keep each decision
    based on post-move telemetry rather than a stale snapshot)."""

    def __init__(
        self,
        migrator,
        report_fn: Callable[[], object],
        loads_fn: Callable[[], dict[ServerId, list[VertexId]]],
        config: Optional[RebalancerConfig] = None,
    ):
        self.migrator = migrator
        self.report_fn = report_fn
        self.loads_fn = loads_fn
        self.config = config or RebalancerConfig()
        #: terminal MigrationState of every migration this loop started
        self.migrations: list = []
        self._stopped = False
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stopped = False
        self.migrator.ctx.spawn(self._loop(), name="rebalancer")

    def stop(self) -> None:
        self._stopped = True
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _loop(self):
        cfg = self.config
        while not self._stopped:
            yield self.migrator.ctx.sleep(cfg.interval)
            if self._stopped:
                break
            if self.migrator.active:
                continue  # a manual migration is in flight; stay out
            if (
                cfg.max_migrations is not None
                and len(self.migrations) >= cfg.max_migrations
            ):
                break
            choice = select_migration(
                self.report_fn(),
                self.loads_fn(),
                fraction=cfg.fraction,
                max_vertices=cfg.max_vertices,
                require_hot=cfg.require_hot,
            )
            if choice is None:
                continue
            _, event = self.migrator.migrate(
                choice.src, choice.dst, vids=choice.vids
            )
            state = yield event
            self.migrations.append(state)
            yield self.migrator.ctx.sleep(cfg.cooldown)
        self._running = False
