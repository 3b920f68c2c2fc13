"""Migration choice: hot-shard telemetry → one move.

Selection is a pure function (:func:`select_migration`) over a
:class:`~repro.obs.telemetry.HotShardReport` and the per-server vertex
loads, so a pinned report fixture yields a deterministic, testable choice.
The caller runs the choice with :meth:`Cluster.rebalance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ids import ServerId, VertexId


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
