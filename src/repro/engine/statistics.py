"""Cluster-wide statistics board.

Engines record visit outcomes and message counts here, keyed by travel id.
This is out-of-band instrumentation — the paper likewise "placed instruments
inside the GraphTrek engine to collect the statistics during the execution"
(§VII-A) — so recording costs no simulated time.

The board also carries the cluster's :class:`~repro.obs.Observability`
(metrics registry + flight recorder), so every component that already holds the
board can record structured metrics without new constructor plumbing.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import EngineKind, TraversalStats
from repro.ids import ServerId, TravelId
from repro.obs import Observability


class StatsBoard:
    """Per-traversal :class:`TraversalStats`, shared by all servers."""

    def __init__(self, engine_kind: EngineKind, obs: Optional[Observability] = None):
        self.engine_kind = engine_kind
        self.obs = obs if obs is not None else Observability()
        self._stats: dict[TravelId, TraversalStats] = {}

    def stats(self, travel_id: TravelId) -> TraversalStats:
        st = self._stats.get(travel_id)
        if st is None:
            st = TraversalStats(engine=self.engine_kind)
            self._stats[travel_id] = st
        return st

    def visit(self, travel_id: TravelId, server: ServerId, kind: str, n: int = 1) -> None:
        if n:
            self.stats(travel_id).record_visit(server, kind, n)

    def message(self, travel_id: TravelId, nbytes: int) -> None:
        st = self.stats(travel_id)
        st.messages += 1
        st.bytes_sent += nbytes

    def execution(self, travel_id: TravelId, n: int = 1) -> None:
        self.stats(travel_id).executions += n

    def reset(self, travel_id: TravelId) -> None:
        """Clear counters on traversal restart (elapsed is coordinator-owned)."""
        st = self.stats(travel_id)
        restarts = st.restarts
        self._stats[travel_id] = TraversalStats(engine=self.engine_kind, restarts=restarts)

    def pop(self, travel_id: TravelId) -> TraversalStats:
        return self._stats.pop(travel_id, TraversalStats(engine=self.engine_kind))
