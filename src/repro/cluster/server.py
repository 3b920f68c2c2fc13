"""A backend server: storage plus traversal engine, bound to one context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.engine.async_engine import AsyncServerEngine
from repro.engine.sync_engine import SyncServerEngine
from repro.ids import ServerId
from repro.runtime.simulated import SimServerContext
from repro.storage.layout import GraphStore

ServerEngine = Union[AsyncServerEngine, SyncServerEngine]


@dataclass
class BackendServer:
    """One node of the cluster, for introspection by tests and benches."""

    server_id: ServerId
    ctx: SimServerContext
    store: GraphStore
    engine: ServerEngine

    @property
    def vertex_count(self) -> int:
        return self.store.vertex_count()

    def storage_metrics(self) -> dict[str, int]:
        """This server's storage counters (LSM / block cache / bloom)."""
        return self.store.metrics_snapshot()
