"""Virtual-time runtime on the discrete-event kernel.

This is the evaluation runtime: disks are capacity-limited
:class:`~repro.sim.resources.Resource` objects charged via the
:class:`~repro.storage.costmodel.DiskCostModel`, messages arrive after
:class:`~repro.net.topology.NetworkModel` latency, and elapsed traversal time
is read off the virtual clock. Determinism: same seed + same configuration →
identical event order and identical timings.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.ids import ServerId
from repro.net.message import Message
from repro.net.topology import INFINIBAND_QDR, NetworkModel
from repro.runtime.base import InterferencePolicy, Runtime, ServerContext
from repro.sim.core import Event, Simulator
from repro.sim.resources import PriorityStore, Resource, Store
from repro.storage.costmodel import GPFS, DiskCostModel, IOCost


class SimServerContext(ServerContext):
    """One server's view of the simulated runtime."""

    def __init__(self, runtime: "SimRuntime", server_id: ServerId):
        self._rt = runtime
        self.server_id = server_id
        self.nservers = runtime.nservers
        self._disk_name = f"s{server_id}:disk"  # formatted once, not per access

    # -- time ----------------------------------------------------------

    def now(self) -> float:
        return self._rt.sim.now

    def sleep(self, dt: float):
        return self._rt.sim.timeout(dt)

    # -- processes -------------------------------------------------------

    def spawn(self, gen, name: str = "proc"):
        return self._rt.sim.process(gen, name=f"s{self.server_id}:{name}")

    # -- queues --------------------------------------------------------------

    def queue(self, priority: bool = False, name: str = "q"):
        cls = PriorityStore if priority else Store
        return cls(self._rt.sim, name=f"s{self.server_id}:{name}")

    def queue_put(self, q, item) -> None:
        q.put(item)

    def queue_get(self, q):
        return q.get()

    def queue_len(self, q) -> int:
        return len(q)

    # -- events --------------------------------------------------------------

    def wait(self, event):
        # Sim events are themselves waitables: yielding one suspends the
        # process until it triggers (or throws its failure exception in).
        return event

    # -- I/O ---------------------------------------------------------------------

    def disk(self, cost: IOCost, level: Optional[int] = None, accesses: int = 1):
        return self._rt.sim.process(
            self._rt._disk_proc(self.server_id, cost, level, accesses),
            name=self._disk_name,
        )

    def cpu(self, dt: float):
        return self._rt.sim.timeout(dt)


class SimRuntime(Runtime):
    """The cluster-wide simulated runtime."""

    def __init__(
        self,
        nservers: int,
        *,
        network: NetworkModel = INFINIBAND_QDR,
        disk_model: DiskCostModel = GPFS,
        disk_capacity: int = 1,
        interference: Optional[InterferencePolicy] = None,
    ):
        if nservers < 1:
            raise SimulationError(f"nservers must be >= 1, got {nservers}")
        self.nservers = nservers
        self.sim = Simulator()
        self.network = network
        self.disk_model = disk_model
        self.interference = interference
        self._disks = [
            Resource(self.sim, disk_capacity, name=f"disk{s}") for s in range(nservers)
        ]
        self._init_wire()

    # -- wiring ------------------------------------------------------------

    def context(self, server_id: ServerId) -> SimServerContext:
        if not (0 <= server_id < self.nservers):
            raise SimulationError(f"server id {server_id} out of range")
        return SimServerContext(self, server_id)

    # -- clock and dispatch ----------------------------------------------------

    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.sim.schedule(delay, fn)

    def on_clock_boundary(self, fn: Callable[[float], float], threshold: float) -> None:
        self.sim.set_boundary_watcher(fn, threshold)

    def _dispatch(self, host: ServerId, handler, msg: Message) -> None:
        handler(msg)

    # -- disk ----------------------------------------------------------------------

    def _disk_proc(
        self, server_id: ServerId, cost: IOCost, level: Optional[int], accesses: int
    ):
        disk = self._disks[server_id]
        req = disk.request()
        yield req
        try:
            service = self.disk_model.time(cost)
            if self.interference is not None:
                for _ in range(max(1, accesses)):
                    service += self.interference.delay(server_id, level)
            if service > 0:
                yield self.sim.timeout(service)
        finally:
            disk.release(req)

    # -- driving ----------------------------------------------------------------------

    def completion_event(self) -> Event:
        return self.sim.event("traversal-complete")

    def run_until_complete(self, waitable: Event, limit: Optional[float] = None):
        return self.sim.run_until(waitable, limit=limit)
