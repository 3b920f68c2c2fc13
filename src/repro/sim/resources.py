"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — a counted resource. Requests queue FIFO, or by
  priority when ``priority=True``. No engine holds one: the runtime's disk
  (:class:`~repro.runtime.simulated.DiskAccess`) makes the heap entries a
  process holding a ``Resource`` slot makes, and the tests keep ``Resource``
  as the reference it is checked against.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``.
* :class:`PriorityStore` — a store whose ``get`` returns the smallest item
  first; used by the GraphTrek execution scheduler (smallest step id wins).

All waiting is expressed as events, so processes compose naturally::

    req = disk.request()
    yield req
    try:
        yield sim.timeout(cost)
    finally:
        disk.release(req)
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float):
        super().__init__(resource.sim, name=resource.name)
        self.resource = resource
        self.priority = priority


class Resource:
    """A counted resource with ``capacity`` concurrent holders.

    ``request()`` returns an event that triggers when a slot is granted;
    ``release(req)`` frees it. With ``priority=True``, waiting requests are
    granted in ascending priority order (ties FIFO).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        *,
        priority: bool = False,
        name: str = "resource",
    ):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._priority = priority
        self._in_use = 0
        self._seq = 0
        self._waiting: list[tuple[float, int, Request]] = []

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        req = Request(self, priority)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            req.succeed(req)
        else:
            self._seq += 1
            key = priority if self._priority else 0.0
            heapq.heappush(self._waiting, (key, self._seq, req))
        return req

    def release(self, req: Request) -> None:
        """Free the slot held by ``req`` and grant the next waiter."""
        if req.resource is not self:
            raise SimulationError("release() of a request from another resource")
        if not req.triggered:
            # Cancelled before being granted: drop it from the wait queue.
            self._waiting = [w for w in self._waiting if w[2] is not req]
            heapq.heapify(self._waiting)
            req.succeed(req)  # unblock any waiter, as a no-op grant
            return
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiting and self._in_use < self.capacity:
            _, _, nxt = heapq.heappop(self._waiting)
            self._in_use += 1
            nxt.succeed(nxt)


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks. ``get()`` returns an event that triggers with the
    next item as soon as one is available.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, name=self.name)
        if self._items:
            ev.succeed(self._items.pop(0))
        else:
            self._getters.append(ev)
        return ev


class PriorityStore(Store):
    """A :class:`Store` whose ``get`` returns the smallest item first.

    Items must be orderable (the engine queues ``(priority, seq, payload)``
    tuples). The waiting-getter path is identical to :class:`Store`.
    """

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            heapq.heappush(self._items, item)

    def get(self) -> Event:
        ev = Event(self.sim, name=self.name)
        if self._items:
            ev.succeed(heapq.heappop(self._items))
        else:
            self._getters.append(ev)
        return ev
