"""Discrete-event simulation kernel (SimPy-like, dependency-free).

Only what the runtime schedules on:

* :class:`~repro.sim.core.Simulator`, :class:`~repro.sim.core.Event`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.Timeout`
* :class:`~repro.sim.resources.Store` and
  :class:`~repro.sim.resources.PriorityStore`, the engines' work queues
* :class:`~repro.sim.resources.Resource` / ``Request``, the counted resource
  the runtime's disk access reproduces event for event (kept as its
  reference)
* :func:`~repro.sim.rng.derive_seed` for named seeded random streams
"""

from repro.sim.core import Event, Process, Simulator, Timeout
from repro.sim.resources import PriorityStore, Request, Resource, Store
from repro.sim.rng import derive_seed

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "derive_seed",
]
