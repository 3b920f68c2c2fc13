"""Discrete-event simulation kernel (SimPy-like, dependency-free).

Public surface:

* :class:`~repro.sim.core.Simulator`, :class:`~repro.sim.core.Event`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.Timeout`
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.PriorityStore`
* :class:`~repro.sim.rng.RngRegistry` for named seeded random streams
"""

from repro.sim.core import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import PriorityStore, Request, Resource, Store, TokenBucket
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "TokenBucket",
    "RngRegistry",
    "derive_seed",
]
