"""The runtime: what an engine needs from its execution environment, on the
discrete-event kernel.

Engines are written as generator-based actors against
:class:`SimServerContext`; they never touch the simulator directly. An engine
yields the waitables returned by context methods::

    def worker(self):
        while True:
            item = yield self.ctx.queue_get(self.queue)
            yield self.ctx.disk(cost, level=item.level)
            self.ctx.send(dst, msg)

Disks are capacity-limited :class:`~repro.sim.resources.Resource` objects
charged via the :class:`~repro.storage.costmodel.DiskCostModel`, messages
arrive after :class:`~repro.net.topology.NetworkModel` latency, and elapsed
traversal time is read off the virtual clock. Determinism: same seed + same
configuration → identical event order and identical timings.

The runtime is single-threaded: every handler, worker step and client call
runs on the thread that drives the simulator, to completion, so no state in
a cluster is locked. A :class:`~repro.cluster.cluster.Cluster` must not be
shared across OS threads.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from repro.errors import SimulationError
from repro.faults.inject import CLEAN, FaultDecision, payload_type_name
from repro.ids import COORDINATOR, ServerId
from repro.net.message import Message
from repro.net.topology import INFINIBAND_QDR, NetworkModel
from repro.sim.core import Event, Simulator
from repro.sim.resources import PriorityStore, Resource, Store
from repro.storage.costmodel import GPFS, DiskCostModel, IOCost

_DROP = FaultDecision(drop=True)


class InterferencePolicy(Protocol):
    """External-interference hook: extra virtual seconds for one vertex
    access on ``server`` while the accessing execution works at ``level``."""

    def delay(self, server: ServerId, level: Optional[int]) -> float: ...


class SimServerContext:
    """One server's view of the runtime, handed to its engine instance."""

    def __init__(self, runtime: "SimRuntime", server_id: ServerId):
        self._rt = runtime
        self.server_id = server_id
        self.nservers = runtime.nservers
        self._disk_name = f"s{server_id}:disk"  # formatted once, not per access

    # -- time ----------------------------------------------------------

    def now(self) -> float:
        return self._rt.sim.now

    def sleep(self, dt: float):
        """Waitable that resumes after ``dt`` virtual seconds."""
        return self._rt.sim.timeout(dt)

    # -- processes -------------------------------------------------------

    def spawn(self, gen, name: str = "proc"):
        """Run a generator as a concurrent process; returns its handle."""
        return self._rt.sim.process(gen, name=f"s{self.server_id}:{name}")

    # -- queues --------------------------------------------------------------

    def queue(self, priority: bool = False, name: str = "q"):
        """Create a work queue (priority queues pop smallest item first)."""
        cls = PriorityStore if priority else Store
        return cls(self._rt.sim, name=f"s{self.server_id}:{name}")

    def queue_put(self, q, item) -> None:
        q.put(item)

    def queue_get(self, q):
        """Waitable resolving to the next item."""
        return q.get()

    def queue_len(self, q) -> int:
        return len(q)

    # -- events --------------------------------------------------------------

    def wait(self, event):
        """Waitable resolving to a completion event's value.

        ``event`` is a one-shot event from :meth:`SimRuntime.completion_event`.
        Sim events are themselves waitables: yielding one suspends the
        process until it triggers, or throws the exception it failed with
        into the process, so orchestrating actors can catch child-traversal
        failures.
        """
        return event

    # -- I/O ---------------------------------------------------------------------

    def disk(self, cost: IOCost, level: Optional[int] = None, accesses: int = 1):
        """Waitable that occupies this server's disk for ``cost``.

        ``level`` tags the traversal step for the interference policy;
        ``accesses`` is how many logical vertex accesses the cost covers.
        """
        return self._rt.sim.process(
            self._rt._disk_proc(self.server_id, cost, level, accesses),
            name=self._disk_name,
        )

    def cpu(self, dt: float):
        """Waitable modelling per-request processing overhead."""
        return self._rt.sim.timeout(dt)

    # -- messaging ---------------------------------------------------------------

    def send(self, dst: ServerId, msg: Message) -> None:
        """Fire-and-forget message to another server's engine."""
        self._rt.deliver(self.server_id, dst, msg)

    def send_coordinator(self, msg: Message) -> None:
        """Send to the coordinator actor of this traversal's cluster."""
        self._rt.deliver(self.server_id, COORDINATOR, msg)


class SimRuntime:
    """The clock, the wire, the crash model and the fault seam of one cluster.

    One handler table addressed by destination (:data:`~repro.ids.COORDINATOR`
    is an ordinary key — the coordinator is one more actor on the same
    point-to-point fabric, paper §IV-A), :meth:`deliver` (reliable-channel
    interposition), :meth:`raw_deliver` (one-shot delivery over the faulty
    wire), the set of crashed servers, and the single fault-injection slot
    (``fault_injector``: any object with ``decide(src, dst, msg) ->
    FaultDecision``, normally compiled from a
    :class:`~repro.faults.plan.FaultPlan`).
    """

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
        self.coordinator_server: ServerId = 0
        self.sim = Simulator()
        self.network = network  # per-message latency
        self.disk_model = disk_model
        self.interference = interference
        self._disks = [
            Resource(self.sim, disk_capacity, name=f"disk{s}") for s in range(nservers)
        ]
        self.metrics = None  # bound MetricsRegistry, or None
        self.trace = None  # bound FlightRecorder, or None
        self.channel = None  # installed ReliableChannel, or None
        self.fault_plan = None
        self.fault_injector = None
        self._handlers: dict[ServerId, Callable[[Message], None]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self._down: set[ServerId] = set()
        self._crash_listeners: list[Callable[[ServerId], None]] = []
        self._recovery_listeners: list[Callable[[ServerId], None]] = []

    def context(self, server_id: ServerId) -> SimServerContext:
        if not (0 <= server_id < self.nservers):
            raise SimulationError(f"server id {server_id} out of range")
        return SimServerContext(self, server_id)

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` virtual seconds (message arrivals,
        fault events and transport retries, never engine work)."""
        self.sim.schedule(delay, fn)

    def on_clock_boundary(self, fn: Callable[[float], float], threshold: float) -> None:
        """Call ``fn(now)`` once the clock reaches ``threshold``; it returns
        the next threshold to watch for (``inf`` stops the watch). Fires
        exactly once per crossed threshold."""
        self.sim.set_boundary_watcher(fn, threshold)

    # -- faults and reliability -------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Route ``net.*``/``faults.*`` counters to a metrics registry."""
        self.metrics = metrics

    def bind_trace(self, trace) -> None:
        """Route fault verdicts and crash/recovery events to a flight
        recorder (only non-clean verdicts are recorded, so clean traffic
        costs nothing beyond the enabled-flag check)."""
        self.trace = trace

    def install_faults(self, plan) -> None:
        """Make ``plan`` the single fault-injection point for this runtime
        and schedule its crash/recovery events on the runtime clock."""
        plan.validate(self.nservers, self.coordinator_server)
        self.fault_plan = plan
        self.fault_injector = plan.injector()
        for ev in plan.crashes:
            self.schedule(ev.at, lambda s=ev.server: self.crash_server(s))
            if ev.recover_at != float("inf"):
                self.schedule(ev.recover_at, lambda s=ev.server: self.recover_server(s))

    def install_channel(self, channel) -> None:
        """Interpose a reliable channel between ``deliver`` and the wire.

        Must run after all handlers are registered: the channel captures the
        current handlers as its upper layer and replaces them with its frame
        handlers.
        """
        if self.channel is not None:
            raise SimulationError("a reliable channel is already installed")
        self.channel = channel
        channel.attach(self, self._handlers)
        for addr in list(self._handlers):
            self._handlers[addr] = channel.frame_handler(addr)
        self.add_crash_listener(channel.on_server_crash)

    # -- crash model --------------------------------------------------------

    def add_crash_listener(self, fn: Callable[[ServerId], None]) -> None:
        self._crash_listeners.append(fn)

    def add_recovery_listener(self, fn: Callable[[ServerId], None]) -> None:
        self._recovery_listeners.append(fn)

    def is_down(self, server: ServerId) -> bool:
        return server in self._down

    def crash_server(self, server: ServerId) -> None:
        """Crash ``server``: in-memory state is lost (listeners clear engine
        and transport state), wire traffic to/from it is silently dropped."""
        if server in self._down:
            return
        self._down.add(server)
        self._count("faults.crashes", server=server)
        if self.trace is not None:
            self.trace.record("fault.crash", server_id=server)
        for fn in self._crash_listeners:
            fn(server)

    def recover_server(self, server: ServerId) -> None:
        """Rejoin ``server`` with empty memory (LSM storage survived)."""
        if server not in self._down:
            return
        self._down.discard(server)
        self._count("faults.recoveries", server=server)
        if self.trace is not None:
            self.trace.record("fault.recover", server_id=server)
        for fn in self._recovery_listeners:
            fn(server)

    # -- wire verdicts ------------------------------------------------------

    def _wire_verdict(
        self, src: ServerId, dst: ServerId, host: ServerId, msg: Message
    ):
        """Decide what the wire does to one delivery to address ``dst`` on
        server ``host``: a FaultDecision whose ``drop`` covers crashed
        endpoints and the installed fault injector. Every drop is counted
        (``net.dropped``)."""
        if self.is_down(src) or self.is_down(host):
            self._note_drop(msg, "down")
            self._trace_verdict(src, dst, msg, "down")
            return _DROP
        if self.fault_injector is not None:
            decision = self.fault_injector.decide(src, dst, msg)
            if decision.drop:
                self._note_drop(msg, "fault")
            if not decision.clean:
                self._trace_verdict(
                    src, dst, msg, "fault",
                    drop=decision.drop,
                    duplicates=decision.duplicates,
                    extra_delay=decision.extra_delay,
                )
            return decision
        return CLEAN

    def _note_drop(self, msg: Message, reason: str) -> None:
        self.messages_dropped += 1
        self._count("net.dropped", type=payload_type_name(msg), reason=reason)

    def _trace_verdict(
        self, src: ServerId, dst: ServerId, msg: Message, cause: str, **attrs: Any
    ) -> None:
        """Record a non-clean wire verdict. The message's payload (or the
        frame's payload, when the reliable channel wrapped it) names the
        affected execution if it carries one."""
        if self.trace is None:
            return
        payload = getattr(msg, "payload", msg)
        kind = "fault.drop" if attrs.get("drop") or cause == "down" else "fault.verdict"
        self.trace.record(
            kind,
            travel_id=getattr(payload, "travel_id", None),
            exec_id=getattr(payload, "exec_id", None),
            server_id=dst,
            attempt=getattr(payload, "attempt", 0),
            cause=cause,
            src=src,
            type=payload_type_name(msg),
            **{k: v for k, v in attrs.items() if k != "drop"},
        )

    def _count(self, name: str, n: float = 1, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n, **labels)

    # -- the wire -------------------------------------------------------------

    def register_handler(
        self, dst: ServerId, handler: Callable[[Message], None]
    ) -> None:
        """Install the receiver for one address: an engine's ``on_message``
        for a server id, the coordinator actor's for ``COORDINATOR``."""
        self._handlers[dst] = handler

    def deliver(self, src: ServerId, dst: ServerId, msg: Message) -> None:
        """Send ``msg`` to the actor at ``dst`` (through the reliable
        channel when one is installed)."""
        if self.channel is not None:
            self.channel.send(src, dst, msg)
            return
        self.raw_deliver(src, dst, msg)

    def raw_deliver(self, src: ServerId, dst: ServerId, msg: Message) -> None:
        """One-shot delivery over the (faulty) wire; the channel's transport.
        The handler runs to completion when the message arrives."""
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(
                "no coordinator registered"
                if dst == COORDINATOR
                else f"no handler registered for server {dst}"
            )
        host = self.coordinator_server if dst == COORDINATOR else dst
        verdict = self._wire_verdict(src, dst, host, msg)
        if verdict.drop:
            return
        copies = 1 + verdict.duplicates
        nbytes = msg.nbytes
        self.messages_sent += copies
        self.bytes_sent += nbytes * copies
        delay = self.network.latency(src, host, nbytes) + verdict.extra_delay
        self.sim.schedule(delay, handler, msg)
        for i in range(verdict.duplicates):
            self._count("faults.duplicated")
            self.sim.schedule(
                delay + (i + 1) * max(verdict.dup_spacing, 1e-6), handler, msg
            )

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
        """A one-shot event the coordinator resolves when a traversal ends."""
        return self.sim.event("traversal-complete")

    def run_until_complete(self, waitable: Event, limit: Optional[float] = None):
        """Drive the simulator until ``waitable`` resolves; return its value.
        ``limit`` is an absolute virtual time: passing it first raises
        :class:`~repro.errors.SimulationError`."""
        return self.sim.run_until(waitable, limit=limit)
