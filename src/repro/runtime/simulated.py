"""The runtime: what an engine needs from its execution environment, on the
discrete-event kernel.

Engines are written as generator-based actors against
:class:`SimServerContext`; they never touch the simulator directly. An engine
yields kernel events: the ones context methods return, its queue's ``get()``
and the completion events it was handed::

    def worker(self):
        while True:
            item = yield self.queue.get()
            yield self.ctx.disk(cost, level=item.level)
            self.ctx.send(dst, msg)

A disk is a capacity-limited FIFO of :class:`DiskAccess` events charged via
the :class:`~repro.storage.costmodel.DiskCostModel`, messages
arrive after :class:`~repro.net.topology.NetworkModel` latency, and elapsed
traversal time is read off the virtual clock. Determinism: same seed + same
configuration → identical event order and identical timings.

The runtime is single-threaded: every handler, worker step and client call
runs on the thread that drives the simulator, to completion, so no state in
a cluster is locked. A :class:`~repro.cluster.cluster.Cluster` must not be
shared across OS threads.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Protocol

from repro.errors import SimulationError
from repro.faults.inject import CLEAN, FaultDecision, payload_type_name
from repro.ids import COORDINATOR, ServerId
from repro.net.message import Message
from repro.net.topology import INFINIBAND_QDR, NetworkModel
from repro.sim.core import Event, Simulator
from repro.sim.resources import PriorityStore, Store
from repro.storage.costmodel import GPFS, DiskCostModel, IOCost

_DROP = FaultDecision(drop=True)


class InterferencePolicy(Protocol):
    """External-interference hook: extra virtual seconds for one vertex
    access on ``server`` while the accessing execution works at ``level``."""

    def delay(self, server: ServerId, level: Optional[int]) -> float: ...


class _Disk:
    """One server's disk: ``capacity`` concurrent accesses, the rest wait
    FIFO (a :class:`~repro.sim.resources.Resource` without priorities, whose
    waiters are the accesses themselves)."""

    __slots__ = ("capacity", "in_use", "waiting")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.in_use = 0
        self.waiting: deque[DiskAccess] = deque()


class DiskAccess(Event):
    """One access to a server's disk, as a single event that triggers once
    the access has been served.

    It makes the five heap entries, in the order, that a generator process
    holding a :class:`~repro.sim.resources.Resource` slot across a
    :class:`~repro.sim.core.Timeout` makes — no generator, process, request
    or timeout is built:

    1. *request* (at creation): take a free slot, else queue FIFO;
    2. *grant* (at once, or when a holder releases): price the service —
       the cost model, then one interference draw per access;
    3. *service end*, ``service`` seconds later (skipped when ``service``
       is not positive: the release then happens at the grant);
    4. *release*: free the slot (scheduling the next waiter's grant) and
       trigger;
    5. *wake-up*: each waiter's callback, scheduled by the trigger.

    A cost model or interference policy that raises releases the slot and
    fails the event with that exception, so the waiting process sees it.
    """

    __slots__ = ("_rt", "_server", "_cost", "_level", "_accesses", "_disk")

    def __init__(
        self,
        runtime: "SimRuntime",
        server_id: ServerId,
        cost: IOCost,
        level: Optional[int],
        accesses: int,
        name: str,
    ):
        super().__init__(runtime.sim, name)
        self._rt = runtime
        self._server = server_id
        self._cost = cost
        self._level = level
        self._accesses = accesses
        self._disk = runtime._disks[server_id]
        runtime.sim.schedule(0.0, self._request)

    def _request(self) -> None:
        disk = self._disk
        if disk.in_use < disk.capacity and not disk.waiting:
            disk.in_use += 1
            self.sim.schedule(0.0, self._grant)
        else:
            disk.waiting.append(self)

    def _grant(self) -> None:
        rt = self._rt
        try:
            service = rt.disk_model.time(self._cost)
            if rt.interference is not None:
                for _ in range(max(1, self._accesses)):
                    service += rt.interference.delay(self._server, self._level)
        except Exception as err:  # the waiter gets it, as from a process it awaited
            self._free_slot()
            if not self.callbacks:  # a crash nobody waits for must surface
                self.sim.orphan_failures.append((self.name, err))
            self.fail(err)
            return
        if service > 0:
            self.sim.schedule(service, self._service_end)
        else:
            self._free_slot()
            self.succeed()

    def _service_end(self) -> None:
        self.sim.schedule(0.0, self._release)

    def _release(self) -> None:
        self._free_slot()
        self.succeed()

    def _free_slot(self) -> None:
        disk = self._disk
        disk.in_use -= 1
        if disk.waiting:
            disk.in_use += 1
            self.sim.schedule(0.0, disk.waiting.popleft()._grant)


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

    # -- I/O ---------------------------------------------------------------------

    def disk(self, cost: IOCost, level: Optional[int] = None, accesses: int = 1):
        """Waitable that occupies this server's disk for ``cost``.

        ``level`` tags the traversal step for the interference policy;
        ``accesses`` is how many logical vertex accesses the cost covers.
        """
        return DiskAccess(
            self._rt, self.server_id, cost, level, accesses, self._disk_name
        )

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
        self._disks = [_Disk(disk_capacity) for _ in range(nservers)]
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

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` virtual seconds (message
        arrivals, fault events and transport retries, never engine work)."""
        self.sim.schedule(delay, fn, *args)

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

    # -- driving ----------------------------------------------------------------------

    def completion_event(self) -> Event:
        """A one-shot event the coordinator resolves when a traversal ends."""
        return self.sim.event("traversal-complete")

    def run_until_complete(self, waitable: Event, limit: Optional[float] = None):
        """Drive the simulator until ``waitable`` resolves; return its value.
        ``limit`` is an absolute virtual time: passing it first raises
        :class:`~repro.errors.SimulationError`."""
        return self.sim.run_until(waitable, limit=limit)
