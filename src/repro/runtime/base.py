"""Runtime abstraction: what an engine needs from its execution environment.

Engines are written as generator-based actors against :class:`ServerContext`.
They never import the simulator directly, so the same engine code runs on the
virtual-time runtime (:mod:`repro.runtime.simulated`) and the real-thread
runtime (:mod:`repro.runtime.threaded`). An engine yields the opaque
*waitables* returned by context methods::

    def worker(self):
        while True:
            item = yield self.ctx.queue_get(self.queue)
            yield self.ctx.disk(cost, level=item.level)
            self.ctx.send(dst, msg)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from typing import Any, Callable, Optional, Protocol

from repro.errors import SimulationError
from repro.ids import COORDINATOR, ServerId
from repro.faults.inject import CLEAN, FaultDecision, payload_type_name
from repro.net.message import Message
from repro.storage.costmodel import IOCost

_DROP = FaultDecision(drop=True)


class InterferencePolicy(Protocol):
    """External-interference hook: extra virtual seconds for one vertex
    access on ``server`` while the accessing execution works at ``level``."""

    def delay(self, server: ServerId, level: Optional[int]) -> float: ...


class ServerContext(ABC):
    """The per-server execution environment handed to engine instances."""

    server_id: ServerId
    nservers: int
    _rt: "Runtime"

    # -- time ------------------------------------------------------------

    @abstractmethod
    def now(self) -> float:
        """Current time (virtual or wall, depending on runtime)."""

    @abstractmethod
    def sleep(self, dt: float) -> Any:
        """Waitable that resumes after ``dt`` seconds."""

    # -- processes ---------------------------------------------------------

    @abstractmethod
    def spawn(self, gen, name: str = "proc") -> Any:
        """Run a generator as a concurrent process; returns its handle."""

    # -- queues --------------------------------------------------------------

    @abstractmethod
    def queue(self, priority: bool = False, name: str = "q") -> Any:
        """Create a work queue (priority queues pop smallest item first)."""

    @abstractmethod
    def queue_put(self, q: Any, item: Any) -> None: ...

    @abstractmethod
    def queue_get(self, q: Any) -> Any:
        """Waitable resolving to the next item."""

    @abstractmethod
    def queue_len(self, q: Any) -> int: ...

    # -- I/O -------------------------------------------------------------------

    @abstractmethod
    def disk(self, cost: IOCost, level: Optional[int] = None, accesses: int = 1) -> Any:
        """Waitable that occupies this server's disk for ``cost``.

        ``level`` tags the traversal step for the interference policy;
        ``accesses`` is how many logical vertex accesses the cost covers.
        """

    @abstractmethod
    def cpu(self, dt: float) -> Any:
        """Waitable modelling per-request processing overhead."""

    # -- events -------------------------------------------------------------------

    @abstractmethod
    def wait(self, event: Any) -> Any:
        """Waitable resolving to a completion event's value.

        ``event`` is a one-shot event from :meth:`Runtime.completion_event`.
        If the event fails, the exception it failed with is raised *inside*
        the waiting generator (both runtimes throw it into the process), so
        orchestrating actors can catch child-traversal failures.
        """

    # -- messaging ---------------------------------------------------------------

    def send(self, dst: ServerId, msg: Message) -> None:
        """Fire-and-forget message to another server's engine."""
        self._rt.deliver(self.server_id, dst, msg)

    def send_coordinator(self, msg: Message) -> None:
        """Send to the coordinator actor of this traversal's cluster."""
        self._rt.deliver(self.server_id, COORDINATOR, msg)


class Runtime(ABC):
    """The wire, the crash model and the fault seam of one cluster.

    Everything above the clock lives here once: one handler table addressed
    by destination (:data:`~repro.ids.COORDINATOR` is an ordinary key — the
    coordinator is one more actor on the same point-to-point fabric, paper
    §IV-A), :meth:`deliver` (reliable-channel interposition),
    :meth:`raw_deliver` (one-shot delivery over the faulty wire), the set of
    crashed servers, and the single fault-injection slot
    (``fault_injector``: any object with ``decide(src, dst, msg) ->
    FaultDecision``, normally compiled from a
    :class:`~repro.faults.plan.FaultPlan`). Subclasses provide only the
    clock (:meth:`now`, :meth:`schedule`, :meth:`on_clock_boundary`) and the
    concurrency primitive (:meth:`_dispatch`, ``_count_lock``,
    :meth:`exclusive`).
    """

    nservers: int
    coordinator_server: ServerId = 0
    network: Any  # NetworkModel: per-message latency
    metrics = None  # bound MetricsRegistry, or None
    trace = None  # bound FlightRecorder, or None
    channel = None  # installed ReliableChannel, or None
    fault_plan = None
    fault_injector = None
    #: guards the wire counters and the injector's draw order (a real lock
    #: on the threaded runtime)
    _count_lock: Any = nullcontext()

    @abstractmethod
    def context(self, server_id: ServerId) -> ServerContext: ...

    def _init_wire(self) -> None:
        """Called from subclass ``__init__``: the per-instance handler table,
        wire counters and crash bookkeeping."""
        self._handlers: dict[ServerId, Callable[[Message], None]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self._down: set[ServerId] = set()
        self._crash_listeners: list[Callable[[ServerId], None]] = []
        self._recovery_listeners: list[Callable[[ServerId], None]] = []

    # -- clock ---------------------------------------------------------------

    @abstractmethod
    def now(self) -> float:
        """Current runtime time (virtual, or scaled wall clock)."""

    @abstractmethod
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` runtime seconds (best effort; used
        for message arrivals, fault events and transport retries, never for
        engine work)."""

    @abstractmethod
    def on_clock_boundary(
        self, fn: Callable[[float], float], threshold: float
    ) -> None:
        """Call ``fn(now)`` once the clock reaches ``threshold``; it returns
        the next threshold to watch for (``inf`` stops the watch). Fires
        exactly once per crossed threshold and never after :meth:`shutdown`."""

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
        """One-shot delivery over the (faulty) wire; the channel's transport."""
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(
                "no coordinator registered"
                if dst == COORDINATOR
                else f"no handler registered for server {dst}"
            )
        host = self.coordinator_server if dst == COORDINATOR else dst
        with self._count_lock:
            verdict = self._wire_verdict(src, dst, host, msg)
            if verdict.drop:
                return
            copies = 1 + verdict.duplicates
            nbytes = msg.nbytes
            self.messages_sent += copies
            self.bytes_sent += nbytes * copies
        delay = self.network.latency(src, host, nbytes) + verdict.extra_delay

        def arrive() -> None:
            self._dispatch(host, handler, msg)

        self.schedule(delay, arrive)
        for i in range(verdict.duplicates):
            self._count("faults.duplicated")
            self.schedule(delay + (i + 1) * max(verdict.dup_spacing, 1e-6), arrive)

    @abstractmethod
    def _dispatch(
        self, host: ServerId, handler: Callable[[Message], None], msg: Message
    ) -> None:
        """Run ``handler(msg)`` on ``host`` with run-to-completion semantics
        (a direct call on the simulator, under the host's lock on threads)."""

    @abstractmethod
    def run_until_complete(self, waitable: Any, limit: Optional[float] = None) -> Any:
        """Drive the runtime until ``waitable`` resolves; return its value."""

    @abstractmethod
    def completion_event(self) -> Any:
        """A one-shot event the coordinator resolves when a traversal ends."""

    def exclusive(self, server_id: ServerId):
        """Context manager serializing external calls into a server's engine
        or coordinator state. A no-op on the single-threaded simulator; the
        per-server lock on the threaded runtime."""
        return nullcontext()

    def shutdown(self) -> None:
        """Release runtime resources (worker threads); no-op by default."""
