"""Discrete-event simulation kernel.

A minimal, dependency-free process-based simulator in the style of SimPy:

* :class:`Simulator` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` drives a generator; the generator ``yield``\\ s events
  (or :class:`Timeout`) and is resumed with the event's value when it
  triggers.

The kernel is deterministic: events scheduled for the same instant fire in
schedule order (a monotonically increasing sequence number breaks ties), so
every simulation run with the same seed reproduces the same trace.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError

# A simulation process body: a generator that yields Events.
ProcessBody = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers it
    exactly once, after which all registered callbacks run at the current
    simulation time. Processes wait on events by ``yield``\\ ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.name = name

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def failed(self) -> bool:
        return self.triggered and self._exc is not None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        self.sim._queue_callbacks(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on it.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self.triggered = True
        self._exc = exc
        self.sim._queue_callbacks(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            # Deliver asynchronously to preserve run-to-completion semantics.
            self.sim.schedule(0.0, fn, self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim, name="timeout")
        self.delay = delay
        sim.schedule(delay, self.succeed, value)


class Process(Event):
    """Drives a generator as a simulation process.

    The process is itself an event that triggers with the generator's return
    value when it finishes, so processes can wait on other processes.
    """

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "proc"):
        super().__init__(sim, name=name)
        if not hasattr(body, "send"):
            raise SimulationError(
                f"Process body must be a generator, got {type(body).__name__}"
            )
        self._body = body
        # Kick off on the next scheduling round at the current time.
        sim.schedule(0.0, self._step, None, None)

    def _resume(self, ev: Event) -> None:
        self._step(ev._value, ev._exc)  # a failed event's value is None

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._body.throw(exc)
            else:
                target = self._body.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as err:
            self._fail_noting_orphan(err)
            return
        if not isinstance(target, Event):
            self._body.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}; "
                    "processes must yield Event instances"
                )
            )
            return
        target.add_callback(self._resume)

    def _fail_noting_orphan(self, exc: BaseException) -> None:
        """Fail the process; if nothing is waiting on it, record the crash so
        the simulator can surface it instead of hanging silently (a dead
        worker loop would otherwise just stop consuming its queue)."""
        if not self.callbacks:
            self.sim.orphan_failures.append((self.name, exc))
        self.fail(exc)


class Simulator:
    """Owns the virtual clock, the event heap, and process creation.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._running = False
        #: (process name, exception) of processes that crashed with no waiter
        self.orphan_failures: list[tuple[str, BaseException]] = []
        # boundary watcher: fn(now) runs when the clock first reaches the
        # threshold and returns the next threshold (inf = stop). Costs one
        # float compare per processed event — the telemetry plane uses it to
        # close rollup windows without any per-record work.
        self._boundary: float = float("inf")
        self._on_boundary: Optional[Callable[[float], float]] = None

    def set_boundary_watcher(
        self, fn: Optional[Callable[[float], float]], threshold: float = float("inf")
    ) -> None:
        """Install (or clear, with ``None``) the clock-boundary hook.

        ``fn(now)`` fires *before* the callback scheduled at ``now`` runs, so
        everything recorded strictly earlier is already settled; it returns
        the next threshold to watch for.
        """
        self._on_boundary = fn
        self._boundary = float("inf") if fn is None else threshold

    def _check_boundary(self, t: float) -> None:
        while t >= self._boundary:
            self._boundary = self._on_boundary(t)

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` virtual seconds. Every heap push
        goes through here: the heap entry carries the arguments, so no caller
        allocates a closure per event."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _queue_callbacks(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            self.schedule(0.0, cb, event)

    # -- factories -----------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, body: ProcessBody, name: str = "proc") -> Process:
        return Process(self, body, name)

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 0) -> float:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the run stopped. ``max_events`` of 0
        means unlimited; it exists as a runaway guard for tests.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        try:
            while self._heap:
                t, _, fn, args = self._heap[0]
                if until is not None and t > until:
                    self.now = until
                    break
                heapq.heappop(self._heap)
                if t < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event heap time went backwards")
                self.now = t
                if t >= self._boundary:
                    self._check_boundary(t)
                fn(*args)
                processed += 1
                if max_events and processed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}"
                    )
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises :class:`SimulationError` if the heap drains first (deadlock)
        or the optional time ``limit`` passes.
        """
        while not event.triggered:
            if self.orphan_failures:
                name, exc = self.orphan_failures[0]
                raise SimulationError(
                    f"process {name!r} crashed with no waiter: {exc!r}"
                ) from exc
            if not self._heap:
                raise SimulationError(
                    f"deadlock: event {event.name!r} can never trigger"
                )
            t, _, fn, args = heapq.heappop(self._heap)
            if limit is not None and t > limit:
                heapq.heappush(self._heap, (t, 0, fn, args))
                raise SimulationError(
                    f"time limit {limit} passed before {event.name!r} triggered"
                )
            self.now = t
            if t >= self._boundary:
                self._check_boundary(t)
            fn(*args)
        return event.value

    def peek(self) -> float:
        """Time of the next scheduled callback, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")
