"""Real-thread runtime: the same engine generators on OS threads.

Purpose: validate that the engines' behaviour does not depend on the
discrete-event kernel. Every server gets a *server lock* (a per-server GIL):
engine code — message handlers and worker steps between yields — runs under
it, which reproduces the simulator's run-to-completion semantics, while
yielded operations (sleeps, disk time, queue waits) release the lock.
Timings are wall-clock and therefore nondeterministic; parity tests compare
result sets, not times.

Design notes:

* yielded ops are small command tuples interpreted by a per-process
  trampoline thread (``_Op``);
* disk time = the cost model's virtual seconds times ``time_scale``;
* the wire itself lives in :class:`~repro.runtime.base.Runtime`; this module
  supplies its clock (``threading.Timer`` arrivals, one ticker process for
  clock boundaries) and runs each handler under the destination's server
  lock;
* ``shutdown()`` poisons every queue so worker threads exit.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RuntimeUnavailable, SimulationError
from repro.ids import ServerId
from repro.net.message import Message
from repro.net.topology import INFINIBAND_QDR, NetworkModel
from repro.runtime.base import InterferencePolicy, Runtime, ServerContext
from repro.storage.costmodel import GPFS, DiskCostModel, IOCost

_POISON = object()


@dataclass
class _Op:
    """One yielded runtime operation."""

    kind: str  # "sleep" | "disk" | "get" | "wait"
    payload: Any = None


class ThreadEvent:
    """Completion event with a value or an exception."""

    def __init__(self):
        self._event = threading.Event()
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._event.is_set()

    def succeed(self, value: Any = None) -> None:
        self._value = value
        self._event.set()

    def fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise SimulationError("threaded runtime: wait timed out")
        if self._exc is not None:
            raise self._exc
        return self._value


class _ThreadQueue:
    """Thread-safe priority/FIFO queue with a poison-pill shutdown path."""

    def __init__(self, priority: bool):
        self._q: queue.Queue = queue.PriorityQueue() if priority else queue.Queue()
        self._priority = priority
        self._size = 0
        self._lock = threading.Lock()

    def put(self, item: Any) -> None:
        with self._lock:
            self._size += 1
        self._q.put(item)

    def poison(self, n: int) -> None:
        for _ in range(n):
            # Poison sorts after real items in the priority queue.
            self._q.put((float("inf"), 0, _POISON) if self._priority else _POISON)

    def get_blocking(self) -> Any:
        item = self._q.get()
        if item is _POISON or (
            isinstance(item, tuple) and len(item) == 3 and item[2] is _POISON
        ):
            return _POISON
        with self._lock:
            self._size -= 1
        return item

    def __len__(self) -> int:
        return max(0, self._size)


class ThreadServerContext(ServerContext):
    """One server's view of the threaded runtime."""

    def __init__(self, runtime: "ThreadRuntime", server_id: ServerId):
        self._rt = runtime
        self.server_id = server_id
        self.nservers = runtime.nservers

    def now(self) -> float:
        return self._rt.now()

    def sleep(self, dt: float) -> _Op:
        return _Op("sleep", dt)

    def spawn(self, gen, name: str = "proc"):
        return self._rt._spawn(self.server_id, gen, name)

    def queue(self, priority: bool = False, name: str = "q") -> _ThreadQueue:
        q = _ThreadQueue(priority)
        self._rt._queues.append(q)
        return q

    def queue_put(self, q: _ThreadQueue, item: Any) -> None:
        q.put(item)

    def queue_get(self, q: _ThreadQueue) -> _Op:
        return _Op("get", q)

    def queue_len(self, q: _ThreadQueue) -> int:
        return len(q)

    def wait(self, event: ThreadEvent) -> _Op:
        return _Op("wait", event)

    def disk(self, cost: IOCost, level: Optional[int] = None, accesses: int = 1) -> _Op:
        return _Op("disk", (self.server_id, cost, level, accesses))

    def cpu(self, dt: float) -> _Op:
        return _Op("sleep", dt)


class ThreadRuntime(Runtime):
    """Thread-per-worker runtime with per-server engine locks."""

    def __init__(
        self,
        nservers: int,
        *,
        network: NetworkModel = INFINIBAND_QDR,
        disk_model: DiskCostModel = GPFS,
        disk_capacity: int = 1,
        interference: Optional[InterferencePolicy] = None,
        time_scale: float = 0.02,
    ):
        if nservers < 1:
            raise SimulationError(f"nservers must be >= 1, got {nservers}")
        self.nservers = nservers
        self.network = network
        self.disk_model = disk_model
        self.interference = interference
        self.time_scale = time_scale
        self.epoch = time.monotonic()
        self._locks = [threading.RLock() for _ in range(nservers)]
        self._disks = [threading.Semaphore(disk_capacity) for _ in range(nservers)]
        self._queues: list[_ThreadQueue] = []
        self._threads: list[threading.Thread] = []
        self._shutdown = threading.Event()
        self._count_lock = threading.Lock()
        self._intf_lock = threading.Lock()
        self._proc_ids = itertools.count()
        self._init_wire()

    # -- wiring ---------------------------------------------------------------

    def context(self, server_id: ServerId) -> ThreadServerContext:
        if not (0 <= server_id < self.nservers):
            raise SimulationError(f"server id {server_id} out of range")
        return ThreadServerContext(self, server_id)

    # -- process trampoline --------------------------------------------------------

    def _spawn(self, server_id: ServerId, gen, name: str) -> threading.Thread:
        thread = threading.Thread(
            target=self._trampoline,
            args=(server_id, gen),
            name=f"s{server_id}:{name}:{next(self._proc_ids)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()
        return thread

    def _trampoline(self, server_id: ServerId, gen) -> None:
        lock = self._locks[server_id]
        value: Any = None
        exc: Optional[BaseException] = None
        while not self._shutdown.is_set():
            with lock:
                try:
                    if exc is not None:
                        pending, exc = exc, None
                        op = gen.throw(pending)
                    else:
                        op = gen.send(value)
                except StopIteration:
                    return
            value = None
            try:
                value = self._perform(op)
            except Exception as err:
                # Mirror the simulator: a failed waitable (e.g. a child
                # traversal's completion event) is thrown into the process.
                exc = err
                continue
            if value is _POISON:
                return

    def _perform(self, op: _Op) -> Any:
        if op.kind == "sleep":
            if op.payload > 0:
                time.sleep(op.payload * self.time_scale)
            return None
        if op.kind == "get":
            return op.payload.get_blocking()
        if op.kind == "wait":
            # Bounded like run_until_complete's default so a lost child can
            # never hang the orchestrator thread; the timeout error is thrown
            # into the waiting generator by the trampoline.
            return op.payload.wait(60.0)
        if op.kind == "disk":
            server_id, cost, level, accesses = op.payload
            service = self.disk_model.time(cost)
            if self.interference is not None:
                with self._intf_lock:
                    for _ in range(max(1, accesses)):
                        service += self.interference.delay(server_id, level)
            with self._disks[server_id]:
                if service > 0:
                    time.sleep(service * self.time_scale)
            return None
        raise RuntimeUnavailable(f"threaded runtime cannot perform op {op.kind!r}")

    # -- clock and dispatch ---------------------------------------------------------

    def now(self) -> float:
        return (time.monotonic() - self.epoch) / self.time_scale

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if self._shutdown.is_set():
            return
        timer = threading.Timer(max(0.0, delay) * self.time_scale, fn)
        timer.daemon = True
        timer.start()

    def on_clock_boundary(self, fn: Callable[[float], float], threshold: float) -> None:
        # One ticker process on the trampoline, so it stops with shutdown().
        self._spawn(
            self.coordinator_server, self._ticker(fn, threshold), "clock-boundary"
        )

    def _ticker(self, fn: Callable[[float], float], threshold: float):
        while threshold != float("inf"):
            yield _Op("sleep", threshold - self.now())
            now = self.now()
            if now >= threshold:
                threshold = fn(now)

    def _dispatch(self, host: ServerId, handler, msg: Message) -> None:
        with self._locks[host]:
            handler(msg)

    # -- crash model -------------------------------------------------------------------

    def crash_server(self, server: ServerId) -> None:
        with self._locks[server]:
            super().crash_server(server)

    def recover_server(self, server: ServerId) -> None:
        with self._locks[server]:
            super().recover_server(server)

    # -- driving -----------------------------------------------------------------------

    def completion_event(self) -> ThreadEvent:
        return ThreadEvent()

    def exclusive(self, server_id: ServerId):
        return self._locks[server_id]

    def run_until_complete(self, waitable: ThreadEvent, limit: Optional[float] = None):
        timeout = 60.0 if limit is None else limit * self.time_scale
        return waitable.wait(timeout)

    def shutdown(self) -> None:
        """Poison every queue so worker threads exit; idempotent."""
        self._shutdown.set()
        for q in self._queues:
            q.poison(8)
