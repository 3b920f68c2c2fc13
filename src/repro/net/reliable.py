"""Reliable at-least-once transport over the unreliable wire.

The raw wire delivers every message exactly once; with a fault plan
installed it drops, duplicates, delays, and reorders — and crashed servers
eat traffic silently. :class:`ReliableChannel` restores usable semantics the way
TCP does over IP:

* every payload is wrapped in a :class:`DataFrame` with a globally unique
  ``seq`` and retransmitted on a seeded exponential backoff (+/- jitter)
  until the receiver's :class:`AckFrame` arrives or :data:`MAX_RETRIES` is
  exhausted;
* a bounded per-link in-flight :data:`WINDOW` throttles senders, so a dead
  receiver cannot absorb unbounded retransmission state;
* the receiver deduplicates on ``(travel_id, attempt, seq)`` before handing
  the payload to the engine/coordinator handler — so the layers above see
  *effectively-once* delivery and whole-traversal restarts become the last
  resort (paper §IV-C) instead of the answer to a single lost RPC;
* retry exhaustion invokes ``on_delivery_failure`` — the missed-ack signal
  the coordinator uses to suspect a server crash and trigger fine-grained
  replay of only the executions placed on it.

Installed via :meth:`repro.runtime.simulated.SimRuntime.install_channel`, which
re-points every registered handler at the channel's frame handler; engines
and the coordinator are untouched. All channel bookkeeping is out-of-band
(costs no simulated time); only frames on the wire pay network latency.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.ids import COORDINATOR, ServerId, TravelId
from repro.net.message import Message
from repro.sim.rng import derive_seed, uniform_stream

_FRAME_OVERHEAD = 16  # seq + framing on top of the payload's wire size

#: ack/retry policy, in virtual seconds: ``ACK_TIMEOUT`` before the first
#: retransmission, ``MAX_RETRIES`` retransmissions before a delivery failure,
#: and at most ``WINDOW`` unacked frames per (src, dst) link
ACK_TIMEOUT = 0.002
MAX_RETRIES = 8
WINDOW = 32

#: retransmission timer: ``ACK_TIMEOUT * RETRY_BACKOFF**(attempts-1)``, scaled
#: by a +/- RETRY_JITTER fraction drawn from the seeded stream
RETRY_BACKOFF = 2.0
RETRY_JITTER = 0.25


@dataclass
class DataFrame(Message):
    """One transmission attempt of ``payload`` from ``src`` to ``dst``."""

    seq: int = 0
    src: ServerId = -1
    dst: ServerId = -1
    payload: Optional[Message] = None

    def _wire_size(self) -> int:
        return _FRAME_OVERHEAD + (self.payload.nbytes if self.payload else 0)


@dataclass
class AckFrame(Message):
    """Receiver's acknowledgement of one ``seq``."""

    seq: int = 0

    def _wire_size(self) -> int:
        return _FRAME_OVERHEAD


class _InFlight:
    """Sender-side state of one unacked payload."""

    __slots__ = ("seq", "src", "dst", "payload", "frame", "attempts", "link")

    def __init__(
        self, seq: int, src: ServerId, dst: ServerId, payload: Message,
        frame: DataFrame,
    ):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.payload = payload
        self.frame = frame
        self.attempts = 0
        self.link: tuple[ServerId, ServerId] = (src, dst)


def _discard(n: float = 1) -> None:
    """The counter handle of a channel built without a metrics registry."""


class ReliableChannel:
    """At-least-once sender/receiver state for one cluster."""

    def __init__(
        self,
        runtime,
        *,
        metrics=None,
        trace=None,
        seed: int = 0,
    ):
        self.runtime = runtime
        self.metrics = metrics
        self.trace = trace
        #: one retransmit-jitter uniform per transmission, in draw order
        self._uniforms = uniform_stream(derive_seed(seed, "net.reliable"))
        self._seq = itertools.count(1)
        self._inflight: dict[int, _InFlight] = {}
        self._queued: dict[tuple[ServerId, ServerId], deque] = {}
        self._link_inflight: dict[tuple[ServerId, ServerId], int] = {}
        #: receiver address -> travel id -> {(attempt, seq), ...}
        self._seen: dict[ServerId, dict[TravelId, set]] = {}
        #: receiver address (server id or COORDINATOR) -> the handler the
        #: channel displaced
        self._upper: dict[ServerId, Callable[[Message], None]] = {}
        #: invoked as ``fn(src, dst, payload)`` when retries are exhausted
        self.on_delivery_failure: Optional[Callable[..., None]] = None
        #: the live coordinator incarnation; bumped by the recovery
        #: supervisor so frames from a dead epoch are never acked (the
        #: sender retries until its own stale attempt quiesces)
        self.coordinator_epoch: int = 0
        #: pre-bound ``net.sends{type}`` handles, one per payload class
        self._sends: dict[type, Callable[..., None]] = {}
        self._acks = self._counter("net.acks")

    # -- wiring (called by SimRuntime.install_channel) ----------------------

    def attach(self, runtime, handlers) -> None:
        self.runtime = runtime
        self._upper = dict(handlers)

    def frame_handler(self, addr: ServerId):
        def handle(msg: Message) -> None:
            cls = type(msg)
            if cls is AckFrame:
                self._on_ack(msg)
            elif cls is DataFrame:
                self._on_data(addr, msg)
            else:  # raw message injected below the channel (tests)
                self._upper[addr](msg)

        return handle

    # -- sending ------------------------------------------------------------

    def send(self, src: ServerId, dst: ServerId, payload: Message) -> None:
        """Queue one payload for reliable delivery (``dst`` may be
        :data:`~repro.ids.COORDINATOR`)."""
        seq = next(self._seq)
        frame = DataFrame(payload.travel_id, seq=seq, src=src, dst=dst, payload=payload)
        entry = _InFlight(seq, src, dst, payload, frame)
        cls = type(payload)
        sends = self._sends.get(cls)
        if sends is None:
            sends = self._sends[cls] = self._counter("net.sends", type=cls.__name__)
        sends()
        link = entry.link
        if self._link_inflight.get(link, 0) >= WINDOW:
            self._queued.setdefault(link, deque()).append(entry)
            self._count("net.window_stalls")
            return
        self._admit(entry)

    def _admit(self, entry: _InFlight) -> None:
        link = entry.link
        self._inflight[entry.seq] = entry
        self._link_inflight[link] = self._link_inflight.get(link, 0) + 1
        self._transmit(entry)

    def _transmit(self, entry: _InFlight) -> None:
        entry.attempts += 1
        self.runtime.raw_deliver(entry.src, entry.dst, entry.frame)
        timeout = ACK_TIMEOUT * (RETRY_BACKOFF ** (entry.attempts - 1))
        u = next(self._uniforms)
        timeout *= 1.0 + RETRY_JITTER * (2.0 * u - 1.0)
        self.runtime.schedule(timeout, self._on_timeout, entry.seq, entry.attempts)

    def _on_timeout(self, seq: int, expected_attempts: int) -> None:
        entry = self._inflight.get(seq)
        if entry is None or entry.attempts != expected_attempts:
            return  # acked, lost to a crash, or superseded by a retry
        if entry.attempts <= MAX_RETRIES:
            self._count("net.retries", type=type(entry.payload).__name__)
            self._trace_event("net.retry", entry)
            self._transmit(entry)
            return
        self._release(entry)
        self._count("net.delivery_failed", dst=entry.dst)
        self._trace_event("net.delivery_failed", entry)
        if self.on_delivery_failure is not None:
            self.on_delivery_failure(entry.src, entry.dst, entry.payload)

    def _release(self, entry: _InFlight) -> None:
        """Remove from in-flight and pump the freed window slot."""
        self._inflight.pop(entry.seq, None)
        link = entry.link
        self._link_inflight[link] = max(0, self._link_inflight.get(link, 1) - 1)
        q = self._queued.get(link)
        while q and self._link_inflight[link] < WINDOW:
            self._admit(q.popleft())

    # -- receiving ----------------------------------------------------------

    def _on_ack(self, ack: AckFrame) -> None:
        entry = self._inflight.get(ack.seq)
        if entry is None:
            return  # duplicate ack, or sender state lost to a crash
        self._acks()
        self._release(entry)

    def _on_data(self, addr: ServerId, frame: DataFrame) -> None:
        payload = frame.payload
        # Always (re-)ack: the previous ack may itself have been lost.
        ack_src = self.runtime.coordinator_server if addr == COORDINATOR else addr
        self.runtime.raw_deliver(ack_src, frame.src, AckFrame(frame.travel_id, seq=frame.seq))
        if addr == COORDINATOR:
            # Epoch fence below the coordinator: a frame stamped by a dead
            # incarnation is acked at the transport level (the RST-like ack
            # frees the sender's bounded window — stale executions keep
            # streaming reports long after recovery, and never-acked frames
            # would head-of-line-block fresh epoch traffic) but is never
            # delivered, and never enters the new epoch's dedup window: the
            # receiver key is (epoch, attempt, seq), so a dead epoch can
            # neither suppress nor masquerade as post-recovery traffic.
            msg_epoch = getattr(payload, "epoch", 0)
            if msg_epoch != self.coordinator_epoch:
                self._count(
                    "coord.fenced", layer="net", type=type(payload).__name__
                )
                return
        key = (
            getattr(payload, "epoch", 0),
            getattr(payload, "attempt", 0),
            frame.seq,
        )
        per_travel = self._seen.get(addr)
        if per_travel is None:
            per_travel = self._seen[addr] = {}
        seen = per_travel.get(frame.travel_id)
        if seen is None:
            seen = per_travel[frame.travel_id] = set()
        if key in seen:
            self._count("net.dup_suppressed", type=type(payload).__name__)
            if self.trace is not None:
                self.trace.record(
                    "net.dup_drop",
                    travel_id=frame.travel_id,
                    exec_id=getattr(payload, "exec_id", None),
                    server_id=addr,
                    attempt=getattr(payload, "attempt", 0),
                    seq=frame.seq,
                    type=type(payload).__name__,
                )
            return
        seen.add(key)
        self._upper[addr](payload)

    # -- lifecycle ----------------------------------------------------------

    def on_server_crash(self, server: ServerId) -> None:
        """A crashed server loses its transport bookkeeping: unacked sends
        it originated stop retrying, and its receiver dedup set is cleared
        (retransmissions after recovery are re-delivered; the engines'
        idempotent replay handling absorbs them)."""
        self._seen.pop(server, None)
        lost = [e for e in self._inflight.values() if e.src == server]
        for entry in lost:
            self._inflight.pop(entry.seq, None)
            link = entry.link
            self._link_inflight[link] = max(0, self._link_inflight.get(link, 1) - 1)
        if lost:
            self._count("net.inflight_lost", len(lost), server=server)
        for link in [l for l in self._queued if l[0] == server]:
            del self._queued[link]

    def on_coordinator_crash(self) -> None:
        """The coordinator actor died with its host: clear the COORDINATOR
        receiver dedup window and reset every coordinator-destined
        connection. The next epoch deduplicates on its own
        ``(epoch, attempt, seq)`` keys, so pre-crash sequence numbers can
        never suppress (or be acked as) post-recovery traffic.

        Dropping unacked coordinator-destined frames models the connection
        reset a real process death causes — while the host is down no ack
        can flow, so in-flight and queued frames would otherwise burn their
        whole retry budget against a dead link and hold the bounded
        per-link window hostage until recovery. The recovery supervisor
        calls this again at recovery time to clear frames senders queued
        during the down window (post-recovery, stale frames that do reach
        the fence are acked-but-dropped, so they cannot re-clog it)."""
        self._seen.pop(COORDINATOR, None)
        stale = [e for e in self._inflight.values() if e.dst == COORDINATOR]
        for entry in stale:
            self._inflight.pop(entry.seq, None)
            link = entry.link
            self._link_inflight[link] = max(0, self._link_inflight.get(link, 1) - 1)
        if stale:
            self._count("net.inflight_lost", len(stale), server=COORDINATOR)
        for link in [l for l in self._queued if l[1] == COORDINATOR]:
            del self._queued[link]

    def forget_travel(self, travel_id: TravelId) -> None:
        """Prune receiver dedup state once a traversal completes."""
        for per_travel in self._seen.values():
            per_travel.pop(travel_id, None)

    # -- introspection -------------------------------------------------------

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def _count(self, name: str, n: float = 1, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n, **labels)

    def _counter(self, name: str, **labels: Any) -> Callable[..., None]:
        """A pre-bound handle for a per-frame counter (see
        :meth:`~repro.obs.metrics.MetricsRegistry.counter`)."""
        if self.metrics is None:
            return _discard
        return self.metrics.counter(name, **labels)

    def _trace_event(self, kind: str, entry: _InFlight) -> None:
        if self.trace is None:
            return
        self.trace.record(
            kind,
            travel_id=entry.payload.travel_id,
            exec_id=getattr(entry.payload, "exec_id", None),
            server_id=entry.dst,
            attempt=getattr(entry.payload, "attempt", 0),
            seq=entry.seq,
            attempts=entry.attempts,
            src=entry.src,
            type=type(entry.payload).__name__,
        )
