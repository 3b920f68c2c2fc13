"""Channel-level tests for the at-least-once reliable transport."""

import numpy as np
import pytest

from repro.ids import COORDINATOR
from repro.net.message import ExecStatus, TraverseRequest
from repro.net.reliable import (
    ACK_TIMEOUT,
    MAX_RETRIES,
    RETRY_BACKOFF,
    RETRY_JITTER,
    WINDOW,
    AckFrame,
    DataFrame,
    ReliableChannel,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.simulated import SimRuntime
from repro.sim.rng import derive_seed
from tests.conftest import DropWhen


def make_runtime(nservers=2):
    runtime = SimRuntime(nservers)
    inboxes = {s: [] for s in range(nservers)}
    coord_inbox = []
    for s in range(nservers):
        runtime.register_handler(s, lambda m, s=s: inboxes[s].append(m))
    runtime.register_handler(COORDINATOR, coord_inbox.append)
    return runtime, inboxes, coord_inbox


def install(runtime):
    metrics = MetricsRegistry()
    channel = ReliableChannel(runtime, metrics=metrics, seed=1)
    runtime.install_channel(channel)
    return channel, metrics


def drain(runtime, until=1.0):
    """Run the simulator clock forward so retries/acks can fire."""
    ev = runtime.sim.event("drain")
    runtime.sim.schedule(until, ev.succeed)
    runtime.sim.run_until(ev)


def payload(travel_id=1):
    return ExecStatus(travel_id, exec_id=1, server=0, created=(), results_sent=0)


def test_clean_wire_delivers_once_with_ack():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    runtime.deliver(0, 1, payload())
    drain(runtime)
    assert len(inboxes[1]) == 1
    assert isinstance(inboxes[1][0], ExecStatus)
    counters = metrics.snapshot()["counters"]
    assert counters["net.acks"] == 1
    assert "net.retries{type=ExecStatus}" not in counters
    assert channel.inflight_count == 0


def test_dropped_frame_is_retried_until_delivered():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    state = {"dropped": 0}

    def drop_first_two(src, dst, msg):
        if isinstance(msg, DataFrame) and state["dropped"] < 2:
            state["dropped"] += 1
            return True
        return False

    runtime.fault_injector = DropWhen(drop_first_two)
    runtime.deliver(0, 1, payload())
    drain(runtime)
    assert len(inboxes[1]) == 1  # delivered despite two wire losses
    counters = metrics.snapshot()["counters"]
    assert counters["net.retries{type=ExecStatus}"] == 2
    assert counters["net.acks"] == 1


def test_lost_ack_causes_retransmit_but_dedup_suppresses():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    state = {"dropped": 0}

    def drop_first_ack(src, dst, msg):
        if isinstance(msg, AckFrame) and state["dropped"] == 0:
            state["dropped"] += 1
            return True
        return False

    runtime.fault_injector = DropWhen(drop_first_ack)
    runtime.deliver(0, 1, payload())
    drain(runtime)
    # The receiver saw the frame twice but the engine handler only once.
    assert len(inboxes[1]) == 1
    counters = metrics.snapshot()["counters"]
    assert counters["net.dup_suppressed{type=ExecStatus}"] == 1


def test_retry_exhaustion_reports_delivery_failure():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    failures = []
    channel.on_delivery_failure = lambda src, dst, p: failures.append((src, dst, p))
    runtime.fault_injector = DropWhen(lambda src, dst, msg: isinstance(msg, DataFrame) and dst == 1)
    msg = payload()
    runtime.deliver(0, 1, msg)
    runtime.sim.run()  # every backoff, however long, runs out
    assert failures == [(0, 1, msg)]
    assert inboxes[1] == []
    counters = metrics.snapshot()["counters"]
    assert counters["net.delivery_failed{dst=1}"] == 1
    assert counters["net.retries{type=ExecStatus}"] == MAX_RETRIES
    assert channel.inflight_count == 0


def test_retransmit_delays_follow_the_scalar_jitter_stream():
    """Every retransmit timer is ``ACK_TIMEOUT * RETRY_BACKOFF**(k-1)``
    scaled by ``1 + RETRY_JITTER*(2u-1)``, each ``u`` the next scalar
    ``uniform()`` of the channel's named stream, in transmission order, past
    the channel's first block of draws; and the timer sits on the heap as
    the channel's bound method, not a closure."""
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    wire: list[float] = []  # virtual time of every frame offered to the wire

    def drop_data(src, dst, msg):
        if isinstance(msg, DataFrame):
            wire.append(runtime.now())
            return True
        return False

    failed: list[float] = []
    channel.on_delivery_failure = lambda src, dst, p: failed.append(runtime.now())
    runtime.fault_injector = DropWhen(drop_data)
    uniforms = np.random.default_rng(derive_seed(1, "net.reliable"))
    want_wire: list[float] = []
    want_failed: list[float] = []
    for n in range(30):  # 30 payloads x 9 transmissions: past a 256-draw block
        runtime.deliver(0, 1, payload(travel_id=n + 1))
        (timer,) = runtime.sim._heap  # the first transmission's timer
        fn = timer[2]
        assert fn.__self__ is channel and fn.__func__ is ReliableChannel._on_timeout
        t = runtime.now()
        for k in range(1, MAX_RETRIES + 2):
            want_wire.append(t)
            u = float(uniforms.uniform())
            delay = ACK_TIMEOUT * RETRY_BACKOFF ** (k - 1)
            delay *= 1.0 + RETRY_JITTER * (2.0 * u - 1.0)
            t = t + delay
        want_failed.append(t)
        runtime.sim.run()
    assert wire == want_wire
    assert failed == want_failed
    assert inboxes[1] == []
    counters = metrics.snapshot()["counters"]
    assert counters["net.retries{type=ExecStatus}"] == 30 * MAX_RETRIES


def test_window_bounds_inflight_and_drains_in_order():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    msgs = [
        TraverseRequest(1, level=i, entries={}, exec_id=i, from_server=0)
        for i in range(WINDOW + 3)
    ]
    for m in msgs:
        runtime.deliver(0, 1, m)
    assert channel.inflight_count == WINDOW  # the rest queue behind the window
    drain(runtime)
    assert [m.level for m in inboxes[1]] == list(range(WINDOW + 3))
    counters = metrics.snapshot()["counters"]
    assert counters["net.window_stalls"] == 3


def test_coordinator_destination_roundtrip():
    runtime, _, coord_inbox = make_runtime()
    channel, metrics = install(runtime)
    runtime.deliver(1, COORDINATOR, payload())
    drain(runtime)
    assert len(coord_inbox) == 1
    assert metrics.snapshot()["counters"]["net.acks"] == 1


def test_sender_crash_abandons_inflight_frames():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    runtime.fault_injector = DropWhen(lambda src, dst, msg: isinstance(msg, DataFrame))
    runtime.deliver(0, 1, payload())
    assert channel.inflight_count == 1
    runtime.crash_server(0)
    assert channel.inflight_count == 0  # crash wiped the sender's bookkeeping
    drain(runtime)
    assert inboxes[1] == []  # and no retry ever delivered it
    counters = metrics.snapshot()["counters"]
    assert counters["net.inflight_lost{server=0}"] == 1


def test_receiver_crash_clears_dedup_state():
    runtime, inboxes, _ = make_runtime()
    channel, metrics = install(runtime)
    runtime.deliver(0, 1, payload())
    drain(runtime)
    assert len(inboxes[1]) == 1
    runtime.crash_server(1)
    runtime.recover_server(1)
    # Same (travel, attempt, seq) arriving again post-crash is re-delivered:
    # the crashed receiver forgot it ever saw it, by design.
    runtime.deliver(0, 1, payload())
    drain(runtime, until=2.0)
    assert len(inboxes[1]) == 2


def test_forget_travel_prunes_dedup_state():
    runtime, inboxes, _ = make_runtime()
    channel, _ = install(runtime)
    runtime.deliver(0, 1, payload(travel_id=42))
    drain(runtime)
    assert channel._seen[1][42]
    channel.forget_travel(42)
    assert 42 not in channel._seen[1]


def test_double_install_rejected():
    from repro.errors import SimulationError

    runtime, _, _ = make_runtime()
    install(runtime)
    with pytest.raises(SimulationError, match="already installed"):
        install(runtime)


# -- coordinator epochs (crash recovery, DESIGN.md §13) -------------------------


def test_stale_epoch_frame_is_acked_but_never_delivered():
    """A frame stamped by a dead coordinator incarnation is fenced: acked at
    the transport level (the RST-like ack frees the sender's window so stale
    streams cannot head-of-line-block fresh epoch traffic) but never handed
    to the coordinator."""
    runtime, _, coord_inbox = make_runtime()
    channel, metrics = install(runtime)
    channel.coordinator_epoch = 1  # the coordinator recovered into epoch 1
    stale = payload()
    stale.epoch = 0
    runtime.deliver(0, COORDINATOR, stale)
    drain(runtime, until=0.05)
    assert coord_inbox == []
    counters = metrics.snapshot()["counters"]
    assert counters.get("coord.fenced{layer=net,type=ExecStatus}", 0) == 1
    # exactly one send, one ack: no retries, and the window slot is free
    assert counters["net.acks"] == 1
    assert not any(k.startswith("net.retries") for k in counters)
    assert channel.inflight_count == 0


def test_current_epoch_frame_passes_the_fence():
    runtime, _, coord_inbox = make_runtime()
    channel, metrics = install(runtime)
    channel.coordinator_epoch = 2
    msg = payload()
    msg.epoch = 2
    runtime.deliver(0, COORDINATOR, msg)
    drain(runtime)
    assert len(coord_inbox) == 1
    assert metrics.snapshot()["counters"]["net.acks"] == 1


def test_receiver_dedup_key_is_epoch_scoped():
    """The coordinator-side dedup key is (epoch, attempt, seq): a post-
    recovery frame reusing a pre-crash sequence number must not be
    suppressed by the dead epoch's window."""
    runtime, _, coord_inbox = make_runtime()
    channel, metrics = install(runtime)
    msg0 = payload()
    msg0.epoch = 0
    channel._on_data(COORDINATOR, DataFrame(1, seq=5, src=0, dst=COORDINATOR, payload=msg0))
    assert len(coord_inbox) == 1
    # same epoch + same seq → duplicate, suppressed
    channel._on_data(COORDINATOR, DataFrame(1, seq=5, src=0, dst=COORDINATOR, payload=msg0))
    assert len(coord_inbox) == 1
    assert metrics.snapshot()["counters"]["net.dup_suppressed{type=ExecStatus}"] == 1
    # crash + recovery: next epoch, same seq → delivered (fresh key space)
    channel.on_coordinator_crash()
    channel.coordinator_epoch = 1
    msg1 = payload()
    msg1.epoch = 1
    channel._on_data(COORDINATOR, DataFrame(1, seq=5, src=0, dst=COORDINATOR, payload=msg1))
    assert len(coord_inbox) == 2


def test_coordinator_crash_drops_inflight_and_queued_frames():
    """While the coordinator host is down no ack can flow; the connection
    reset drops both in-flight and window-queued frames toward it instead of
    letting them burn their retry budget against a dead link."""
    runtime, _, coord_inbox = make_runtime()
    channel, metrics = install(runtime)
    runtime.crash_server(runtime.coordinator_server)
    for _ in range(WINDOW + 3):
        runtime.deliver(1, COORDINATOR, payload())
    assert coord_inbox == []
    assert channel.inflight_count >= 1
    assert channel._queued
    channel.on_coordinator_crash()
    assert channel.inflight_count == 0
    assert not channel._queued
    counters = metrics.snapshot()["counters"]
    assert counters["net.inflight_lost{server=-1}"] >= 1
