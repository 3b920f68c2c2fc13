"""Tests for the runtime: contexts, delivery, disks, interference, and the
wire/clock contract."""

import pytest

from repro.errors import SimulationError
from repro.faults.inject import CLEAN, FaultDecision
from repro.ids import COORDINATOR
from repro.net.message import Message, TraverseRequest
from repro.net.topology import NetworkModel
from repro.obs.metrics import MetricsRegistry
from repro.runtime.simulated import SimRuntime
from repro.storage.costmodel import DiskCostModel, IOCost
from tests.conftest import DropWhen


def make_runtime(n=2, **kwargs) -> SimRuntime:
    rt = SimRuntime(n, **kwargs)
    rt.coordinator_server = 0
    return rt


def test_context_validation():
    rt = make_runtime(2)
    with pytest.raises(SimulationError):
        rt.context(5)
    ctx = rt.context(1)
    assert ctx.server_id == 1 and ctx.nservers == 2


def test_message_delivery_with_latency():
    rt = make_runtime(2, network=NetworkModel(base_latency=1e-3, bandwidth=1e9))
    received = []
    rt.register_handler(1, lambda msg: received.append((rt.sim.now, msg)))
    ctx = rt.context(0)
    msg = TraverseRequest(1, level=0, entries={}, exec_id=1, from_server=0)
    ctx.send(1, msg)
    assert received == []  # not synchronous
    rt.sim.run()
    assert len(received) == 1
    assert received[0][0] >= 1e-3
    assert rt.messages_sent == 1 and rt.bytes_sent == msg.nbytes


def test_delivery_to_unregistered_server_raises():
    rt = make_runtime(2)
    with pytest.raises(SimulationError):
        rt.deliver(0, 1, Message(1))


def test_coordinator_delivery():
    rt = make_runtime(2)
    received = []
    rt.register_handler(COORDINATOR, lambda msg: received.append(msg))
    rt.context(1).send_coordinator(Message(7))
    rt.sim.run()
    assert len(received) == 1 and received[0].travel_id == 7


def test_coordinator_unregistered_raises():
    rt = make_runtime(1)
    with pytest.raises(SimulationError):
        rt.deliver(0, COORDINATOR, Message(1))


def test_dropping_injector_swallows_messages():
    rt = make_runtime(2)
    received = []
    rt.register_handler(1, lambda msg: received.append(msg))
    rt.fault_injector = DropWhen(lambda src, dst, msg: dst == 1)
    rt.context(0).send(1, Message(1))
    rt.sim.run()
    assert received == []
    assert rt.messages_sent == 0


def test_disk_charges_model_time():
    model = DiskCostModel(seek_time=1e-3, block_time=1e-4)
    rt = make_runtime(1, disk_model=model)
    ctx = rt.context(0)
    def proc(ctx):
        yield ctx.disk(IOCost(seeks=1, blocks=2))
    p = rt.sim.process(proc(ctx))
    rt.sim.run()
    assert rt.sim.now == pytest.approx(1e-3 + 2e-4)
    assert not p.failed


def test_disk_capacity_serializes():
    model = DiskCostModel(seek_time=1e-3, block_time=0.0)
    rt = make_runtime(1, disk_model=model, disk_capacity=1)
    ctx = rt.context(0)
    finish = []
    def proc(ctx):
        yield ctx.disk(IOCost(seeks=1))
        finish.append(rt.sim.now)
    rt.sim.process(proc(ctx))
    rt.sim.process(proc(ctx))
    rt.sim.run()
    assert finish == [pytest.approx(1e-3), pytest.approx(2e-3)]


def test_disk_capacity_two_overlaps():
    model = DiskCostModel(seek_time=1e-3, block_time=0.0)
    rt = make_runtime(1, disk_model=model, disk_capacity=2)
    ctx = rt.context(0)
    finish = []
    def proc(ctx):
        yield ctx.disk(IOCost(seeks=1))
        finish.append(rt.sim.now)
    rt.sim.process(proc(ctx))
    rt.sim.process(proc(ctx))
    rt.sim.run()
    assert finish == [pytest.approx(1e-3), pytest.approx(1e-3)]


def test_interference_adds_delay():
    class AlwaysSlow:
        def delay(self, server, level):
            return 0.5
    rt = make_runtime(1, disk_model=DiskCostModel(seek_time=0, block_time=0, cache_hit_time=0),
                      interference=AlwaysSlow())
    ctx = rt.context(0)
    def proc(ctx):
        yield ctx.disk(IOCost(), level=1, accesses=2)
    rt.sim.process(proc(ctx))
    rt.sim.run()
    assert rt.sim.now == pytest.approx(1.0)


def test_queue_roundtrip_through_context():
    rt = make_runtime(1)
    ctx = rt.context(0)
    q = ctx.queue(priority=True)
    got = []
    def consumer(q):
        item = yield q.get()
        got.append(item)
    rt.sim.process(consumer(q))
    q.put((2, 0, "low"))
    q.put((1, 1, "high"))
    rt.sim.run()
    # both puts landed before the consumer's first get ran, so the heap
    # ordering applies and the smallest priority wins
    assert got == [(1, 1, "high")]
    assert len(q) == 1


def test_sleep_and_now():
    rt = make_runtime(1)
    ctx = rt.context(0)
    def proc(ctx):
        yield ctx.sleep(2.0)
        return ctx.now()
    p = rt.sim.process(proc(ctx))
    rt.sim.run()
    assert p.value == 2.0


def test_completion_event_run_until():
    rt = make_runtime(1)
    ev = rt.completion_event()
    rt.sim.schedule(1.5, lambda: ev.succeed("done"))
    assert rt.run_until_complete(ev) == "done"


def test_invalid_server_count():
    with pytest.raises(SimulationError):
        SimRuntime(0)


# -- the wire and clock contract ----------------------------------------------


class _Scripted:
    """Travel 4 is dropped, travel 5 duplicated once, the rest pass."""

    def decide(self, src, dst, msg):
        if msg.travel_id == 4:
            return FaultDecision(drop=True)
        if msg.travel_id == 5:
            return FaultDecision(duplicates=1)
        return CLEAN


def test_scripted_sends_are_counted_per_verdict():
    rt = SimRuntime(3)
    metrics = MetricsRegistry()
    rt.bind_metrics(metrics)
    received = []
    for addr in (0, 1, 2, COORDINATOR):
        rt.register_handler(addr, lambda m, a=addr: received.append((a, m.travel_id)))
    rt.fault_injector = _Scripted()
    rt.crash_server(2)
    rt.deliver(0, 1, Message(1))  # server -> server
    rt.deliver(1, COORDINATOR, Message(2))  # the coordinator is an address
    rt.deliver(0, 2, Message(3))  # to a crashed server
    rt.deliver(0, 1, Message(4))  # through the dropping injector
    rt.deliver(1, 0, Message(5))  # one duplicate verdict
    rt.sim.run()
    assert sorted(received) == [(COORDINATOR, 2), (0, 5), (0, 5), (1, 1)]
    nbytes = Message(0).nbytes
    assert (rt.messages_sent, rt.bytes_sent, rt.messages_dropped) == (4, 4 * nbytes, 2)
    assert metrics.snapshot()["counters"] == {
        "faults.crashes{server=2}": 1,
        "faults.duplicated": 1,
        "net.dropped{reason=down,type=Message}": 1,
        "net.dropped{reason=fault,type=Message}": 1,
    }


def test_clock_boundary_fires_once_per_crossed_threshold():
    rt = SimRuntime(3)
    fired = []  # (now, next threshold) per call; thresholds are 10, 20, ...

    def on_boundary(now):
        fired.append((now, (int(now // 10) + 1) * 10.0))
        return fired[-1][1]

    rt.on_clock_boundary(on_boundary, 10.0)
    for t in (5.0, 15.0, 38.0):  # the simulator's clock only moves on events
        rt.schedule(t, lambda: None)
    rt.sim.run()
    watched = [10.0] + [nxt for _now, nxt in fired]
    assert watched[-1] > 38.0  # every crossed threshold was seen ...
    for (now, nxt), threshold in zip(fired, watched):
        assert threshold <= now < nxt  # ... exactly once, and never early
