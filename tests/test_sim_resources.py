"""Unit tests for simulation resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import PriorityStore, Resource, Simulator, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2 = res.request(), res.request()
    assert r1.triggered and r2.triggered
    r3 = res.request()
    assert not r3.triggered
    assert res.queue_length == 1


def test_resource_release_grants_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r1)
    assert r2.triggered
    assert res.in_use == 1


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    waiters = [res.request() for _ in range(3)]
    res.release(first)
    assert waiters[0].triggered and not waiters[1].triggered
    res.release(waiters[0])
    assert waiters[1].triggered


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = Resource(sim, capacity=1, priority=True)
    holder = res.request()
    low = res.request(priority=5)
    high = res.request(priority=1)
    res.release(holder)
    assert high.triggered and not low.triggered


def test_resource_process_usage_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []
    def user(sim, res, dt):
        req = res.request()
        yield req
        yield sim.timeout(dt)
        res.release(req)
        times.append(sim.now)
    sim.process(user(sim, res, 2.0))
    sim.process(user(sim, res, 3.0))
    sim.run()
    assert times == [2.0, 5.0]


def test_release_foreign_request_rejected():
    sim = Simulator()
    res_a, res_b = Resource(sim), Resource(sim)
    req = res_a.request()
    with pytest.raises(SimulationError):
        res_b.release(req)


def test_release_idle_resource_rejected():
    sim = Simulator()
    res = Resource(sim)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_release_ungranted_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    waiting = res.request()
    res.release(waiting)  # cancel the queued claim
    assert res.queue_length == 0
    assert res.in_use == 1
    res.release(held)
    assert res.in_use == 0


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        Resource(Simulator(), capacity=0)


def test_store_fifo():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    g1, g2 = store.get(), store.get()
    sim.run()
    assert g1.value == "a" and g2.value == "b"


def test_store_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []
    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))
    sim.process(consumer(sim, store))
    sim.schedule(3.0, lambda: store.put("late"))
    sim.run()
    assert got == [(3.0, "late")]


def test_priority_store_pops_smallest():
    sim = Simulator()
    store = PriorityStore(sim)
    store.put((5, 1, "five"))
    store.put((1, 2, "one"))
    store.put((3, 3, "three"))
    g = store.get()
    sim.run()
    assert g.value == (1, 2, "one")


def test_priority_store_waiting_getter_bypasses_heap():
    sim = Simulator()
    store = PriorityStore(sim)
    g = store.get()
    store.put((9, 0, "x"))
    sim.run()
    assert g.value == (9, 0, "x")
