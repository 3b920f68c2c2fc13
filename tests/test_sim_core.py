"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(2.5)
        return "ok"
    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5
    assert p.value == "ok"


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(0.5)
    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(1.5)


def test_parallel_processes_overlap():
    sim = Simulator()
    done = []
    def proc(sim, dt, name):
        yield sim.timeout(dt)
        done.append((sim.now, name))
    sim.process(proc(sim, 3.0, "slow"))
    sim.process(proc(sim, 1.0, "fast"))
    sim.run()
    assert done == [(1.0, "fast"), (3.0, "slow")]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_value_delivered():
    sim = Simulator()
    ev = sim.event("x")
    def proc(sim, ev):
        value = yield ev
        return value * 2
    p = sim.process(proc(sim, ev))
    sim.schedule(1.0, lambda: ev.succeed(21))
    sim.run()
    assert p.value == 42


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []
    def proc(sim, ev):
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))
    sim.process(proc(sim, ev))
    sim.schedule(0.5, lambda: ev.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_fails_process():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(1)
        raise RuntimeError("bad")
    p = sim.process(proc(sim))
    sim.run()
    assert p.triggered and p.failed
    with pytest.raises(RuntimeError):
        _ = p.value


def test_process_waits_on_process():
    sim = Simulator()
    def child(sim):
        yield sim.timeout(2.0)
        return "child-done"
    def parent(sim):
        result = yield sim.process(child(sim))
        return f"got {result}"
    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "got child-done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_yielding_non_event_fails_process():
    sim = Simulator()
    def proc(sim):
        yield 42
    p = sim.process(proc(sim))
    sim.run()
    assert p.failed


def test_run_until_event():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(5)
        return 7
    p = sim.process(proc(sim))
    assert sim.run_until(p) == 7
    assert sim.now == 5


def test_run_until_deadlock_detected():
    sim = Simulator()
    ev = sim.event("never")
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(ev)


def test_run_until_limit():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(100)
    p = sim.process(proc(sim))
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until(p, limit=10)


def test_run_with_until_stops_clock():
    sim = Simulator()
    def proc(sim):
        yield sim.timeout(100)
    sim.process(proc(sim))
    assert sim.run(until=30) == 30
    assert sim.now == 30


def test_joining_processes_waits_for_the_last():
    sim = Simulator()
    def child(sim, dt, value):
        yield sim.timeout(dt)
        return value
    def parent(sim):
        kids = [sim.process(child(sim, 3, "a")), sim.process(child(sim, 1, "b"))]
        values = []
        for kid in kids:
            values.append((yield kid))
        return values
    p = sim.process(parent(sim))
    sim.run_until(p)
    assert p.value == ["a", "b"]
    assert sim.now == 3


def test_failed_event_wakes_its_waiter_which_recovers():
    sim = Simulator()
    alarm = sim.event("alarm")
    log = []
    def proc(sim):
        try:
            yield alarm
        except RuntimeError as err:
            log.append((sim.now, str(err)))
            yield sim.timeout(1)
        return "recovered"
    p = sim.process(proc(sim))
    sim.schedule(2.0, lambda: alarm.fail(RuntimeError("stop")))
    sim.run_until(p)
    assert log == [(2.0, "stop")]
    assert p.value == "recovered"
    assert sim.now == pytest.approx(3.0)


def test_callback_on_triggered_event_fires_async():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == []  # not synchronous
    sim.run()
    assert seen == ["v"]


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_max_events_guard():
    sim = Simulator()
    def proc(sim):
        while True:
            yield sim.timeout(1)
    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.schedule(4.2, lambda: None)
    assert sim.peek() == 4.2
    sim.run()
    assert sim.peek() == float("inf")


def test_orphan_crash_surfaces_in_run_until():
    """A process that dies with no waiter must not hang the run loop."""
    sim = Simulator()
    def worker(sim):
        yield sim.timeout(1)
        raise RuntimeError("worker died")
    sim.process(worker(sim), name="worker0")
    never = sim.event("never")
    sim.schedule(10.0, lambda: None)  # keep the heap non-empty past the crash
    with pytest.raises(SimulationError, match="worker0"):
        sim.run_until(never)


def test_waited_on_failure_is_not_orphan():
    sim = Simulator()
    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("child failure")
    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError:
            return "handled"
    p = sim.process(parent(sim))
    assert sim.run_until(p) == "handled"
    assert sim.orphan_failures == []


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []
        def proc(sim, name, dt):
            for i in range(3):
                yield sim.timeout(dt)
                trace.append((sim.now, name, i))
        sim.process(proc(sim, "a", 1.0))
        sim.process(proc(sim, "b", 1.0))
        sim.process(proc(sim, "c", 0.7))
        sim.run()
        return trace
    assert build() == build()
