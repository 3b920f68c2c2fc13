"""A disk access is one :class:`~repro.runtime.simulated.DiskAccess` event
that makes the same kernel heap entries, in the same order, as the generator
process the runtime used to spawn per access (kept below as the reference).

Both implementations run one scripted scenario; the ``(now, label)`` logs,
with every interference draw in them, and the number of scheduled callbacks
must be equal.
The scenario has four workers on a capacity-1 disk, three on a capacity-2
disk, a zero-service access, a seeded interference policy, and a message and
a timeout landing at exactly the instant an access completes. A cost model
or interference policy that raises must fail the waiting process with the
same exception, after which the disk still serves the next access.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.topology import NetworkModel
from repro.runtime.simulated import DiskAccess, SimRuntime, SimServerContext
from repro.sim.resources import Resource
from repro.storage.costmodel import DiskCostModel, IOCost

SEEK = 1e-3
MODEL = DiskCostModel(seek_time=SEEK, block_time=2.5e-4, cache_hit_time=1e-4)


def _reference_disk(ctx: SimServerContext, cost, level=None, accesses=1):
    """What ``SimServerContext.disk`` returned before ``DiskAccess``: a
    process holding a resource slot across a timeout."""
    rt = ctx._rt

    def proc():
        disk = rt.reference_disks[ctx.server_id]
        req = disk.request()
        yield req
        try:
            service = rt.disk_model.time(cost)
            if rt.interference is not None:
                for _ in range(max(1, accesses)):
                    service += rt.interference.delay(ctx.server_id, level)
            if service > 0:
                yield rt.sim.timeout(service)
        finally:
            disk.release(req)

    return rt.sim.process(proc(), name=ctx._disk_name)


class SeededInterference:
    """Draws from a seeded grid (ties are likely) and notes every draw in
    the scenario's timeline; an access tagged with no level is never delayed,
    so its completion instant is exact. Raises on the draws numbered in
    ``explode_at``."""

    def __init__(self, seed: int, explode_at=()):
        self.rng = random.Random(seed)
        self.draws = 0
        self.explode_at = set(explode_at)
        self.note = None

    def delay(self, server, level):
        n, self.draws = self.draws, self.draws + 1
        if n in self.explode_at:
            self.note(f"draw{n}.s{server}.l{level}:raise")
            raise RuntimeError(f"interference draw {n} failed")
        value = 0.0 if level is None else self.rng.choice((0.0, 2.5e-4, 5e-4))
        self.note(f"draw{n}.s{server}.l{level}:{value}")
        return value


class ExplodingModel(DiskCostModel):
    """A cost model that raises on costs carrying ``bytes == 13``."""

    def time(self, cost: IOCost) -> float:
        if cost.bytes == 13:
            raise ValueError("unpriceable cost")
        return super().time(cost)


def _run(reference: bool, monkeypatch, *, model=MODEL, explode_at=()):
    policy = SeededInterference(5, explode_at)
    rt = SimRuntime(
        2,
        network=NetworkModel(loopback_latency=SEEK),
        disk_model=model,
        disk_capacity=1,
        interference=policy,
    )
    sim = rt.sim
    rt._disks[1].capacity = 2
    if reference:
        rt.reference_disks = [
            Resource(sim, 1, name="disk0"),
            Resource(sim, 2, name="disk1"),
        ]
        monkeypatch.setattr(SimServerContext, "disk", _reference_disk)
    log: list[tuple[float, str]] = []
    rng = random.Random(11)

    def note(label: str) -> None:
        log.append((sim.now, label))

    policy.note = note

    def worker(ctx, name: str, plan, pause=True):
        for i, (cost, level) in enumerate(plan):
            if pause:
                yield ctx.sleep(rng.choice((0.0, 0.0, 2.5e-4, SEEK)))
            note(f"{name}.{i}.ask")
            try:
                yield ctx.disk(cost, level=level, accesses=1 + i % 2)
            except (RuntimeError, ValueError) as err:
                note(f"{name}.{i}.failed:{type(err).__name__}:{err}")
                continue
            note(f"{name}.{i}.done")

    def sleeper(ctx):
        yield ctx.sleep(SEEK)  # lands on the first access's completion
        note("sleeper.woke")

    def on_message(msg):  # lands on the first access's completion too
        note(f"msg.{msg.travel_id}")
        rt.sim.process(worker(rt.context(0), "late", [(IOCost(seeks=1), 0)]))

    rt.register_handler(0, on_message)
    disk0, disk1 = rt.context(0), rt.context(1)
    # the first access starts at t=0 on an idle disk with no interference:
    # it completes at exactly SEEK
    sim.process(worker(disk0, "first", [(IOCost(seeks=1), None)], pause=False))
    sim.process(sleeper(disk0))
    disk0.send(0, Message(7))
    for w in range(4):
        plan = [
            (IOCost(seeks=1, blocks=w, bytes=13 if (w, i) == (2, 1) else 0), w % 3)
            for i in range(4)
        ]
        if w == 3:
            plan[1] = (IOCost(), None)  # zero service: released at the grant
        sim.process(worker(disk0, f"w{w}", plan))
    for w in range(3):
        plan = [(IOCost(seeks=1, cache_hits=i), i) for i in range(4)]
        sim.process(worker(disk1, f"v{w}", plan))
    sim.run()
    return log, sim._seq


def test_disk_access_makes_the_reference_processes_events(monkeypatch):
    got = _run(False, monkeypatch)
    with monkeypatch.context() as m:
        want = _run(True, m)
    log, _ = got
    draws = [label for _, label in log if label.startswith("draw")]
    assert len(log) > 100 and len(draws) > 30, "the scenario exercised too little"
    assert (SEEK, "first.0.done") in log
    assert (SEEK, "sleeper.woke") in log and (SEEK, "msg.7") in log
    assert got == want


@pytest.mark.parametrize(
    "model,explode_at",
    [(ExplodingModel(seek_time=SEEK, block_time=2.5e-4), ()), (MODEL, (3, 9))],
    ids=["cost-model", "interference"],
)
def test_a_raising_access_fails_its_waiter_like_the_reference(
    monkeypatch, model, explode_at
):
    got = _run(False, monkeypatch, model=model, explode_at=explode_at)
    with monkeypatch.context() as m:
        want = _run(True, m, model=model, explode_at=explode_at)
    labels = [label for _, label in got[0]]
    failed = [label for label in labels if ".failed:" in label]
    assert failed, "nothing raised"
    # every access was answered: a failed one gave its slot back
    asks = sum(label.endswith(".ask") for label in labels)
    assert asks == 30
    assert sum(label.endswith(".done") for label in labels) == asks - len(failed)
    assert got == want


def test_one_access_is_five_heap_entries():
    rt = SimRuntime(1, disk_model=MODEL)
    ctx = rt.context(0)

    def proc():
        yield ctx.disk(IOCost(seeks=1))
        yield ctx.disk(IOCost())

    rt.sim.process(proc())
    rt.sim.run()
    # the process's start; request, grant, service end, release, wake-up;
    # then the zero-service access's request, grant and wake-up
    assert rt.sim._seq == 1 + 5 + 3
    assert rt.sim.now == SEEK


def test_an_unawaited_failing_access_surfaces_as_an_orphan():
    rt = SimRuntime(1, disk_model=ExplodingModel())
    access = rt.context(0).disk(IOCost(bytes=13))
    assert isinstance(access, DiskAccess)
    done = rt.sim.event("never")
    with pytest.raises(SimulationError, match="s0:disk"):
        rt.run_until_complete(done)
