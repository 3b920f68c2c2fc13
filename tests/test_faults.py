"""Unit tests for fault plans, the injector, and runtime drop accounting."""

import random

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind, ReferenceEngine
from repro.errors import SimulationError
from repro.faults import (
    CrashEvent,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    payload_type_name,
    sample_fault_plan,
)
from repro.ids import COORDINATOR
from repro.lang import GTravel
from repro.net.message import ExecStatus, ResultReport, TraverseRequest
from repro.net.reliable import AckFrame, DataFrame
from repro.sim.rng import derive_seed
from tests.conftest import DropWhen


# -- plan validation ------------------------------------------------------------


def test_fault_spec_rejects_bad_probability():
    with pytest.raises(SimulationError, match="not in"):
        FaultSpec(drop=1.5).validate()
    with pytest.raises(SimulationError, match="non-negative"):
        FaultSpec(delay_seconds=-1.0).validate()


def test_crash_event_coordinator_requires_recovery():
    # a coordinator-hosting server may crash — but only with a scheduled
    # recovery; a permanent coordinator loss is a config error, not a hang
    CrashEvent(server=0, at=1.0, recover_at=2.0).validate(
        nservers=3, coordinator_server=0
    )
    with pytest.raises(SimulationError, match="coordinator"):
        CrashEvent(server=0, at=1.0).validate(nservers=3, coordinator_server=0)
    # permanent crashes elsewhere stay legal
    CrashEvent(server=1, at=1.0).validate(nservers=3, coordinator_server=0)


def test_crash_event_rejects_unordered_window():
    with pytest.raises(SimulationError, match="ordered"):
        CrashEvent(server=1, at=2.0, recover_at=1.0).validate(3, 0)


def test_plan_spec_for_prefers_per_type():
    spec = FaultSpec(drop=0.5)
    plan = FaultPlan(per_type={"ExecStatus": spec})
    assert plan.spec_for("ExecStatus") is spec
    assert plan.spec_for("TraverseRequest") is plan.default


# -- injector determinism -------------------------------------------------------


def _decisions(plan, n=200):
    inj = FaultInjector(plan)
    msg = TraverseRequest(1, level=0, entries={}, exec_id=1, from_server=0)
    return [inj.decide(0, 1, msg) for _ in range(n)]


def test_injector_is_deterministic_per_seed():
    plan = FaultPlan(seed=9, default=FaultSpec(drop=0.2, duplicate=0.2, delay=0.3))
    assert _decisions(plan) == _decisions(plan)
    other = plan.with_seed(10)
    assert _decisions(plan) != _decisions(other)


def test_injector_honours_probability_zero_and_one():
    never = _decisions(FaultPlan(seed=1, default=FaultSpec()))
    assert all(d.clean for d in never)
    always = _decisions(FaultPlan(seed=1, default=FaultSpec(drop=1.0)))
    assert all(d.drop for d in always)


class ScalarDrawInjector:
    """Reference for :class:`FaultInjector`: four scalar ``uniform()`` numpy
    calls per decided message from the same named stream, then the same
    decision rules."""

    def __init__(self, plan):
        self.plan = plan
        self.rng = np.random.default_rng(derive_seed(plan.seed, "faults.wire"))

    def decide(self, src, dst, msg) -> FaultDecision:
        spec = self.plan.spec_for(payload_type_name(msg))
        u_drop, u_dup, u_delay, u_reorder = (
            float(self.rng.uniform()) for _ in range(4)
        )
        if u_drop < spec.drop:
            return FaultDecision(drop=True)
        duplicates = 1 if u_dup < spec.duplicate else 0
        extra = 0.0
        if u_delay < spec.delay:
            extra += spec.delay_seconds
        if u_reorder < spec.reorder:
            extra += spec.reorder_window * (u_reorder / max(spec.reorder, 1e-12))
        return FaultDecision(
            duplicates=duplicates,
            extra_delay=extra,
            dup_spacing=spec.reorder_window if duplicates else 0.0,
        )


def test_injector_decisions_equal_scalar_draws():
    """The injector's block-drawn uniforms give, message for message, the
    decisions of one scalar draw per uniform, across block boundaries and
    message types with different specs."""
    plan = FaultPlan(
        seed=17,
        default=FaultSpec(drop=0.05, duplicate=0.1, delay=0.2, reorder=0.3),
        per_type={
            "ExecStatus": FaultSpec(drop=0.3, delay=0.5, delay_seconds=0.01),
            "Ack": FaultSpec(duplicate=0.4, reorder=0.6, reorder_window=0.004),
            "ResultReport": FaultSpec(),
        },
    )
    status = ExecStatus(1, exec_id=1, server=0, created=(), results_sent=0)
    messages = [
        TraverseRequest(1, level=0, entries={}, exec_id=1, from_server=0),
        status,
        DataFrame(1, seq=1, src=0, dst=1, payload=status),
        AckFrame(1, seq=1),
        ResultReport(1, level=0),
    ]
    rng = random.Random(40)
    stream = [rng.choice(messages) for _ in range(12_000)]
    injector, reference = FaultInjector(plan), ScalarDrawInjector(plan)
    got = [injector.decide(0, 1, m) for m in stream]
    want = [reference.decide(0, 1, m) for m in stream]
    assert got == want
    assert injector.decisions == len(stream)
    assert len(set(got)) > 4, "the specs produced too few decision kinds"


def test_payload_type_name_unwraps_frames():
    status = ExecStatus(3, exec_id=1, server=0, created=(), results_sent=0)
    frame = DataFrame(3, seq=7, src=0, dst=1, payload=status)
    assert payload_type_name(status) == "ExecStatus"
    assert payload_type_name(frame) == "ExecStatus"
    assert payload_type_name(AckFrame(3, seq=7)) == "Ack"


def test_sample_fault_plan_reproducible():
    a = sample_fault_plan(4, nservers=3, crash_window=(0.1, 1.0))
    b = sample_fault_plan(4, nservers=3, crash_window=(0.1, 1.0))
    assert a == b
    assert a.crashes and a.crashes[0].server != 0
    assert sample_fault_plan(5, nservers=3) != a


def test_sample_fault_plan_needs_a_crashable_server():
    with pytest.raises(SimulationError, match="crashable"):
        sample_fault_plan(1, nservers=1, crash_window=(0.0, 1.0))


# -- runtime drop accounting (satellite: count silently dropped messages) --------


def _tiny_cluster(graph, **cfg):
    return Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK, **cfg))


def test_injected_drop_counts_net_dropped(metadata_graph):
    graph, ids = metadata_graph
    cluster = _tiny_cluster(graph)
    dropped = []

    def drop_one(src, dst, msg):
        if isinstance(msg, TraverseRequest) and msg.level > 0 and not dropped:
            dropped.append(msg)
            return True
        return False

    cluster.runtime.fault_injector = DropWhen(drop_one)
    from repro.cluster import CoordinatorConfig

    cluster.coordinator.config = CoordinatorConfig(exec_timeout=0.5, watch_interval=0.1)
    plan = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").compile()
    out = cluster.traverse(plan)
    assert dropped
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("net.dropped{reason=fault,type=TraverseRequest}") == 1
    assert cluster.runtime.messages_dropped == 1


def test_fault_plan_drops_are_counted_by_type(metadata_graph):
    graph, ids = metadata_graph
    plan = FaultPlan(seed=3, default=FaultSpec(drop=1.0))
    cluster = _tiny_cluster(graph, fault_plan=plan)
    travel = GTravel.v(ids["users"][0]).e("run").compile()
    from repro.cluster import CoordinatorConfig
    from repro.errors import TraversalFailed

    cluster.coordinator.config = CoordinatorConfig(
        exec_timeout=0.2, watch_interval=0.05, max_restarts=0
    )
    with pytest.raises(TraversalFailed):
        cluster.traverse(travel)
    counters = cluster.metrics_snapshot()["counters"]
    drop_keys = [k for k in counters if k.startswith("net.dropped{reason=fault")]
    assert drop_keys, counters
    assert cluster.runtime.messages_dropped > 0


def test_crashed_server_swallows_wire_traffic(metadata_graph):
    """Deliveries to and from a crashed server drop with reason=down."""
    graph, _ = metadata_graph
    cluster = _tiny_cluster(graph)
    runtime = cluster.runtime
    runtime.crash_server(1)
    assert runtime.is_down(1)
    before = runtime.messages_sent
    status = ExecStatus(1, exec_id=1, server=2, created=(), results_sent=0)
    runtime.deliver(2, 1, status)  # into the dead server
    runtime.deliver(1, 2, status)  # out of the dead server
    assert runtime.messages_sent == before
    assert runtime.messages_dropped == 2
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("net.dropped{reason=down,type=ExecStatus}") == 2
    runtime.recover_server(1)
    assert not runtime.is_down(1)
    runtime.deliver(2, 1, status)
    assert runtime.messages_sent == before + 1


def test_crash_and_recovery_counters_and_idempotence(metadata_graph):
    graph, _ = metadata_graph
    cluster = _tiny_cluster(graph)
    runtime = cluster.runtime
    runtime.crash_server(2)
    runtime.crash_server(2)  # second crash of a down server is a no-op
    runtime.recover_server(2)
    runtime.recover_server(2)
    counters = cluster.metrics_snapshot()["counters"]
    assert counters.get("faults.crashes{server=2}") == 1
    assert counters.get("faults.recoveries{server=2}") == 1
    assert counters.get("engine.crashes{server=2}") == 1


def test_coordinator_destination_is_typed(metadata_graph):
    """The coordinator path hands COORDINATOR (not a raw -1) to the injector."""
    graph, ids = metadata_graph
    cluster = _tiny_cluster(graph)
    seen_dsts = []

    def spy(src, dst, msg):
        seen_dsts.append(dst)
        return False

    cluster.runtime.fault_injector = DropWhen(spy)
    cluster.traverse(GTravel.v(ids["users"][0]).e("run").compile())
    assert COORDINATOR in seen_dsts
    assert all(d == COORDINATOR or 0 <= d < 3 for d in seen_dsts)


def test_install_faults_validates_against_topology(metadata_graph):
    graph, _ = metadata_graph
    plan = FaultPlan(seed=1, crashes=(CrashEvent(server=7, at=0.1, recover_at=0.2),))
    with pytest.raises(SimulationError, match="out of range"):
        Cluster.build(graph, ClusterConfig(nservers=3, fault_plan=plan))
