"""Tail-based trace sampling: keep/drop routing, crash retention, and
per-traversal dropped-event attribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.errors import TraversalCancelled
from repro.faults.chaos import chaos_coordinator_config
from repro.faults.plan import CrashEvent, FaultPlan
from repro.graph import GraphBuilder
from repro.lang import GTravel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FlightRecorder, SamplingPolicy, TraceEvent
from tests.conftest import build_cluster

NEVER = SamplingPolicy(sample_every_n=0)  # only the always-keep rules apply


def small_graph():
    b = GraphBuilder()
    vids = [b.vertex("n") for _ in range(16)]
    for i in range(15):
        b.edge(vids[i], vids[i + 1], "link")
        b.edge(vids[i], vids[(i * 5) % 16], "link")
    return b.build(), vids


# -- SamplingPolicy -----------------------------------------------------------


def test_sampling_policy_edge_rates_and_determinism():
    assert not any(SamplingPolicy(0).sampled(t) for t in range(50))
    assert all(SamplingPolicy(1).sampled(t) for t in range(50))
    policy = SamplingPolicy(sample_every_n=8, seed=3)
    picks = [t for t in range(200) if policy.sampled(t)]
    assert picks == [t for t in range(200) if policy.sampled(t)]
    assert 0 < len(picks) < 200
    assert picks != [t for t in range(200) if SamplingPolicy(8, seed=4).sampled(t)]


# -- FlightRecorder routing ---------------------------------------------------


def test_pending_events_commit_or_discard_at_the_terminal():
    rec = FlightRecorder(MetricsRegistry(), enabled=True)
    rec.configure(sampling=NEVER)
    rec.record("exec.start", travel_id=1)
    rec.record("exec.start", travel_id=2)
    # undecided buffers are still visible to readers (merged view)
    assert {e.travel_id for e in rec.events()} == {1, 2}
    rec.finalize_travel(1, keep=True, reason="terminal:failed")
    rec.finalize_travel(2, keep=False)
    assert [e.travel_id for e in rec.events()] == [1]
    assert rec.sampled_out == 1


def test_late_events_follow_the_stored_decision():
    rec = FlightRecorder(MetricsRegistry(), enabled=True)
    rec.configure(sampling=NEVER)
    rec.record("exec.start", travel_id=1)
    rec.finalize_travel(1, keep=False)
    rec.record("exec.report", travel_id=1)  # late: dropped directly
    assert rec.events() == [] and rec.sampled_out == 2
    rec.record("exec.start", travel_id=2)
    rec.finalize_travel(2, keep=True, reason="sampled")
    rec.record("exec.report", travel_id=2)  # late: committed directly
    assert len(rec.events_for(2)) == 2


def test_cluster_scope_events_bypass_sampling():
    rec = FlightRecorder(MetricsRegistry(), enabled=True)
    rec.configure(sampling=NEVER)
    rec.record("slo.alert", tenant="a", state="firing")
    assert [e.kind for e in rec.events()] == ["slo.alert"]


def test_keep_all_pending_retains_every_undecided_buffer():
    rec = FlightRecorder(MetricsRegistry(), enabled=True)
    rec.configure(sampling=NEVER)
    for tid in (5, 3, 9):
        rec.record("exec.start", travel_id=tid)
    rec.keep_all_pending(reason="coord.crash")
    assert sorted(rec.travel_ids()) == [3, 5, 9]
    # the flush decided keep for all three: later events commit directly
    rec.record("exec.report", travel_id=3)
    assert len(rec.events_for(3)) == 2


def test_finalize_counts_kept_and_sampled_out_metrics():
    metrics = MetricsRegistry()
    rec = FlightRecorder(metrics, enabled=True)
    rec.configure(sampling=NEVER)
    rec.record("exec.start", travel_id=1)
    rec.record("exec.report", travel_id=1)
    rec.record("exec.start", travel_id=2)
    rec.finalize_travel(1, keep=False)
    rec.finalize_travel(2, keep=True, reason="slow")
    assert metrics.counter_value("trace.sampled_out_traces") == 1
    assert metrics.counter_value("trace.sampled_out_events") == 2
    assert metrics.counter_value("trace.kept_traces", reason="slow") == 1


# -- lazy pending buffers against an eager reference -------------------------


class EagerRecorder(FlightRecorder):
    """Reference recorder: every record builds its ``TraceEvent`` at once,
    and undecided buffers hold the events themselves."""

    def record(self, kind, travel_id=None, exec_id=None, parent_exec_id=None,
               server_id=None, step=None, attempt=0, **attrs):
        if not self.enabled:
            return
        event = TraceEvent(
            seq=next(self._seq), clock=self._clock(), kind=kind,
            travel_id=travel_id, exec_id=exec_id,
            parent_exec_id=parent_exec_id, server_id=server_id, step=step,
            attempt=attempt, attrs=attrs,
        )
        if self.sampling is not None and travel_id is not None:
            decision = self._decisions.get(travel_id)
            if decision is None:
                self._pending.setdefault(travel_id, []).append(event)
                return
            if not decision[0]:
                self.sampled_out += 1
                return
        self._events.append(event)
        if len(self._events) > self.max_events:
            self._note_drop(self._events.popleft().travel_id)

    def finalize_travel(self, travel_id, keep, reason=None):
        buffered = self._pending.pop(travel_id, [])
        self._decisions[travel_id] = (keep, reason)
        if keep:
            self._events.extend(buffered)
            while len(self._events) > self.max_events:
                self._note_drop(self._events.popleft().travel_id)
            self._metrics.count("trace.kept_traces", reason=reason or "unspecified")
        else:
            self.sampled_out += len(buffered)
            self._metrics.count("trace.sampled_out_traces")
            self._metrics.count("trace.sampled_out_events", len(buffered))

    def _view(self):
        if not self._pending:
            return list(self._events)
        merged = list(self._events)
        for buffered in self._pending.values():
            merged.extend(buffered)
        merged.sort(key=lambda e: e.seq)
        return merged


TRAVELS = st.one_of(st.none(), st.integers(1, 6))
RECORDER_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), st.sampled_from(("exec.created", "coord.status")),
            TRAVELS, st.integers(0, 3),
        ),
        st.tuples(st.just("tick"), st.floats(0.0, 1.0)),
        st.tuples(
            st.just("finalize"), st.integers(1, 6), st.booleans(),
            st.sampled_from((None, "sampled", "slow")),
        ),
        st.tuples(st.just("keep_all_pending")),
        st.tuples(st.just("sampling"), st.booleans()),
        st.tuples(st.just("events")),
        st.tuples(st.just("events_for"), st.integers(1, 6)),
        st.tuples(st.just("len")),
    ),
    min_size=20, max_size=80,
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(script=RECORDER_OPS, max_events=st.sampled_from((4, 16, 1000)))
def test_lazy_pending_buffers_match_an_eager_recorder(script, max_events):
    """Buffers of plain records give the same events (seq, clock, attrs),
    the same sample-out and drop counts and the same counters as buffers of
    ``TraceEvent`` objects, whatever the order of records, keep/drop
    decisions, crash flushes, sampling toggles and mid-flight reads."""
    now = [0.0]
    recorders = []
    for cls in (FlightRecorder, EagerRecorder):
        rec = cls(MetricsRegistry(), enabled=True, max_events=max_events)
        rec.configure(sampling=NEVER)
        rec.bind_clock(lambda: now[0])
        recorders.append(rec)
    lazy, eager = recorders
    for op in script:
        if op[0] == "tick":
            now[0] += op[1]
            continue
        seen = []
        for rec in recorders:
            if op[0] == "record":
                _, kind, tid, n = op
                rec.record(kind, travel_id=tid, exec_id=n, step=n, n=n)
            elif op[0] == "finalize":
                rec.finalize_travel(op[1], keep=op[2], reason=op[3])
            elif op[0] == "keep_all_pending":
                rec.keep_all_pending(reason="coord.crash")
            elif op[0] == "sampling":
                rec.configure(sampling=NEVER if op[1] else None)
            elif op[0] == "events":
                seen.append(rec.events())
            elif op[0] == "events_for":
                seen.append(rec.events_for(op[1]))
            else:
                seen.append(len(rec))
            seen.append((rec.sampled_out, rec.dropped))
        assert seen[: len(seen) // 2] == seen[len(seen) // 2 :], op
    assert lazy.to_json() == eager.to_json()
    assert lazy.travel_ids() == eager.travel_ids()
    assert [lazy.dropped_for(t) for t in range(7)] == [
        eager.dropped_for(t) for t in range(7)
    ]
    assert lazy._metrics.snapshot() == eager._metrics.snapshot()


# -- dropped-event attribution (ring eviction) --------------------------------


def test_ring_evictions_attribute_to_the_owning_traversal():
    metrics = MetricsRegistry()
    rec = FlightRecorder(metrics, enabled=True, max_events=4)
    for _ in range(3):
        rec.record("exec.start", travel_id=7)
    for _ in range(4):
        rec.record("exec.start", travel_id=8)
    assert rec.dropped == 3
    assert rec.dropped_for(7) == 3 and rec.dropped_for(8) == 0
    assert metrics.counter_value("trace.dropped_events", travel_id="7") == 3
    assert rec.truncated


def test_untracked_evictions_count_against_every_traversal():
    metrics = MetricsRegistry()
    rec = FlightRecorder(metrics, enabled=True, max_events=2)
    rec.record("fault.crash", server_id=0)  # no travel id
    rec.record("exec.start", travel_id=1)
    rec.record("exec.start", travel_id=1)
    assert rec.dropped_for(1) == 1  # the untracked eviction may be anyone's
    assert (
        metrics.counter_value("trace.dropped_events", travel_id="untracked")
        == 1
    )


# -- cluster-level keep rules -------------------------------------------------


def test_healthy_traversals_sample_out_but_cancelled_ones_keep():
    graph, vids = small_graph()
    cluster = build_cluster(
        graph, EngineKind.GRAPHTREK, nservers=3,
        trace_enabled=True, trace_sampling=NEVER,
    )
    ok_outcome = cluster.traverse(GTravel.v(vids[0]).e("link").e("link"))
    ok_id = ok_outcome.result.travel_id
    assert cluster.board.obs.trace.events_for(ok_id) == []
    cancel_id, event = cluster.submit(
        GTravel.v(*vids).e("link").e("link").e("link").e("link"),
        deadline=1e-6,
    )
    with pytest.raises(TraversalCancelled):
        cluster.runtime.run_until_complete(event)
    kinds = {e.kind for e in cluster.board.obs.trace.events_for(cancel_id)}
    assert kinds, "cancelled traversal's full trace must be retained"
    metrics = cluster.board.obs.metrics
    assert (
        metrics.counter_value("trace.kept_traces", reason="terminal:cancelled")
        == 1
    )
    assert metrics.counter_value("trace.sampled_out_traces") == 1


def test_seeded_one_in_n_keeps_the_sampled_traversal():
    graph, vids = small_graph()
    cluster = build_cluster(
        graph, EngineKind.GRAPHTREK, nservers=2,
        trace_enabled=True, trace_sampling=SamplingPolicy(1),
    )
    outcome = cluster.traverse(GTravel.v(vids[0]).e("link"))
    assert cluster.board.obs.trace.events_for(outcome.result.travel_id)
    assert (
        cluster.board.obs.metrics.counter_value(
            "trace.kept_traces", reason="sampled"
        )
        == 1
    )


def test_slow_traversals_keep_their_trace():
    graph, vids = small_graph()
    from repro.obs.slo import SLOConfig

    cluster = build_cluster(
        graph, EngineKind.GRAPHTREK, nservers=2,
        trace_enabled=True, trace_sampling=NEVER,
        slo_config=SLOConfig(latency_objective=1e-9),
    )
    outcome = cluster.traverse(GTravel.v(vids[0]).e("link"))
    assert cluster.board.obs.trace.events_for(outcome.result.travel_id)
    assert (
        cluster.board.obs.metrics.counter_value(
            "trace.kept_traces", reason="slow"
        )
        == 1
    )


def test_profile_bypasses_sampling_and_restores_it():
    graph, vids = small_graph()
    cluster = build_cluster(
        graph, EngineKind.GRAPHTREK, nservers=2,
        trace_enabled=True, trace_sampling=NEVER,
    )
    outcome, report = cluster.profile(GTravel.v(vids[0]).e("link").e("link"))
    assert report.steps, "profile() needs the full trace despite sampling"
    assert cluster.board.obs.trace.sampling is NEVER  # restored afterwards
    later = cluster.traverse(GTravel.v(vids[0]).e("link"), cold=False)
    assert cluster.board.obs.trace.events_for(later.result.travel_id) == []


# -- chaos: coordinator crash must not lose in-flight traces ------------------


def test_coordinator_crash_retains_inflight_trace_buffers():
    graph, vids = small_graph()
    plan = GTravel.v(*vids).e("link").e("link").e("link").compile()
    baseline = build_cluster(graph, EngineKind.GRAPHTREK, nservers=3)
    start = baseline.now
    baseline.traverse(plan)
    duration = baseline.now - start
    fault_plan = FaultPlan(
        crashes=(
            CrashEvent(server=0, at=0.4 * duration, recover_at=3.0 * duration),
        )
    )
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            fault_plan=fault_plan,
            reliable=True,
            journal=True,
            coordinator_config=chaos_coordinator_config(duration),
            trace_enabled=True,
            trace_sampling=NEVER,
        ),
    )
    outcome = cluster.traverse(plan)
    recorder = cluster.board.obs.trace
    events = recorder.events_for(outcome.result.travel_id)
    assert events, "trace of a traversal spanning a coordinator crash is kept"
    assert not recorder._pending, "no buffer may stay undecided after terminal"
    kept = cluster.board.obs.metrics.counter_total("trace.kept_traces")
    assert kept >= 1
