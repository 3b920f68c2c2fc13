"""Flight-recorder unit tests: ring buffer, eviction accounting, no-op mode.

The recorder is the base of the whole tracing stack, so its memory contract
is tested directly: a full ring evicts oldest-first, every eviction is
visible (``dropped`` attr + ``trace.dropped_events`` counter), and a
truncated recording degrades downstream consumers to warnings instead of
letting them present a partial DAG as complete.
"""

import json

import pytest

from repro.engine import EngineKind
from repro.errors import TraceError
from repro.lang import GTravel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    FlightRecorder,
    TraceEvent,
    assemble_trace,
    validate_trace,
)

from tests.conftest import build_cluster


def test_recorder_disabled_is_a_noop():
    rec = FlightRecorder(MetricsRegistry())  # disabled by default
    rec.record("exec.created", travel_id=1, exec_id=2)
    assert len(rec) == 0
    assert rec.events() == []
    assert not rec.truncated


def test_ring_buffer_evicts_oldest_and_counts_drops():
    metrics = MetricsRegistry()
    rec = FlightRecorder(metrics, enabled=True, max_events=10)
    for i in range(25):
        rec.record("exec.received", travel_id=1, exec_id=i)
    assert len(rec) == 10
    assert rec.dropped == 15
    assert rec.truncated
    # oldest evicted first: the survivors are the 15th..24th records
    assert [e.exec_id for e in rec.events()] == list(range(15, 25))
    assert metrics.counter_total("trace.dropped_events") == 15


def test_configure_shrink_evicts_immediately():
    rec = FlightRecorder(MetricsRegistry(), enabled=True, max_events=100)
    for i in range(20):
        rec.record("exec.received", travel_id=1, exec_id=i)
    rec.configure(max_events=5)
    assert len(rec) == 5
    assert rec.dropped == 15
    assert [e.exec_id for e in rec.events()] == list(range(15, 20))


def test_timeline_is_canonical_json():
    rec = FlightRecorder(MetricsRegistry(), enabled=True)
    rec.record("exec.created", travel_id=1, exec_id=7, zeta=1, alpha=2)
    payload = json.loads(rec.to_json())
    assert payload[0]["kind"] == "exec.created"
    # attrs are emitted sorted so two identical runs serialize identically
    assert list(payload[0]["attrs"]) == ["alpha", "zeta"]


def test_truncated_assembly_degrades_errors_to_warnings():
    """An orphan execution is a hard error on a complete trace but only a
    warning when the ring buffer evicted history (the creation record may
    simply have been dropped)."""
    events = [
        TraceEvent(
            seq=1, clock=0.0, kind="exec.received", travel_id=9, exec_id=42,
            parent_exec_id=None, server_id=0, step=1, attempt=0, attrs={},
        )
    ]
    with pytest.raises(TraceError):
        assemble_trace(events, 9)
    dag = assemble_trace(events, 9, dropped=3)
    assert dag.truncated
    assert dag.dropped_events == 3
    assert any("dropped 3 events" in w for w in dag.warnings)
    assert any("orphan" in w for w in dag.warnings)


def test_profile_surfaces_truncation_warning(metadata_graph):
    """End to end: a tiny ring cap on a real traversal must show up as a
    truncation warning in the PROFILE report, not as a TraceError."""
    graph, ids = metadata_graph
    cluster = build_cluster(graph, EngineKind.GRAPHTREK)
    cluster.enable_tracing(max_events=25)
    query = GTravel.v(*ids["users"]).e("run").e("hasExecutions")
    outcome, report = cluster.profile(query)
    assert outcome is not None
    assert cluster.board.obs.trace.truncated
    assert any("dropped" in w for w in report.warnings)
    assert "WARNING" in report.format()


def test_validate_trace_flags_malformed_payloads():
    assert validate_trace({"traceEvents": []}) == []
    problems = validate_trace(
        {
            "traceEvents": [
                {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
                {"ph": "Q", "name": "x", "pid": 1, "tid": 1, "ts": 0},
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -5.0, "dur": 1},
            ]
        }
    )
    assert len(problems) == 3
    assert validate_trace([]) != []  # not even a dict
