"""Unit tests for the durable traversal journal (WAL framing, CRC
integrity, replay fold, and compaction)."""

import pickle

import pytest

from repro.cluster.journal import (
    JournalFile,
    JournalState,
    TraversalJournal,
)
from repro.errors import CorruptJournal
from repro.storage.persist import pack_record


def _sample_plan():
    return {"steps": ["run", "hasExecutions"]}


def test_append_replay_roundtrip():
    journal = TraversalJournal()
    journal.append("admit", tid=1, plan=_sample_plan(), tenant="batch",
                   priority=2, deadline=5.0, admit_time=0.1, seq=0)
    journal.append("launch", tid=1, tenant="batch")
    journal.append("dispatch", tid=1, plan=_sample_plan(), attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.2)
    state = journal.replay()
    assert 1 in state.running and not state.queued
    entry = state.running[1]
    assert entry["qos"]["tenant"] == "batch"
    assert entry["qos"]["deadline"] == 5.0
    assert state.next_travel_id == 2
    # the live mirror and a cold replay agree
    assert journal.state.running.keys() == state.running.keys()


def test_terminal_clears_state_and_counts():
    journal = TraversalJournal()
    journal.append("dispatch", tid=3, plan=_sample_plan(), attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.0)
    journal.append("terminal", tid=3, status="ok")
    journal.append("admit", tid=4, plan=_sample_plan(), tenant="t",
                   priority=None, deadline=None, admit_time=0.0, seq=1)
    journal.append("terminal", tid=4, status="cancelled")
    state = journal.replay()
    assert not state.running and not state.queued
    assert state.terminals == {"ok": 1, "cancelled": 1}
    assert state.next_travel_id == 5


def test_progress_records_accumulate():
    journal = TraversalJournal()
    journal.append("dispatch", tid=2, plan=_sample_plan(), attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.0)
    journal.append("progress", tid=2, statuses=10, results=3)
    journal.append("progress", tid=2, statuses=5, results=1)
    journal.append("progress", tid=99, statuses=7)  # unknown tid: ignored
    state = journal.replay()
    assert state.running[2]["progress"] == {"statuses": 15, "results": 4}


def test_epoch_record_advances_epoch():
    journal = TraversalJournal()
    assert journal.state.epoch == 0
    journal.append("epoch", epoch=2)
    assert journal.replay().epoch == 2


def test_crc_corruption_raises_typed_error():
    storage = JournalFile()
    journal = TraversalJournal(storage)
    journal.append("epoch", epoch=1)
    data = bytearray(storage.read())
    data[-1] ^= 0xFF  # flip a payload bit → CRC mismatch
    storage.reset(bytes(data))
    with pytest.raises(CorruptJournal, match="checksum|crc|mismatch"):
        journal.replay()


def test_torn_tail_raises_typed_error():
    storage = JournalFile()
    journal = TraversalJournal(storage)
    journal.append("epoch", epoch=1)
    storage.reset(storage.read()[:-3])  # torn write: length runs past end
    with pytest.raises(CorruptJournal):
        journal.replay()


def test_undecodable_and_untagged_records_rejected():
    storage = JournalFile(pack_record(b"\x00not-a-pickle"))
    with pytest.raises(CorruptJournal, match="undecodable"):
        TraversalJournal(storage)
    storage = JournalFile(
        pack_record(pickle.dumps(["no", "kind", "tag"]))
    )
    with pytest.raises(CorruptJournal, match="kind-tagged"):
        TraversalJournal(storage)
    storage = JournalFile(
        pack_record(pickle.dumps({"kind": "wat"}))
    )
    with pytest.raises(CorruptJournal, match="unknown"):
        TraversalJournal(storage)


FLAG = {"ran": False}


def _set_flag():
    FLAG["ran"] = True


class _Hostile:
    """Pickles as a REDUCE that calls :func:`_set_flag` on load."""

    def __reduce__(self):
        return (_set_flag, ())


def test_hostile_record_raises_and_never_runs_code():
    """A framed record whose pickle calls a function on load is refused
    before the call: replay resolves only the record vocabulary."""
    FLAG["ran"] = False
    record = {"kind": "launch", "tid": 1, "payload": _Hostile()}
    storage = JournalFile(pack_record(pickle.dumps(record)))
    with pytest.raises(CorruptJournal, match="record vocabulary"):
        TraversalJournal(storage)
    assert FLAG["ran"] is False


def test_plan_records_replay_through_the_vocabulary():
    """What the coordinator journals — plans with filters, aggregates and
    composite operators, and the planner's audit with numpy estimates —
    replays under the restricted unpickler."""
    import numpy as np

    from repro.lang import EQ, RANGE, GTravel
    from repro.lang.optimizer import LevelEstimate, PlanCost, PlannedQuery, Rewrite

    plan = (
        GTravel.v(1, 2).va("kind", EQ, "x").e("run").ea("ts", RANGE, (0, 9))
        .group_count("kind").compile()
    )
    composite = (
        GTravel.v(1).repeat(GTravel.s().e("run")).times(2)
        .union(GTravel.s().e("x"), GTravel.s().e("y")).va("k", EQ, 1)
        .as_("a").e("z").back("a").compile()
    )
    estimate = LevelEstimate(
        level=0, rows_in=np.float64(2.0), rows_out=np.float64(2.5), cost=1.0
    )
    planned = PlannedQuery(
        original=plan, executed=plan, mode="cost",
        rewrites=(Rewrite("fuse", "kept"),),
        cost_original=PlanCost(levels=(estimate,), total=np.float64(3.0)),
    )
    journal = TraversalJournal()
    journal.append("admit", tid=1, plan=composite, tenant="t")
    journal.append("dispatch", tid=2, plan=plan, planned=planned)
    state = journal.replay()
    assert state.queued[1]["plan"] == composite
    assert state.running[2]["plan"] == plan
    assert state.running[2]["planned"] == planned


def test_compaction_bounds_size_and_preserves_state():
    storage = JournalFile()
    journal = TraversalJournal(storage, checkpoint_interval=8)
    journal.append("epoch", epoch=2)
    journal.append("migration", mid=1, phase="dual", src=0, dst=1,
                   vids=(4, 5), version=3)
    journal.append("migration", mid=2, phase="aborted", src=1, dst=0,
                   vids=(6,), version=5)
    journal.append("admit", tid=60, plan=_sample_plan(), tenant="t",
                   priority=None, deadline=None, admit_time=0.0, seq=0)
    for tid in range(1, 40):
        journal.append("dispatch", tid=tid, plan=_sample_plan(), attempt=0,
                       epoch=0, composite=False, child_of=None, submit_time=0.0)
        journal.append("terminal", tid=tid, status="ok")
    journal.append("dispatch", tid=100, plan=_sample_plan(), attempt=0,
                   epoch=0, composite=False, child_of=None, submit_time=1.0)
    assert journal.checkpoints_written > 0
    # compaction keeps the journal proportional to *live* travels, not history
    assert journal.size_bytes() < journal.bytes_appended / 4
    live = journal.state
    state = journal.replay()
    assert state == live
    assert set(state.running) == {100}
    assert set(state.queued) == {60}
    assert state.terminals["ok"] == 39
    assert state.next_travel_id == 101
    assert state.epoch == 2
    assert set(state.migrations) == {1}
    assert state.routing_version == 5
    # a fresh journal over the same bytes sees the same state
    cold = TraversalJournal(JournalFile(storage.read()))
    assert cold.state == state


def test_checkpoint_then_tail_replay():
    """Records appended after a compaction fold on top of the checkpoint."""
    storage = JournalFile()
    journal = TraversalJournal(storage, checkpoint_interval=10_000)
    journal.append("dispatch", tid=1, plan=_sample_plan(), attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.0)
    journal.compact()
    journal.append("dispatch", tid=2, plan=_sample_plan(), attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.5)
    journal.append("terminal", tid=1, status="ok")
    state = TraversalJournal(JournalFile(storage.read())).state
    assert set(state.running) == {2}
    assert state.terminals == {"ok": 1}


def test_journal_state_payload_roundtrip():
    """A checkpoint of a state with every field set replays to an equal
    state, and a second checkpoint of it writes the same bytes."""
    state = JournalState(epoch=3, next_travel_id=9,
                         queued={1: {"tid": 1}}, running={2: {"tid": 2}},
                         terminals={"ok": 4},
                         migrations={7: {"mid": 7, "phase": "done"}},
                         routing_version=11)
    storage = JournalFile()
    journal = TraversalJournal(storage)
    journal._state = state
    journal.compact()
    checkpoint = storage.read()
    replayed = TraversalJournal(JournalFile(checkpoint))
    assert replayed.state == state
    replayed.compact()
    assert replayed.storage.read() == checkpoint
