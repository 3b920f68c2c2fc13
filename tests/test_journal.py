"""Unit tests for the durable traversal journal (WAL framing, CRC
integrity, replay fold, and compaction)."""

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.journal import (
    JournalFile,
    JournalState,
    TraversalJournal,
)
from repro.errors import CorruptJournal
from repro.lang import GTravel
from repro.sched import SchedulerConfig
from repro.storage.persist import pack_record
from repro.workloads import MetadataGraphConfig, generate_metadata_graph


def _dispatch(journal, tid, submit_time=0.0, child_of=None):
    journal.append("dispatch", tid=tid, child_of=child_of, submit_time=submit_time)


def test_append_replay_roundtrip():
    journal = TraversalJournal()
    journal.append("admit", tid=1, seq=0)
    assert journal.state.queued == {1: {"kind": "admit", "tid": 1, "seq": 0}}
    _dispatch(journal, 1, submit_time=0.2)
    state = journal.replay()
    assert 1 in state.running and not state.queued
    # the dispatch record is the running entry: what recovery reads, nothing
    # merged from the admission
    assert state.running[1] == {
        "kind": "dispatch", "tid": 1, "child_of": None, "submit_time": 0.2,
    }
    assert state.next_travel_id == 2
    # the live mirror and a cold replay agree
    assert journal.state == state


def test_a_record_keeps_only_what_recovery_reads():
    """``append`` writes a kind's ``RECORD_FIELDS`` and nothing else a caller
    passes — a plan never reaches the bytes — and writes no ``progress``
    record at all."""
    plan = GTravel.v(1).e("run").compile()
    journal = TraversalJournal()
    journal.append("admit", tid=1, plan=plan, tenant="batch", priority=2,
                   deadline=5.0, admit_time=0.1, seq=0)
    journal.append("dispatch", tid=1, plan=plan, attempt=0, epoch=0,
                   composite=False, child_of=None, submit_time=0.2)
    journal.append("progress", tid=1, statuses=32, results=8)
    assert journal.records_appended == 2
    assert journal.replay().running == {
        1: {"kind": "dispatch", "tid": 1, "child_of": None, "submit_time": 0.2},
    }
    assert b"TraversalPlan" not in journal.storage.read()


def test_terminal_clears_state_and_counts():
    journal = TraversalJournal()
    _dispatch(journal, 3)
    journal.append("terminal", tid=3, status="ok")
    journal.append("admit", tid=4, seq=1)
    journal.append("terminal", tid=4, status="cancelled")
    state = journal.replay()
    assert not state.running and not state.queued
    assert state.terminals == {"ok": 1, "cancelled": 1}
    assert state.next_travel_id == 5


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


def _framed(record) -> JournalFile:
    return JournalFile(pack_record(pickle.dumps(record)))


def test_a_record_of_the_wrong_shape_raises_typed_error():
    """A CRC-valid record whose keys are not its kind's, or whose field has
    the wrong type, is refused, not folded: a ``dispatch`` without ``tid``
    (once a ``KeyError``), a ``terminal`` without ``status`` (once counted
    as ``ok``), a record with a field its kind does not keep, a
    ``progress`` record, a kind no longer written, a string ``tid`` and a
    ``None`` migration ``version`` (once a ``TypeError``), a status outside
    the vocabulary (once counted silently), and a float ``tid`` (once
    accepted, setting ``next_travel_id`` to 2.5)."""
    for record, message in (
        ({"kind": "dispatch"}, "dispatch record has fields"),
        ({"kind": "terminal", "tid": 1}, "terminal record has fields"),
        ({"kind": "admit", "tid": 1, "seq": 0, "tenant": "batch"},
         "admit record has fields"),
        ({"kind": "progress", "tid": 1, "statuses": 32, "results": 8},
         "unknown journal record kind 'progress'"),
        ({"kind": "dispatch", "tid": "x", "child_of": None, "submit_time": 0.0},
         "dispatch record has tid='x'"),
        ({"kind": "migration", "mid": 1, "phase": "dual", "src": 0, "dst": 1,
          "vids": (4,), "version": None},
         "migration record has version=None"),
        ({"kind": "terminal", "tid": 1, "status": 7},
         "terminal record has status=7"),
        ({"kind": "admit", "tid": 1.5, "seq": 0}, "admit record has tid=1.5"),
    ):
        with pytest.raises(CorruptJournal, match=message):
            TraversalJournal(_framed(record))


def test_a_checkpoint_with_foreign_state_keys_raises_typed_error():
    """A checkpoint restores a ``JournalState`` only: a state with a key the
    dataclass lacks, without one of its fields, or with a value or nested
    record of the wrong type, is refused."""
    state = vars(JournalState())
    for checkpoint in (
        {"kind": "checkpoint", "state": {**state, "plans": {}}},
        {"kind": "checkpoint", "state": {k: v for k, v in state.items() if k != "epoch"}},
        {"kind": "checkpoint", "state": list(state)},
        {"kind": "checkpoint", "state": state, "seq": 1},
    ):
        with pytest.raises(CorruptJournal, match="journal checkpoint"):
            TraversalJournal(_framed(checkpoint))
    # the state's values are typed too, its nested records included
    for values, message in (
        ({"epoch": None}, "journal checkpoint has epoch=None"),
        ({"terminals": {"ok": 1.5}}, "journal checkpoint has terminals"),
        ({"queued": {"1": {"kind": "admit", "tid": 1, "seq": 0}}},
         "journal checkpoint has queued"),
        ({"queued": {1: {"kind": "admit", "tid": "x", "seq": 0}}},
         "admit record has tid='x'"),
        ({"running": {2: {"kind": "admit", "tid": 2, "seq": 0}}},
         "holds 'admit' where 'dispatch' records belong"),
    ):
        with pytest.raises(CorruptJournal, match=message):
            TraversalJournal(_framed({"kind": "checkpoint", "state": {**state, **values}}))
    assert TraversalJournal(_framed({"kind": "checkpoint", "state": state})).state == (
        JournalState()
    )


def test_a_refused_append_leaves_no_bytes():
    """An unknown kind is refused before a byte is written, so the journal
    still replays."""
    journal = TraversalJournal()
    journal.append("epoch", epoch=1)
    size = journal.size_bytes()
    with pytest.raises(ValueError, match="unknown journal record kind 'bogus'"):
        journal.append("bogus", tid=1)
    assert journal.size_bytes() == size
    assert journal.records_appended == 1
    assert journal.replay().epoch == 1


FLAG = {"ran": False}


def _set_flag():
    FLAG["ran"] = True


class _Hostile:
    """Pickles as a REDUCE that calls :func:`_set_flag` on load."""

    def __reduce__(self):
        return (_set_flag, ())


def test_hostile_record_raises_and_never_runs_code():
    """A framed record whose pickle calls a function on load is refused
    before the call, and so is one that names a class the journal once
    carried: a record holds plain values, so replay resolves no global."""
    from repro.lang import GTravel

    FLAG["ran"] = False
    record = {"kind": "admit", "tid": 1, "seq": 0, "payload": _Hostile()}
    storage = JournalFile(pack_record(pickle.dumps(record)))
    with pytest.raises(CorruptJournal, match="plain values only"):
        TraversalJournal(storage)
    assert FLAG["ran"] is False
    plan = GTravel.v(1).e("run").compile()
    record = {"kind": "dispatch", "tid": 2, "child_of": None, "submit_time": 0.0,
              "plan": plan}
    storage = JournalFile(pack_record(pickle.dumps(record)))
    with pytest.raises(CorruptJournal, match="repro.lang.plan.TraversalPlan"):
        TraversalJournal(storage)


def test_compaction_bounds_size_and_preserves_state():
    storage = JournalFile()
    journal = TraversalJournal(storage, checkpoint_interval=8)
    journal.append("epoch", epoch=2)
    journal.append("migration", mid=1, phase="dual", src=0, dst=1,
                   vids=(4, 5), version=3)
    journal.append("migration", mid=2, phase="aborted", src=1, dst=0,
                   vids=(6,), version=5)
    journal.append("admit", tid=60, seq=0)
    for tid in range(1, 40):
        _dispatch(journal, tid)
        journal.append("terminal", tid=tid, status="ok")
    _dispatch(journal, 100, submit_time=1.0)
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
    _dispatch(journal, 1)
    journal.compact()
    _dispatch(journal, 2, submit_time=0.5)
    journal.append("terminal", tid=1, status="ok")
    state = TraversalJournal(JournalFile(storage.read())).state
    assert set(state.running) == {2}
    assert state.terminals == {"ok": 1}


def test_journal_state_payload_roundtrip():
    """A checkpoint of a state with every field set replays to an equal
    state, and a second checkpoint of it writes the same bytes."""
    state = JournalState(
        epoch=3, next_travel_id=9,
        queued={1: {"kind": "admit", "tid": 1, "seq": 0}},
        running={2: {"kind": "dispatch", "tid": 2, "child_of": None,
                     "submit_time": 0.5}},
        terminals={"ok": 4},
        migrations={7: {"kind": "migration", "mid": 7, "phase": "done",
                        "src": 1, "dst": 2, "vids": (4, 5), "version": 11}},
        routing_version=11,
    )
    storage = JournalFile()
    journal = TraversalJournal(storage)
    journal._state = state
    journal.compact()
    checkpoint = storage.read()
    replayed = TraversalJournal(JournalFile(checkpoint))
    assert replayed.state == state
    replayed.compact()
    assert replayed.storage.read() == checkpoint


@functools.lru_cache(maxsize=None)
def _real_journal() -> bytes:
    """The bytes a journaled cluster wrote: admissions, dispatches and
    terminals of linear and composite travels, a shard migration's phases,
    a coordinator crash inside a running composite (epoch, orphaned child,
    resumed parent), then a checkpoint with records after it."""
    md = generate_metadata_graph(MetadataGraphConfig(users=4, files=64, seed=3))
    cluster = Cluster.build(
        md.graph,
        ClusterConfig(
            nservers=3, journal=True,
            scheduler_config=SchedulerConfig(max_inflight=1),
        ),
    )
    runtime, users = cluster.runtime, md.user_ids
    linear = GTravel.v(*users).e("run").e("hasExecutions").compile()
    composite = GTravel.v(*users).repeat(GTravel.s().e("run")).times(1).compile()
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:4])
    assert cluster.rebalance(1, 2, vids=vids).phase == "done"
    events = [cluster.submit(q)[1] for q in (composite, linear, linear)]
    runtime.schedule(1e-3, lambda: runtime.crash_server(0))
    runtime.schedule(2e-3, lambda: runtime.recover_server(0))
    runtime.run_until_complete(events[0])
    cluster.journal.compact()
    for event in events[1:] + [cluster.submit(linear)[1]]:
        runtime.run_until_complete(event)
    assert cluster.coordinator.epoch == 1
    return cluster.journal.storage.read()


def _replay(data: bytes) -> None:
    try:
        TraversalJournal(JournalFile(data))
    except CorruptJournal:
        pass


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_damaged_real_journal_raises_only_corrupt_journal(data):
    """Byte flips and truncations of a journal a cluster wrote either replay
    (a cut on a record boundary is a shorter valid journal) or raise the
    typed ``CorruptJournal``; nothing else escapes replay."""
    journal = bytearray(_real_journal())
    if data.draw(st.booleans(), label="truncate"):
        journal = journal[: data.draw(st.integers(0, len(journal) - 1), label="cut")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            at = data.draw(st.integers(0, len(journal) - 1), label="at")
            journal[at] ^= data.draw(st.integers(1, 255), label="mask")
    _replay(bytes(journal))
