"""Unit tests for the durable traversal journal (WAL framing, CRC
integrity, the fixed-layout record codec, replay fold, and compaction)."""

import functools
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.journal import (
    MIGRATION_PHASES,
    TERMINAL_STATUSES,
    JournalFile,
    JournalState,
    TraversalJournal,
)
from repro.errors import CorruptJournal
from repro.lang import GTravel
from repro.sched import SchedulerConfig
from repro.storage.persist import iter_records, pack_record
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
    with pytest.raises(CorruptJournal, match="admit record is short"):
        TraversalJournal(storage)
    storage = JournalFile(
        pack_record(pickle.dumps(["no", "kind", "tag"]))
    )
    with pytest.raises(CorruptJournal, match="unknown kind tag"):
        TraversalJournal(storage)
    storage = JournalFile(
        pack_record(pickle.dumps({"kind": "wat"}))
    )
    with pytest.raises(CorruptJournal, match="unknown kind tag"):
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
    accepted, setting ``next_travel_id`` to 2.5). Pickled, every one is
    refused at its first byte, which tags no kind."""
    for record, message in (
        ({"kind": "dispatch"}, "unknown kind tag"),
        ({"kind": "terminal", "tid": 1}, "unknown kind tag"),
        ({"kind": "admit", "tid": 1, "seq": 0, "tenant": "batch"},
         "unknown kind tag"),
        ({"kind": "progress", "tid": 1, "statuses": 32, "results": 8},
         "unknown kind tag"),
        ({"kind": "dispatch", "tid": "x", "child_of": None, "submit_time": 0.0},
         "unknown kind tag"),
        ({"kind": "migration", "mid": 1, "phase": "dual", "src": 0, "dst": 1,
          "vids": (4,), "version": None},
         "unknown kind tag"),
        ({"kind": "terminal", "tid": 1, "status": 7},
         "unknown kind tag"),
        ({"kind": "admit", "tid": 1.5, "seq": 0}, "unknown kind tag"),
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
        with pytest.raises(CorruptJournal, match="unknown kind tag"):
            TraversalJournal(_framed(checkpoint))
    # the state's values are typed too, its nested records included
    for values, message in (
        ({"epoch": None}, "unknown kind tag"),
        ({"terminals": {"ok": 1.5}}, "unknown kind tag"),
        ({"queued": {"1": {"kind": "admit", "tid": 1, "seq": 0}}},
         "unknown kind tag"),
        ({"queued": {1: {"kind": "admit", "tid": "x", "seq": 0}}},
         "unknown kind tag"),
        ({"running": {2: {"kind": "admit", "tid": 2, "seq": 0}}},
         "unknown kind tag"),
    ):
        with pytest.raises(CorruptJournal, match=message):
            TraversalJournal(_framed({"kind": "checkpoint", "state": {**state, **values}}))
    # the codec's own checkpoint of an empty state restores one
    empty = TraversalJournal()
    empty.compact()
    assert TraversalJournal(JournalFile(empty.storage.read())).state == JournalState()


def test_a_refused_append_leaves_no_bytes():
    """An unknown kind, or a value its kind's layout cannot hold, is refused
    before a byte is written, so the journal still replays."""
    journal = TraversalJournal()
    journal.append("epoch", epoch=1)
    size = journal.size_bytes()
    assert size == len(journal.storage.read())
    with pytest.raises(ValueError, match="unknown journal record kind 'bogus'"):
        journal.append("bogus", tid=1)
    for kind, values in (
        ("admit", {"tid": "x", "seq": 0}),
        ("terminal", {"tid": 1, "status": "lost"}),
        ("migration", {"mid": 1, "phase": "dual", "src": 0, "dst": 1,
                       "vids": (4, 2**64), "version": 2}),
    ):
        with pytest.raises(ValueError, match=f"journal {kind} record cannot hold"):
            journal.append(kind, **values)
    assert journal.size_bytes() == size
    assert journal.records_appended == 1
    assert journal.replay().epoch == 1


def test_a_payload_its_layout_refuses_raises_typed_error():
    """A CRC-valid payload is decoded by its kind's fixed layout alone: an
    unknown tag, a payload short or long by a byte, a status or phase index
    past its vocabulary, a count the bytes left cannot hold (refused before
    anything is allocated for it) and a checkpoint table holding a record of
    another kind are each refused."""
    journal = TraversalJournal(checkpoint_interval=1 << 30)
    journal.append("admit", tid=1, seq=0)
    journal.append("terminal", tid=1, status="ok")
    journal.append("migration", mid=1, phase="dual", src=0, dst=1,
                   vids=(4, 5), version=3)
    admit, terminal, migration = iter_records(journal.storage.read())
    journal.compact()
    (checkpoint,) = iter_records(journal.storage.read())
    # a checkpoint is its 57-byte head (tag, epoch, next travel id, routing
    # version, four terminal counts), then a u32 count and the records of
    # each table: queued admits, running dispatches, migrations
    head, empty_queued, tables = checkpoint[:57], checkpoint[57:61], checkpoint[61:]
    assert empty_queued == struct.pack("<I", 0)
    too_many_vids = bytearray(migration)
    struct.pack_into("<I", too_many_vids, 26, 2**32 - 1)
    for payload, message in (
        (b"", "unknown kind tag ''"),
        (b"\x06" + admit[1:], "unknown kind tag '06'"),
        (admit[:-1], "admit record is short"),
        (admit + b"\x00", "1 bytes past its end"),
        (terminal[:-1] + bytes((len(TERMINAL_STATUSES),)), "status index 4"),
        (migration[:9] + bytes((len(MIGRATION_PHASES),)) + migration[10:],
         "phase index 5"),
        (bytes(too_many_vids), "counts 4294967295 vids past its end"),
        (head + struct.pack("<I", 2**32 - 1) + tables, "counts 4294967295 queued"),
        (head + struct.pack("<II", 0, 1) + migration + struct.pack("<I", 0),
         "holds 'migration' where 'dispatch' records belong"),
        (head + struct.pack("<I", 1) + checkpoint, "unknown kind tag '05'"),
        (head[:-1], "checkpoint is short: 56 of 57 bytes"),
        (head + b"\x00\x00", "checkpoint queued count is short"),
    ):
        with pytest.raises(CorruptJournal, match=message):
            TraversalJournal(JournalFile(pack_record(payload)))


_ID = st.sampled_from((0, 2**63 - 1)) | st.integers(0, 2**63 - 1)
_VID = st.sampled_from((0, 2**64 - 1)) | st.integers(0, 2**64 - 1)
_STEPS = st.one_of(
    st.builds(lambda tid, seq: ("admit", {"tid": tid, "seq": seq}), _ID, _ID),
    st.builds(
        lambda tid, child_of, submit_time: (
            "dispatch", {"tid": tid, "child_of": child_of, "submit_time": submit_time},
        ),
        _ID, st.none() | _ID,
        st.integers(0, 2**53) | st.floats(allow_nan=False),
    ),
    st.builds(lambda tid, status: ("terminal", {"tid": tid, "status": status}),
              _ID, st.sampled_from(TERMINAL_STATUSES)),
    st.builds(lambda epoch: ("epoch", {"epoch": epoch}), st.integers(-(2**63), 2**63 - 1)),
    st.builds(
        lambda mid, phase, src, dst, vids, version: ("migration", {
            "mid": mid, "phase": phase, "src": src, "dst": dst, "vids": tuple(vids),
            "version": version,
        }),
        _ID, st.sampled_from(MIGRATION_PHASES), st.integers(0, 63), st.integers(0, 63),
        st.lists(_VID, max_size=4), _ID,
    ),
    st.just(("compact", None)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(_STEPS, max_size=24))
def test_codec_roundtrips_every_kind_at_its_extremes(steps):
    """Records of every kind at the edges of their layout (vids 0 and
    2**64-1, ``child_of`` unset and set, every status and phase, int and
    float ``submit_time``), compacted at random points: the live mirror is
    the fold of the values appended (``submit_time`` read back as a float),
    a cold replay sees it, and the replayed state compacts to the bytes the
    live one does."""
    journal = TraversalJournal(checkpoint_interval=1 << 30)
    expected = JournalState()
    for kind, values in steps:
        if kind == "compact":
            journal.compact()
            continue
        journal.append(kind, **values)
        if kind == "dispatch":
            values = {**values, "submit_time": float(values["submit_time"])}
        TraversalJournal._fold(expected, {"kind": kind, **values})
    live = journal.state
    assert live == expected
    cold = TraversalJournal(JournalFile(journal.storage.read()))
    assert cold.state == live
    journal.compact()
    cold.compact()
    assert cold.storage.read() == journal.storage.read()
    assert journal.replay() == live


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
    carried: replay decodes fixed layouts, so it resolves no global."""
    from repro.lang import GTravel

    FLAG["ran"] = False
    record = {"kind": "admit", "tid": 1, "seq": 0, "payload": _Hostile()}
    storage = JournalFile(pack_record(pickle.dumps(record)))
    with pytest.raises(CorruptJournal, match="unknown kind tag"):
        TraversalJournal(storage)
    assert FLAG["ran"] is False
    plan = GTravel.v(1).e("run").compile()
    record = {"kind": "dispatch", "tid": 2, "child_of": None, "submit_time": 0.0,
              "plan": plan}
    storage = JournalFile(pack_record(pickle.dumps(record)))
    with pytest.raises(CorruptJournal, match="unknown kind tag"):
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


def _flip(data, buf: bytearray) -> None:
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        at = data.draw(st.integers(0, len(buf) - 1), label="at")
        buf[at] ^= data.draw(st.integers(1, 255), label="mask")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_damaged_real_journal_raises_only_corrupt_journal(data):
    """Byte flips and truncations of a journal a cluster wrote either replay
    (a cut on a record boundary is a shorter valid journal) or raise the
    typed ``CorruptJournal``; nothing else escapes replay. So does one
    record's payload truncated, extended or flipped and then re-framed with
    a valid CRC, which leaves the decoder alone to refuse it: a payload cut
    or grown by any byte always is."""
    journal = bytearray(_real_journal())
    damage = data.draw(st.sampled_from(("truncate", "flip", "payload")), label="damage")
    if damage == "truncate":
        journal = journal[: data.draw(st.integers(0, len(journal) - 1), label="cut")]
    elif damage == "flip":
        _flip(data, journal)
    else:
        payloads = [bytearray(p) for p in iter_records(bytes(journal))]
        payload = data.draw(st.sampled_from(payloads), label="record")
        how = data.draw(st.sampled_from(("truncate", "extend", "flip")), label="how")
        if how == "flip":
            _flip(data, payload)
        else:
            if how == "truncate":
                del payload[data.draw(st.integers(0, len(payload) - 1), label="cut"):]
            else:
                payload += data.draw(st.binary(min_size=1, max_size=16), label="tail")
            with pytest.raises(CorruptJournal):
                TraversalJournal(JournalFile(b"".join(map(pack_record, payloads))))
            return
        journal = b"".join(map(pack_record, payloads))
    _replay(bytes(journal))
