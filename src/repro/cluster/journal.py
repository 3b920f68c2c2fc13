"""Durable traversal journal: the coordinator's write-ahead log.

The paper keeps backend stores crash-safe by running RocksDB on GPFS "for
fault tolerance against server failures" (§VII) but leaves the coordinator's
travel bookkeeping in memory. This module extends the same durability story
to the control plane: every coordinator state transition recovery needs —
scheduler admission, dispatch, terminal outcomes, epoch bumps, shard
migration phases — is appended to a journal *before* the transition's side
effects run, so a crashed coordinator can rebuild what was queued, what was
running, and what already finished. A record holds only the fields a
recovery reader reads; the request itself (plan and QoS) lives in the
client session, which survives the crash beside the journal.

Records use the framed format shared with checkpoints
(:func:`repro.storage.persist.pack_record`): ``[u32 len][u32 crc32]``
followed by a one-byte kind tag and that kind's fixed little-endian
:mod:`struct` layout (:data:`RECORD_FIELDS`). The layout types every field,
so replay decodes plain values and nothing else. A torn or bit-rotted record
raises the typed :class:`~repro.errors.CorruptJournal` on replay, and so
does a CRC-valid payload the layout refuses: an unknown tag, a short or long
payload, an out-of-range status or phase index, a count past the payload's
end, or a checkpoint table holding a record of another kind.

The journal compacts itself: every ``checkpoint_interval`` appended records
it rewrites its storage as a single ``checkpoint`` record carrying the
reduced :class:`JournalState`, bounding replay work and journal size by the
number of *live* travels rather than the traversal history.

The bytes live in a :class:`JournalFile`, which sits outside the
coordinator's crash blast radius: the simulated stand-in for a journal file
on the shared filesystem.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CorruptJournal
from repro.storage.persist import iter_records, pack_record

#: the statuses a ``terminal`` record carries: a travel's end, or a dead
#: epoch's orphaned composite child
TERMINAL_STATUSES = ("ok", "failed", "cancelled", "orphaned")
#: the phases a ``migration`` record carries
MIGRATION_PHASES = ("copy", "dual", "cutover", "done", "aborted")

#: kind -> the fields its record keeps, those a recovery reader reads
#: (DESIGN.md §13), in layout order with their :mod:`struct` codes. A payload
#: is the kind's tag (its position here) then this layout: ``status`` and
#: ``phase`` are an index into their vocabulary, ``child_of`` a has-parent
#: flag and an id, and ``vids`` a count of the u64 ids after the fixed part.
#: :meth:`TraversalJournal.append` writes no other field a caller passes, and
#: no ``progress`` record (per-report deltas, which no reader reads); the
#: journal probe of ``benchmarks/perf`` still appends both.
RECORD_FIELDS: dict[str, Optional[dict[str, str]]] = {
    "admit": {"tid": "q", "seq": "q"},
    "dispatch": {"tid": "q", "child_of": "?q", "submit_time": "d"},
    "terminal": {"tid": "q", "status": "B"},
    "epoch": {"epoch": "q"},
    "migration": {"mid": "q", "phase": "B", "src": "q", "dst": "q", "vids": "I", "version": "q"},
    "progress": None,
}
_VOCABULARY = {"status": TERMINAL_STATUSES, "phase": MIGRATION_PHASES}
_KINDS = tuple(kind for kind, fields in RECORD_FIELDS.items() if fields)
_LAYOUTS = {kind: struct.Struct("<B" + "".join(RECORD_FIELDS[kind].values())) for kind in _KINDS}
_COUNT = struct.Struct("<I")
#: a checkpoint: its tag (after the kinds'), ``epoch``, ``next_travel_id``,
#: ``routing_version`` and one count per terminal status, then each
#: :class:`JournalState` table (of the kind keyed by the field) as a count
#: and that many records
_CHECKPOINT = struct.Struct(f"<BqQq{len(TERMINAL_STATUSES)}q")
_CHECKPOINT_TAG = bytes((len(_KINDS),))
_TABLES = {"queued": ("admit", "tid"), "running": ("dispatch", "tid"), "migrations": ("migration", "mid")}


def _read(layout: struct.Struct, data: bytes, at: int, what: str) -> tuple[tuple, int]:
    if len(data) - at < layout.size:
        raise CorruptJournal(f"journal {what} is short: {len(data) - at} of {layout.size} bytes")
    return layout.unpack_from(data, at), at + layout.size


def _pack(kind: str, record: dict) -> bytes:
    wire: list = [_KINDS.index(kind)]
    for name in RECORD_FIELDS[kind]:
        value = record[name]
        if name == "child_of":
            wire += (value is not None, 0 if value is None else value)
        elif name == "vids":
            wire.append(len(value))
        else:
            wire.append(_VOCABULARY[name].index(value) if name in _VOCABULARY else value)
    payload = _LAYOUTS[kind].pack(*wire)
    if kind == "migration":
        payload += struct.pack(f"<{len(record['vids'])}Q", *record["vids"])
    return payload


def _unpack(data: bytes, at: int = 0) -> tuple[dict, int]:
    """The record (of any kind but ``checkpoint``) at ``data[at]``, and the
    offset past it."""
    tag = data[at : at + 1]
    if not tag or tag[0] >= len(_KINDS):
        raise CorruptJournal(f"journal record at byte {at} has unknown kind tag {tag.hex()!r}")
    kind = _KINDS[tag[0]]
    wire, at = _read(_LAYOUTS[kind], data, at, f"{kind} record")
    wire = iter(wire[1:])
    record = {"kind": kind}
    for name in RECORD_FIELDS[kind]:
        value = next(wire)
        if name == "child_of":
            parent = next(wire)
            value = parent if value else None
        elif name == "vids":
            if 8 * value > len(data) - at:
                raise CorruptJournal(f"journal {kind} record counts {value} vids past its end")
            value, at = struct.unpack_from(f"<{value}Q", data, at), at + 8 * value
        elif name in _VOCABULARY:
            if value >= len(_VOCABULARY[name]):
                raise CorruptJournal(f"journal {kind} record has {name} index {value}")
            value = _VOCABULARY[name][value]
        record[name] = value
    return record, at


def _pack_checkpoint(state: JournalState) -> bytes:
    counts = [state.terminals.get(status, 0) for status in TERMINAL_STATUSES]
    parts = [_CHECKPOINT.pack(
        _CHECKPOINT_TAG[0], state.epoch, state.next_travel_id, state.routing_version, *counts
    )]
    for name, (kind, _key) in _TABLES.items():
        table = getattr(state, name)
        parts += [_COUNT.pack(len(table)), *(_pack(kind, r) for r in table.values())]
    return b"".join(parts)


def _unpack_checkpoint(data: bytes) -> tuple[JournalState, int]:
    (_tag, epoch, next_travel_id, version, *counts), at = _read(_CHECKPOINT, data, 0, "checkpoint")
    state = JournalState(
        epoch, next_travel_id, routing_version=version,
        terminals={status: n for status, n in zip(TERMINAL_STATUSES, counts) if n},
    )
    for name, (kind, key) in _TABLES.items():
        (count,), at = _read(_COUNT, data, at, f"checkpoint {name} count")
        if count * _LAYOUTS[kind].size > len(data) - at:
            raise CorruptJournal(f"journal checkpoint counts {count} {name} past its end")
        table = getattr(state, name)
        for _ in range(count):
            record, at = _unpack(data, at)
            if record["kind"] != kind:
                raise CorruptJournal(
                    f"journal checkpoint holds {record['kind']!r} where {kind!r} records belong"
                )
            table[record[key]] = record
    return state, at


class JournalFile:
    """Journal bytes held in memory but *outside* the coordinator's crash
    blast radius — the in-process model of a shared-filesystem journal."""

    def __init__(self, initial: bytes = b""):
        self._buf = bytearray(initial)

    def __len__(self) -> int:
        return len(self._buf)

    def append(self, data: bytes) -> None:
        self._buf.extend(data)

    def read(self) -> bytes:
        return bytes(self._buf)

    def reset(self, data: bytes) -> None:
        self._buf = bytearray(data)


@dataclass
class JournalState:
    """The reduced state a journal replay yields.

    ``queued`` maps travel id to its ``admit`` record (admitted by the
    scheduler, never launched). ``running`` maps travel id to its
    ``dispatch`` record (launched / directly submitted, no terminal yet) —
    including composite parents and their children (``child_of`` set).
    ``terminals`` counts finished travels by status.
    """

    epoch: int = 0
    next_travel_id: int = 1
    queued: dict[int, dict] = field(default_factory=dict)
    running: dict[int, dict] = field(default_factory=dict)
    terminals: dict[str, int] = field(default_factory=dict)
    #: live shard migrations: mid -> latest ``migration`` record (terminal
    #: records — ``aborted`` — remove the entry; ``done`` stays so recovery
    #: can idempotently re-apply its ownership override)
    migrations: dict[int, dict] = field(default_factory=dict)
    #: highest routing-table version any migration record carried; recovery
    #: restores the table past it so versions stay monotonic across crashes
    routing_version: int = 0

    def note_travel_id(self, travel_id: int) -> None:
        if travel_id + 1 > self.next_travel_id:
            self.next_travel_id = travel_id + 1


class TraversalJournal:
    """Append-only WAL of coordinator state transitions with compacting
    checkpoints.

    ``append(kind, **values)`` frames and durably appends one record of the
    kind's :data:`RECORD_FIELDS`, then folds the record its bytes decode to
    into the journal's live :class:`JournalState` mirror (the fold
    :meth:`replay` applies, so the mirror and a cold replay always agree).
    DESIGN.md §13 says who reads each kind's fields; a ``checkpoint``, the
    compaction snapshot, is written by the journal itself.
    """

    def __init__(self, storage: Optional[JournalFile] = None, *, checkpoint_interval: int = 256):
        self.storage = storage if storage is not None else JournalFile()
        self.checkpoint_interval = checkpoint_interval
        #: lifetime counters (survive compaction; used by the bench ablation)
        self.records_appended = 0
        self.bytes_appended = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0
        self._state = self._replay_bytes(self.storage.read())

    # -- writing ---------------------------------------------------------------

    def append(self, kind: str, **values) -> None:
        """An unknown ``kind``, or a value its layout cannot hold, is
        refused before a byte is written."""
        if kind not in RECORD_FIELDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        names = RECORD_FIELDS[kind]
        if names is None:
            return
        record = {name: values[name] for name in names}
        try:
            payload = _pack(kind, record)
        except (struct.error, TypeError, ValueError) as exc:
            raise ValueError(f"journal {kind} record cannot hold {record}: {exc}") from exc
        framed = pack_record(payload)
        self.storage.append(framed)
        self.records_appended += 1
        self.bytes_appended += len(framed)
        self._fold(self._state, _unpack(payload)[0])
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self.compact()

    def compact(self) -> None:
        """Rewrite the storage as one checkpoint record of the live state."""
        self.storage.reset(pack_record(_pack_checkpoint(self._state)))
        self.checkpoints_written += 1
        self._since_checkpoint = 0

    # -- reading ---------------------------------------------------------------

    def replay(self) -> JournalState:
        """Rebuild state from the durable bytes (what a recovering
        coordinator sees). Raises :class:`CorruptJournal` on a damaged
        record."""
        self._state = self._replay_bytes(self.storage.read())
        return self._state

    @property
    def state(self) -> JournalState:
        """The live mirror (identical to what :meth:`replay` would return)."""
        return self._state

    def size_bytes(self) -> int:
        return len(self.storage)

    def _replay_bytes(self, data: bytes) -> JournalState:
        state = JournalState()
        for payload in iter_records(data, CorruptJournal):
            checkpoint = payload[:1] == _CHECKPOINT_TAG
            decoded, end = (_unpack_checkpoint if checkpoint else _unpack)(payload)
            if end != len(payload):
                raise CorruptJournal(f"journal record has {len(payload) - end} bytes past its end")
            if checkpoint:  # the whole state, so it replaces what came before
                state = decoded
            else:
                self._fold(state, decoded)
        return state

    # -- the fold --------------------------------------------------------------

    @staticmethod
    def _fold(state: JournalState, record: dict) -> None:
        kind = record["kind"]
        if kind == "admit":
            tid = record["tid"]
            state.note_travel_id(tid)
            state.queued[tid] = record
        elif kind == "dispatch":
            tid = record["tid"]
            state.note_travel_id(tid)
            state.queued.pop(tid, None)
            state.running[tid] = record
        elif kind == "terminal":
            tid = record["tid"]
            state.queued.pop(tid, None)
            state.running.pop(tid, None)
            status = record["status"]
            state.terminals[status] = state.terminals.get(status, 0) + 1
        elif kind == "epoch":
            state.epoch = record["epoch"]
        else:  # migration
            mid = record["mid"]
            state.routing_version = max(state.routing_version, record["version"])
            if record["phase"] == "aborted":
                state.migrations.pop(mid, None)
            else:
                state.migrations[mid] = record
