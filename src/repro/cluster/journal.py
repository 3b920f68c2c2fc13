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
followed by a pickled dict of plain values with a ``kind`` discriminator. A
torn or bit-rotted record raises the typed
:class:`~repro.errors.CorruptJournal` on replay, and so does a record whose
keys are not its kind's, one with a field of the wrong type (a checkpoint's
nested records included), or one that names any global at all: replay never
resolves, let alone calls, a class or function.

The journal compacts itself: every ``checkpoint_interval`` appended records
it rewrites its storage as a single ``checkpoint`` record carrying the
reduced :class:`JournalState`, bounding replay work and journal size by the
number of *live* travels rather than the traversal history.

The bytes live in a :class:`JournalFile`, which sits outside the
coordinator's crash blast radius: the simulated stand-in for a journal file
on the shared filesystem.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import CorruptJournal
from repro.storage.persist import iter_records, pack_record


def _is_int(value) -> bool:
    """An int, not a bool."""
    return type(value) is int


def _is_time(value) -> bool:
    """A virtual time: a float, or an int (not a bool)."""
    return type(value) in (int, float)


def _is_optional_int(value) -> bool:
    return value is None or type(value) is int


def _is_vids(value) -> bool:
    return type(value) is tuple and all(type(v) is int for v in value)


def _one_of(*vocabulary: str) -> Callable[[object], bool]:
    return lambda value: type(value) is str and value in vocabulary


#: the statuses a ``terminal`` record carries: a travel's end, or a dead
#: epoch's orphaned composite child
TERMINAL_STATUSES = ("ok", "failed", "cancelled", "orphaned")
#: the phases a ``migration`` record carries
MIGRATION_PHASES = ("copy", "dual", "cutover", "done", "aborted")

#: kind -> the fields its record keeps, those a recovery reader reads
#: (DESIGN.md §13), each with the type replay checks (taken from what the
#: writers pass). :meth:`TraversalJournal.append` writes no other field a
#: caller passes, so no plan or other object reaches the bytes. A
#: ``progress`` record (per-report deltas, which no reader reads) is not
#: written at all; the journal probe of ``benchmarks/perf`` still appends it.
RECORD_FIELDS: dict[str, Optional[dict[str, Callable[[object], bool]]]] = {
    "admit": {"tid": _is_int, "seq": _is_int},
    "dispatch": {"tid": _is_int, "child_of": _is_optional_int, "submit_time": _is_time},
    "terminal": {"tid": _is_int, "status": _one_of(*TERMINAL_STATUSES)},
    "epoch": {"epoch": _is_int},
    "migration": {
        "mid": _is_int,
        "phase": _one_of(*MIGRATION_PHASES),
        "src": _is_int,
        "dst": _is_int,
        "vids": _is_vids,
        "version": _is_int,
    },
    "progress": None,
}
#: the keys replay accepts per kind: a written kind's fields, or a
#: checkpoint's ``state`` (which holds :class:`JournalState`'s fields)
_RECORD_KEYS = {kind: {"kind", *names} for kind, names in RECORD_FIELDS.items() if names}
_RECORD_KEYS["checkpoint"] = {"kind", "state"}
#: the :class:`JournalState` tables of records, and the kind each holds
_STATE_TABLES = {"queued": "admit", "running": "dispatch", "migrations": "migration"}


def _check_record(record, kind: Optional[str] = None) -> None:
    """Raise :class:`CorruptJournal` unless ``record`` is a well-typed
    record — of ``kind``, when given (a checkpoint's nested records)."""
    if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
        raise CorruptJournal("journal record is not a kind-tagged dict")
    got = record["kind"]
    keys = _RECORD_KEYS.get(got)
    if keys is None:
        raise CorruptJournal(f"unknown journal record kind {got!r}")
    if kind is not None and got != kind:
        raise CorruptJournal(f"journal checkpoint holds {got!r} where {kind!r} records belong")
    if record.keys() != keys:
        raise CorruptJournal(f"journal {got} record has fields {sorted(map(str, record))}")
    if got == "checkpoint":
        _check_state(record["state"])
        return
    for name, valid in RECORD_FIELDS[got].items():
        if not valid(record[name]):
            raise CorruptJournal(f"journal {got} record has {name}={record[name]!r}")


def _check_state(saved) -> None:
    """A checkpoint restores a well-typed :class:`JournalState` only."""
    if not isinstance(saved, dict) or saved.keys() != vars(JournalState()).keys():
        raise CorruptJournal("journal checkpoint does not hold a JournalState")
    for name, value in saved.items():
        if name == "terminals":
            ok = type(value) is dict and all(
                status in TERMINAL_STATUSES and _is_int(count)
                for status, count in value.items()
            )
        elif name in _STATE_TABLES:
            ok = type(value) is dict and all(map(_is_int, value))
        else:
            ok = _is_int(value)
        if not ok:
            raise CorruptJournal(f"journal checkpoint has {name}={value!r}")
        if name in _STATE_TABLES:
            for record in value.values():
                _check_record(record, _STATE_TABLES[name])


class _RecordUnpickler(pickle.Unpickler):
    """Unpickles one record of plain values; any global raises."""

    def find_class(self, module: str, name: str):
        raise CorruptJournal(
            f"journal record names {module}.{name}; records hold plain values only"
        )


class JournalFile:
    """Journal bytes held in memory but *outside* the coordinator's crash
    blast radius — the in-process model of a shared-filesystem journal."""

    def __init__(self, initial: bytes = b""):
        self._buf = bytearray(initial)

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
    kind's :data:`RECORD_FIELDS`, then folds it into the journal's live
    :class:`JournalState` mirror (the same fold :meth:`replay` applies, so
    the mirror and a cold replay always agree). Record kinds, each with only
    the fields recovery reads:

    ``admit``     scheduler admission: tid, seq (readmission order)
    ``dispatch``  coordinator launched an attempt: tid, child_of (a
                  composite child is orphaned, not resumed), submit_time
    ``terminal``  travel finished: tid, status (ok/failed/cancelled, or
                  orphaned: a dead epoch's composite child)
    ``epoch``     a recovered coordinator started this epoch
    ``migration`` a shard migration's phase transition: mid, phase
                  (copy/dual/cutover/done/aborted), src, dst, vids, and
                  the routing-table version the step commits
    ``checkpoint`` compaction snapshot (written by the journal itself)
    """

    def __init__(
        self,
        storage: Optional[JournalFile] = None,
        *,
        checkpoint_interval: int = 256,
    ):
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
        """An unknown ``kind`` is refused before a byte is written."""
        if kind not in RECORD_FIELDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        names = RECORD_FIELDS[kind]
        if names is None:
            return
        record = {"kind": kind, **{name: values[name] for name in names}}
        framed = pack_record(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        self.storage.append(framed)
        self.records_appended += 1
        self.bytes_appended += len(framed)
        self._fold(self._state, record)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self.compact()

    def compact(self) -> None:
        """Rewrite the storage as one checkpoint record of the live state."""
        # the state's own attribute dict, in field order, is the payload;
        # the fold restores it with one update
        record = {"kind": "checkpoint", "state": vars(self._state)}
        framed = pack_record(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        self.storage.reset(framed)
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
        return len(self.storage.read())

    def _replay_bytes(self, data: bytes) -> JournalState:
        state = JournalState()
        for payload in iter_records(data, CorruptJournal):
            try:
                record = _RecordUnpickler(io.BytesIO(payload)).load()
            except Exception as exc:
                raise CorruptJournal(f"undecodable journal record: {exc}") from exc
            _check_record(record)
            self._fold(state, record)
        return state

    # -- the fold --------------------------------------------------------------

    @staticmethod
    def _fold(state: JournalState, record: dict) -> None:
        kind = record["kind"]
        if kind == "checkpoint":
            saved = dict(record["state"])
            # rebuild each record under this module's "kind" key: pickle
            # memoises by identity, so the next checkpoint of the replayed
            # state then writes the bytes the live state's would
            for name in _STATE_TABLES:
                saved[name] = {k: {"kind": r["kind"], **r} for k, r in saved[name].items()}
            vars(state).update(saved)
        elif kind == "admit":
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

