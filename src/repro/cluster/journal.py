"""Durable traversal journal: the coordinator's write-ahead log.

The paper keeps backend stores crash-safe by running RocksDB on GPFS "for
fault tolerance against server failures" (§VII) but leaves the coordinator's
travel bookkeeping in memory. This module extends the same durability story
to the control plane: every coordinator state transition — scheduler
admission, launch, dispatch (with the executed plan), batched progress
deltas, terminal outcomes, epoch bumps — is appended to a journal *before*
the transition's side effects run, so a crashed coordinator can rebuild
what was queued, what was running, and what already finished.

Records use the framed format shared with checkpoints
(:func:`repro.storage.persist.pack_record`): ``[u32 len][u32 crc32]``
followed by a pickled dict with a ``kind`` discriminator. A torn or
bit-rotted record raises the typed
:class:`~repro.errors.CorruptJournal` on replay, and so does a record that
names any global outside the record vocabulary (:data:`RECORD_GLOBALS`):
replay never resolves, let alone calls, anything else.

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
from typing import Optional

from repro.errors import CorruptJournal
from repro.storage.persist import iter_records, pack_record


#: every global a journal record may name, by module: the plan, filter,
#: composite and planner-audit classes ``admit``/``dispatch`` records carry,
#: and numpy's dtype and scalar reconstructor (``numpy._core`` in numpy 2)
RECORD_GLOBALS = {
    "repro.lang.plan": {"Step", "TraversalPlan", "AggregateSpec"},
    "repro.lang.filters": {"FilterOp", "PropertyFilter", "FilterSet"},
    "repro.lang.composite": {
        "FilterNode", "RepeatOp", "UnionOp", "AsOp", "BackOp", "CompositePlan",
    },
    "repro.lang.optimizer": {"PlannedQuery", "Rewrite", "LevelEstimate", "PlanCost"},
    "numpy": {"dtype"},
    "numpy.core.multiarray": {"scalar"},
    "numpy._core.multiarray": {"scalar"},
}


class _RecordUnpickler(pickle.Unpickler):
    """Unpickles one record; a global outside :data:`RECORD_GLOBALS` raises."""

    def find_class(self, module: str, name: str):
        if name not in RECORD_GLOBALS.get(module, ()):
            raise CorruptJournal(
                f"journal record names {module}.{name}, outside the record vocabulary"
            )
        return super().find_class(module, name)


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
    including composite parents (``composite`` True) and their children
    (``child_of`` set). ``terminals`` counts finished travels by status.
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

    ``append(kind, **fields)`` frames and durably appends one record, then
    folds it into the journal's live :class:`JournalState` mirror (the same
    fold :meth:`replay` applies, so the mirror and a cold replay always
    agree). Record kinds:

    ``admit``     scheduler admission: tid, original plan, tenant,
                  priority, absolute deadline, admit_time, seq
    ``launch``    scheduler launched the travel (audit only)
    ``dispatch``  coordinator accepted a submit: tid, executed plan,
                  attempt, epoch, composite flag, child_of, submit_time
    ``progress``  batched exec-tracker deltas for a running travel
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

    def append(self, kind: str, **fields) -> None:
        record = {"kind": kind, **fields}
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
            if not isinstance(record, dict) or "kind" not in record:
                raise CorruptJournal("journal record is not a kind-tagged dict")
            self._fold(state, record)
        return state

    # -- the fold --------------------------------------------------------------

    @staticmethod
    def _fold(state: JournalState, record: dict) -> None:
        kind = record["kind"]
        if kind == "checkpoint":
            vars(state).update(record["state"])
        elif kind == "admit":
            tid = record["tid"]
            state.note_travel_id(tid)
            state.queued[tid] = record
        elif kind == "launch":
            pass  # audit only; the dispatch record that follows moves state
        elif kind == "dispatch":
            tid = record["tid"]
            state.note_travel_id(tid)
            qos = state.queued.pop(tid, None)
            entry = dict(record)
            if qos is not None:
                entry["qos"] = qos
            state.running[tid] = entry
        elif kind == "progress":
            tid = record["tid"]
            entry = state.running.get(tid)
            if entry is not None:
                prog = entry.setdefault("progress", {})
                for key in ("statuses", "results"):
                    if key in record:
                        prog[key] = prog.get(key, 0) + record[key]
        elif kind == "terminal":
            tid = record["tid"]
            state.queued.pop(tid, None)
            state.running.pop(tid, None)
            status = record.get("status", "ok")
            state.terminals[status] = state.terminals.get(status, 0) + 1
        elif kind == "epoch":
            state.epoch = record["epoch"]
        elif kind == "migration":
            mid = record["mid"]
            state.routing_version = max(
                state.routing_version, record.get("version", 0)
            )
            if record.get("phase") == "aborted":
                state.migrations.pop(mid, None)
            else:
                state.migrations[mid] = record
        else:
            raise CorruptJournal(f"unknown journal record kind {kind!r}")
