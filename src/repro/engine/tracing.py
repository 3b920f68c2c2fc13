"""Coordinator-side execution tracing (paper §IV-C).

Every traversal execution is logged at the coordinator: creation events come
inside the parent's :class:`~repro.net.message.ExecStatus` (which also
terminates the parent), so

* a traversal is complete when every created execution has terminated **and**
  every declared result message has arrived;
* an execution created but not terminated within a timeout indicates a
  failure (silent loss), which triggers a restart of the whole traversal —
  the paper's stated recovery policy, with fine-grained recovery left as
  future work.

Message reordering is handled: a child's termination may arrive before the
parent's status registers its creation.

The synchronous baseline's barrier controller (§VI) is the second completion
protocol. Both trackers answer the coordinator's questions under the same
names — ``complete``, ``last_activity``, ``on_result``, ``progress``,
``owing_servers``, ``replayable`` — so the coordinator binds one class at
construction and never asks which engine it serves again; only the message
that feeds each protocol differs (``on_status`` / ``on_step_done``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.ids import COORDINATOR, ExecId, ServerId
from repro.net.message import ExecStatus, SyncStepDone


@dataclass
class ExecTracker:
    """Quiescence and progress accounting for one traversal attempt."""

    attempt: int = 0
    #: exec id -> (target server, level, origin server); origin COORDINATOR
    #: means the coordinator itself dispatched it (and can replay it).
    pending: dict[ExecId, tuple[ServerId, int, ServerId]] = field(default_factory=dict)
    early_terminated: set[ExecId] = field(default_factory=set)
    #: already-terminated ids, so duplicate reports from replayed executions
    #: are recognized instead of being mistaken for unknown executions.
    terminated_ids: set[ExecId] = field(default_factory=set)
    created_total: int = 0
    terminated_total: int = 0
    results_expected: int = 0
    results_received: int = 0
    last_activity: float = 0.0
    started: bool = False

    def register_initial(
        self, execs: list[tuple[ExecId, ServerId, int]], now: float
    ) -> None:
        """Record the executions the coordinator itself dispatched."""
        self.started = True
        self.last_activity = now
        for eid, server, level in execs:
            self._register(eid, server, level, origin=COORDINATOR)

    def _register(
        self, eid: ExecId, server: ServerId, level: int, origin: ServerId
    ) -> None:
        if eid in self.terminated_ids:
            return  # duplicate creation report from a replayed parent
        self.created_total += 1
        if eid in self.early_terminated:
            self.early_terminated.discard(eid)
            self.terminated_total += 1
            self.terminated_ids.add(eid)
            return
        self.pending[eid] = (server, level, origin)

    def on_status(self, msg: ExecStatus, now: float) -> bool:
        """Apply one status report; True when it terminated a new execution.

        Duplicate reports (from replayed executions) and stale attempts
        return False so callers do not double-count work — the per-traversal
        ``executions`` statistic is incremented only on fresh terminations.
        """
        if msg.attempt != self.attempt:
            return False  # stale report from a failed attempt
        self.last_activity = now
        if msg.exec_id in self.terminated_ids or msg.exec_id in self.early_terminated:
            return False  # duplicate report from a replayed execution
        for eid, server, level in msg.created:
            self._register(eid, server, level, origin=msg.server)
        self.results_expected += msg.results_sent
        if msg.exec_id in self.pending:
            del self.pending[msg.exec_id]
            self.terminated_total += 1
            self.terminated_ids.add(msg.exec_id)
        else:
            # Termination outracing the parent's creation report; _register
            # reconciles when the creation arrives.
            self.early_terminated.add(msg.exec_id)
        return True

    def on_result(self, now: float) -> None:
        self.results_received += 1
        self.last_activity = now

    @property
    def complete(self) -> bool:
        return (
            self.started
            and not self.pending
            and not self.early_terminated
            and self.results_received >= self.results_expected
        )

    def progress(self) -> dict[int, int]:
        """Outstanding execution count per traversal level (paper §IV-C:
        "the count of current unfinished traversal executions in each step
        can still help users estimate the remaining work and time")."""
        counts: Counter = Counter()
        for _, level, _ in self.pending.values():
            counts[level] += 1
        return dict(counts)

    def owing_servers(self) -> Iterator[ServerId]:
        """The target server of every outstanding execution (one entry per
        execution: the scheduler's backpressure signal counts them)."""
        return (target for target, _level, _origin in self.pending.values())

    def replayable(
        self, server: Optional[ServerId] = None
    ) -> list[tuple[ExecId, ServerId]]:
        """``(exec id, creator)`` of every lost execution the creator can be
        asked to re-send — all pending ones, or only those targeted at
        ``server``. Empty while orphan terminations are outstanding: their
        creation reports were lost, and replay cannot reconstruct those
        registrations (the caller falls back to a restart)."""
        if self.early_terminated:
            return []
        return [
            (eid, origin)
            for eid, (target, _level, origin) in self.pending.items()
            if server is None or target == server
        ]

    def idle_for(self, now: float) -> float:
        return now - self.last_activity

    def snapshot(self) -> dict[str, int]:
        return {
            "created": self.created_total,
            "terminated": self.terminated_total,
            "pending": len(self.pending),
            "results_expected": self.results_expected,
            "results_received": self.results_received,
        }


@dataclass
class SyncBarrierState:
    """Barrier bookkeeping for the synchronous engine's coordinator."""

    nservers: int
    attempt: int = 0
    level: int = 0
    done_servers: set[ServerId] = field(default_factory=set)
    #: batches each server should expect for the *next* level
    next_expected: Counter = field(default_factory=Counter)
    results_expected: int = 0
    results_received: int = 0
    finished_steps: bool = False
    last_activity: float = 0.0

    def on_step_done(
        self, msg: SyncStepDone, now: float, final_level: int
    ) -> Optional[Counter]:
        """Apply one server's step-done report. When it was the level's last
        and a next level exists, advance ``level`` and return the batch
        counts each server must expect there (the barrier to release);
        otherwise None — after the last server of ``final_level``,
        ``finished_steps`` is set."""
        if msg.level != self.level:
            return None  # late duplicate; cannot happen with exact batch counts
        self.done_servers.add(msg.server)
        self.last_activity = now
        for server, count in msg.sent_counts.items():
            self.next_expected[server] += count
        self.results_expected += msg.results_sent
        if len(self.done_servers) < self.nservers:
            return None
        # a short-circuited final step never runs its own barrier round —
        # the level n-1 senders already shipped the final results
        if self.level >= final_level:
            self.finished_steps = True
            return None
        expected = self.next_expected
        self.level += 1
        self.done_servers.clear()
        self.next_expected = Counter()
        return expected

    def on_result(self, now: float) -> None:
        self.results_received += 1
        self.last_activity = now

    @property
    def complete(self) -> bool:
        return self.finished_steps and self.results_received >= self.results_expected

    def progress(self) -> dict[int, int]:
        """Servers still owing their step-done report at the current level."""
        return {self.level: self.nservers - len(self.done_servers)}

    def owing_servers(self) -> Iterator[ServerId]:
        """One outstanding unit per server that has not reported the current
        level done; none once the last level finished."""
        if self.finished_steps:
            return iter(())
        return (s for s in range(self.nservers) if s not in self.done_servers)

    def replayable(
        self, server: Optional[ServerId] = None
    ) -> list[tuple[ExecId, ServerId]]:
        """The barrier has no per-execution replay: a restart is its only
        recovery."""
        return []
