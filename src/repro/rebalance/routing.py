"""The coordinator's versioned routing table: mutable vertex ownership.

The partitioner's ``owner(vid)`` is a pure hash (or greedy assignment)
fixed at build time. :class:`RoutingTable` wraps it with two mutable
layers that shard migration drives:

* **overrides** — vertices whose committed owner differs from the base
  partitioner (the result of a completed cutover);
* **dual entries** — vertices inside a migration's double-routing window:
  both the source (still the *primary*, where mid-traversal forwards go)
  and the target (which already holds a complete copy) serve them, and the
  coordinator dispatches level-0 work to both.

Every mutation bumps a monotonic ``version``. Versions never go backwards
— not even across a coordinator crash: recovery replays the journal's
migration records and restores the table *past* the highest journaled
version, so the migration fence holds across it: ``ShardMigrator._on_chunk``
drops (never applies, never acks) a chunk whose ``routing_version`` differs
from its migration's, counting ``rebalance.fenced``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import RebalanceError
from repro.ids import ServerId, VertexId


class RoutingTable:
    """Versioned ownership map over a base partitioner."""

    def __init__(self, base_owner: Callable[[VertexId], ServerId], nservers: int):
        self.base_owner = base_owner
        self.nservers = nservers
        #: monotonic table version; bumped by every ownership mutation
        self.version = 1
        #: committed post-cutover owners that differ from the base partitioner
        self._overrides: dict[VertexId, ServerId] = {}
        #: vertices in a double-routing window: vid -> (source, target)
        self._dual: dict[VertexId, tuple[ServerId, ServerId]] = {}
        self._publish()

    # -- routing (the hot path: every engine forward calls owner()) --------

    def _publish(self) -> None:
        """(Re)bind :attr:`owner` after a mutation: while no vertex is moved
        or migrating the table *is* the base partitioner, so its ``owner`` is
        published directly and a forward pays one lookup. Callers must read
        ``routing.owner`` when they use it, never keep it across mutations."""
        moved = self._dual or self._overrides
        self.owner = self._moved_owner if moved else self.base_owner

    def _moved_owner(self, vid: VertexId) -> ServerId:
        """The vertex's *primary* owner right now (:attr:`owner` while any
        dual window or override exists).

        During a double-routing window the source stays primary — it held
        the complete copy first, and keeping forwards on one side means a
        cutover is a single atomic flip rather than a gradual drift.
        """
        dual = self._dual.get(vid)
        if dual is not None:
            return dual[0]
        override = self._overrides.get(vid)
        if override is not None:
            return override
        return self.base_owner(vid)

    def owners(self, vid: VertexId) -> tuple[ServerId, ...]:
        """Every server that can serve the vertex: ``(source, target)``
        inside a double-routing window, else the single primary. The
        coordinator dispatches level-0 work to all of them and relies on
        set-union result merging for dedup."""
        dual = self._dual.get(vid)
        if dual is not None:
            return dual
        return (self.owner(vid),)

    def _bump(self) -> int:
        self.version += 1
        return self.version

    # -- migration-driven mutations ----------------------------------------

    def begin_dual(
        self, vids: Iterable[VertexId], src: ServerId, dst: ServerId
    ) -> int:
        """Open the double-routing window for ``vids``; returns the new
        version. Every vertex must currently be owned by ``src`` and not
        already migrating."""
        vids = list(vids)
        if src == dst:
            raise RebalanceError(f"source and target are both server {src}")
        for server in (src, dst):
            if not 0 <= server < self.nservers:
                raise RebalanceError(f"server {server} is out of range")
        for vid in vids:
            if vid in self._dual:
                raise RebalanceError(f"vertex {vid} is already migrating")
            if self.owner(vid) != src:
                raise RebalanceError(
                    f"vertex {vid} is owned by server {self.owner(vid)}, "
                    f"not migration source {src}"
                )
        for vid in vids:
            self._dual[vid] = (src, dst)
        self._publish()
        return self._bump()

    def cutover(self, vids: Iterable[VertexId], dst: ServerId) -> int:
        """Atomically commit ``vids`` to ``dst``: the dual window closes and
        the target becomes the single owner, in one version bump."""
        vids = list(vids)
        for vid in vids:
            dual = self._dual.get(vid)
            if dual is None or dual[1] != dst:
                raise RebalanceError(
                    f"vertex {vid} has no double-routing window targeting "
                    f"server {dst}"
                )
        for vid in vids:
            del self._dual[vid]
            if self.base_owner(vid) == dst:
                self._overrides.pop(vid, None)  # back on the hash owner
            else:
                self._overrides[vid] = dst
        self._publish()
        return self._bump()

    def abort_dual(self, vids: Iterable[VertexId]) -> int:
        """Close a double-routing window without committing: ownership
        reverts to whatever it was before ``begin_dual``."""
        for vid in vids:
            self._dual.pop(vid, None)
        self._publish()
        return self._bump()

    def apply_override(self, vids: Iterable[VertexId], dst: ServerId) -> None:
        """Recovery path: re-apply a journaled cutover's committed owners
        without a version bump (the caller restores the version high-water
        separately via :meth:`restore_version`)."""
        for vid in vids:
            self._dual.pop(vid, None)
            if self.base_owner(vid) == dst:
                self._overrides.pop(vid, None)
            else:
                self._overrides[vid] = dst
        self._publish()

    def restore_version(self, floor: int) -> None:
        """Advance the version past a journaled high-water mark (never
        backwards — monotonicity holds across coordinator crashes)."""
        if floor + 1 > self.version:
            self.version = floor + 1

    def on_coordinator_crash(self) -> None:
        """The table is coordinator state: a host crash loses the in-memory
        overrides and dual windows. Recovery rebuilds them from the
        journal's migration records (``ShardMigrator.recover``)."""
        self._overrides.clear()
        self._dual.clear()
        self._publish()

    # -- introspection ------------------------------------------------------

    @property
    def dual_count(self) -> int:
        return len(self._dual)

    @property
    def override_count(self) -> int:
        return len(self._overrides)
