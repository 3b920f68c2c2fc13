"""Common exception types for the GraphTrek reproduction.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class StorageError(ReproError):
    """Raised by the key-value / graph storage layer."""


class KeyNotFound(StorageError):
    """A requested key (or vertex) does not exist in the store."""


class CorruptCheckpoint(StorageError):
    """A checkpoint failed its integrity check on restore.

    Raised when an SSTable file or the manifest is truncated, fails its
    CRC32, or disagrees with the manifest's recorded shape. A damaged
    checkpoint is surfaced as a typed error instead of silently restoring
    a truncated store.
    """


class CorruptAdjacencyBlock(StorageError):
    """A columnar adjacency block failed its integrity check on decode.

    Raised when a block's magic byte is wrong, a varint runs past the end
    of the buffer, the entry count disagrees with the payload, trailing
    bytes follow the checksum, or the CRC32 does not match. Decoding fails
    loudly rather than surfacing a silently-garbled neighbor list.
    """


class UnknownEdgeLayout(StorageError):
    """An ``edge_layout`` name is not one of the registered layouts.

    Raised at configuration time (GraphStore construction, cluster build,
    checkpoint restore) so a typo fails with the list of valid names
    instead of silently running — or restoring — under the default layout.
    Carries the offending ``name`` and the valid ``choices``.
    """

    def __init__(self, name: object, choices: tuple[str, ...]):
        super().__init__(
            f"unknown edge layout {name!r}; valid layouts: {', '.join(choices)}"
        )
        self.name = name
        self.choices = choices


class EdgeLayoutMismatch(StorageError):
    """An edge record arriving from outside a store is not of its layout.

    Raised by ``GraphStore.import_vertices`` and
    ``GraphStore.rebuild_edge_accounting`` when an entry-per-edge record
    reaches a columnar store, or an adjacency block a grouped or
    interleaved one: the store's read path looks only in its own key
    region, so absorbing the record would make the edge silently
    unreadable. Carries the store's ``layout``, the ``vid`` and the
    record's key ``tag``.
    """

    def __init__(self, layout: str, vid: int, tag: bytes):
        super().__init__(
            f"edge record tagged {tag!r} of vertex {vid} does not belong to "
            f"a {layout!r} store"
        )
        self.layout = layout
        self.vid = vid
        self.tag = tag


class CorruptJournal(StorageError):
    """A traversal-journal record failed its integrity check on replay.

    Raised when a record's length prefix runs past the end of the journal,
    its CRC32 does not match, or its payload does not fit its kind's fixed
    layout: an unknown kind tag, a payload short or long, an out-of-range
    status or phase index, a count past the payload's end, or a checkpoint
    table record of another kind. Replay fails loudly rather than silently
    rebuilding coordinator state from a damaged log.
    """


class GraphError(ReproError):
    """Raised for invalid property-graph construction or lookups."""


class PartitionError(ReproError):
    """Raised by graph partitioners for invalid configurations."""


class QueryError(ReproError):
    """Raised when a GTravel query is malformed or cannot be compiled."""


class UnsupportedProfileTarget(QueryError):
    """``profile()`` was asked to run a plan kind it cannot attribute.

    Composite plans (repeat/union/back) fan out into per-child linear
    traversals; the parent has no single step timeline to profile. Carries
    the offending plan ``kind`` and a ``hint`` naming the supported
    alternative (``explain()`` for the operator tree, or profiling the
    child plans individually).
    """

    def __init__(self, kind: str, hint: str):
        super().__init__(f"profile() does not support {kind} plans: {hint}")
        self.kind = kind
        self.hint = hint


class TraversalError(ReproError):
    """Raised when a distributed traversal fails at execution time."""


class TraversalFailed(TraversalError):
    """A traversal was detected as failed (lost execution / timeout).

    Carries ``travel_id`` and a human-readable ``reason`` so that callers
    (and the coordinator's restart logic) can act on it.
    """

    def __init__(self, travel_id: int, reason: str):
        super().__init__(f"traversal {travel_id} failed: {reason}")
        self.travel_id = travel_id
        self.reason = reason


class AdmissionRejected(TraversalError):
    """The scheduler's bounded pending queue is full; the submission was
    refused before a travel id was assigned.

    Carries the ``tenant`` that submitted and a ``reason`` naming the limit
    that tripped, so multi-tenant clients can back off per tenant.
    """

    def __init__(self, tenant: str, reason: str):
        super().__init__(f"submission rejected for tenant {tenant!r}: {reason}")
        self.tenant = tenant
        self.reason = reason


class RepeatDepthExceeded(TraversalError):
    """A ``repeat(...).until(...)`` loop hit its depth cap with vertices
    still failing the exit predicate.

    The cap (``max_depth``, default 32) is the documented guarantee that an
    unsatisfiable predicate terminates with a typed error instead of walking
    the graph forever. Carries ``travel_id`` and the offending ``max_depth``.
    """

    def __init__(self, travel_id: int, max_depth: int):
        super().__init__(
            f"traversal {travel_id}: repeat().until() exceeded max_depth="
            f"{max_depth} with unsatisfied vertices still in the frontier"
        )
        self.travel_id = travel_id
        self.max_depth = max_depth


class TraversalCancelled(TraversalError):
    """A traversal was cancelled (deadline exceeded or explicit cancel)
    before it produced a result.

    Mirrors :class:`TraversalFailed`: carries ``travel_id`` and a
    human-readable ``reason``. Cancellation is clean — outstanding
    executions quiesce through the stale-attempt machinery and no partial
    result is ever surfaced.
    """

    def __init__(self, travel_id: int, reason: str):
        super().__init__(f"traversal {travel_id} cancelled: {reason}")
        self.travel_id = travel_id
        self.reason = reason


class RebalanceError(ReproError):
    """Raised by the shard-migration subsystem (:mod:`repro.rebalance`) for
    invalid migration requests or unrecoverable migration failures.

    Carries the migration id (``mid``, None for pre-admission validation
    failures) and a human-readable ``reason``.
    """

    def __init__(self, reason: str, mid=None):
        super().__init__(
            f"migration {mid} failed: {reason}" if mid is not None else reason
        )
        self.mid = mid
        self.reason = reason


class TraceError(ReproError):
    """Raised when a recorded traversal trace cannot be reconstructed into a
    well-formed execution DAG (orphan executions, cycles)."""
