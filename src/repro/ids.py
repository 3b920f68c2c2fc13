"""Identifier helpers shared across the library.

Vertices and edges are identified by plain integers (``VertexId`` /
``EdgeId``) to keep hot paths allocation-free; servers by small integers
(``ServerId``); traversals by monotonically increasing ``TravelId`` values
handed out by the coordinator.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator

VertexId = int
EdgeId = int
ServerId = int
TravelId = int
ExecId = int

#: The coordinator actor's address. The coordinator is not a backend server
#: (it lives on ``coordinator_server`` but has its own handler), so it gets
#: its own key in the runtime's handler table; senders and fault injectors
#: use this constant instead of a bare ``-1``.
COORDINATOR: ServerId = -1


class IdAllocator:
    """Monotonic id allocator with an optional starting value.

    Used for travel ids and execution ids, where uniqueness within one
    cluster lifetime is all that is required. Allocation is thread-safe:
    on the threaded runtime several timer/worker threads can race into the
    same allocator (concurrent submissions, deadline callbacks), and a bare
    ``itertools.count`` gives no atomicity guarantee for ``next()`` across
    implementations — two racing callers could observe the same id.
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def next(self) -> int:
        """Return the next unused id."""
        with self._lock:
            return next(self._counter)

    def take(self, n: int) -> list[int]:
        """Return ``n`` fresh ids as a contiguous list."""
        with self._lock:
            return [next(self._counter) for _ in range(n)]

    def stream(self) -> Iterator[int]:
        """Return the underlying infinite iterator.

        The iterator shares state with the allocator but bypasses its lock;
        use it only from single-threaded contexts (the simulated runtime).
        """
        return self._counter
