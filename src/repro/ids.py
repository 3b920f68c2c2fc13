"""Identifier helpers shared across the library.

Vertices and edges are identified by plain integers (``VertexId`` /
``EdgeId``) to keep hot paths allocation-free; servers by small integers
(``ServerId``); traversals by monotonically increasing ``TravelId`` values
handed out by the coordinator.
"""

from __future__ import annotations

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

