"""Shared traversal registry.

Maps a travel id to its compiled plan, current restart attempt, and
precomputed source-selection info. The paper ships the GTravel instance
inside every dispatch message (and we charge wire bytes for it); carrying
the actual plan object through a shared registry is the in-process
equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TraversalError
from repro.ids import TravelId
from repro.lang.filters import FilterOp, FilterSet
from repro.lang.plan import TraversalPlan


@dataclass
class SourceInfo:
    """How servers should enumerate level-0 candidates for an all-vertices
    ``v()``: optionally via the vertex-type index, with the type filters
    already satisfied stripped from the remaining filter set."""

    index_type: Optional[str]
    reduced_filters: FilterSet


def analyze_sources(plan: TraversalPlan) -> SourceInfo:
    """Use a ``type EQ X`` source filter as an index lookup when possible."""
    index_type: Optional[str] = None
    remaining = []
    for flt in plan.source_filters.filters:
        if index_type is None and flt.key == "type" and flt.op is FilterOp.EQ:
            index_type = flt.value
        else:
            remaining.append(flt)
    return SourceInfo(index_type=index_type, reduced_filters=FilterSet(tuple(remaining)))


@dataclass
class TravelEntry:
    plan: TraversalPlan
    attempt: int = 0
    #: coordinator epoch that dispatched the current attempt — servers stamp
    #: it on everything they send so a recovered coordinator (next epoch)
    #: can fence reports that belong to its dead predecessor
    epoch: int = 0
    source_info: SourceInfo = field(default_factory=lambda: SourceInfo(None, FilterSet()))
    #: (levels, sources indexed) -> VisitSpec, filled by
    #: :func:`repro.engine.visit.visit_spec`; emptied when the travel is
    #: unregistered
    visit_specs: dict = field(default_factory=dict, repr=False, compare=False)


class TravelRegistry:
    """Cluster-shared registry of active traversals."""

    def __init__(self):
        self._entries: dict[TravelId, TravelEntry] = {}

    def register(self, travel_id: TravelId, plan: TraversalPlan) -> TravelEntry:
        if travel_id in self._entries:
            raise TraversalError(f"travel id {travel_id} already registered")
        entry = TravelEntry(plan=plan, source_info=analyze_sources(plan))
        self._entries[travel_id] = entry
        return entry

    def get(self, travel_id: TravelId) -> Optional[TravelEntry]:
        return self._entries.get(travel_id)

    def bump_attempt(self, travel_id: TravelId) -> int:
        entry = self._entries[travel_id]
        entry.attempt += 1
        return entry.attempt

    def unregister(self, travel_id: TravelId) -> None:
        entry = self._entries.pop(travel_id, None)
        if entry is not None:
            # the coordinator's watchdog may hold the entry until its next
            # tick; the visit specs need not wait with it
            entry.visit_specs.clear()
