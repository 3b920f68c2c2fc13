"""Frontier entries and rtn-anchor bookkeeping.

A frontier entry is ``(vertex id, anchors)``. ``anchors`` is a tuple with one
vertex-id set per *intermediate* rtn level the traversal has passed so far:
``anchors[i]`` holds the rtn-level-``i`` vertices lying on some path that
reached this entry. Plans without intermediate ``rtn()`` carry empty tuples
throughout, which makes all the set algebra here degenerate to plain
(step, vertex) deduplication — the common fast path.
"""

from __future__ import annotations

from repro.ids import VertexId
from repro.lang.plan import TraversalPlan
from repro.net.message import Anchors, Entries

EMPTY_ANCHORS: Anchors = ()


def intermediate_rtn_levels(plan: TraversalPlan) -> tuple[int, ...]:
    """The rtn levels that need anchor tracking, ascending."""
    return tuple(sorted(l for l in plan.return_levels if l < plan.final_level))


def anchors_covered(candidate: Anchors, stored: Anchors) -> bool:
    """True if ``candidate`` adds nothing beyond ``stored``.

    Entries whose anchors are covered are redundant: every return they could
    produce has already been propagated.
    """
    if len(candidate) != len(stored):
        # Can only happen across different levels; treat as not covered.
        return False
    return all(c <= s for c, s in zip(candidate, stored))


def anchors_union(a: Anchors, b: Anchors) -> Anchors:
    """Element-wise union (same length required by construction)."""
    if not a:
        return b
    if not b:
        return a
    return tuple(x | y for x, y in zip(a, b))


def extend_anchors(anchors: Anchors, vid: VertexId) -> Anchors:
    """Append a new rtn level anchored at ``vid`` itself."""
    return anchors + (frozenset((vid,)),)


def merge_entry(entries: Entries, vid: VertexId, anchors: Anchors) -> None:
    """Insert/merge one entry into a batch (anchor union on collision).

    Empty anchors add nothing to an entry that exists, so plans without an
    intermediate ``rtn()`` pay one dict operation per entry."""
    current = entries.setdefault(vid, anchors)
    if anchors and current is not anchors:
        entries[vid] = anchors_union(current, anchors)


def merge_entries(dst: Entries, src: Entries) -> None:
    """Union ``src`` into ``dst`` (coalescing two requests); the loop body
    is :func:`merge_entry`, inlined because coalescing runs it per entry of
    every absorbed request."""
    for vid, anchors in src.items():
        current = dst.setdefault(vid, anchors)
        if anchors and current is not anchors:
            dst[vid] = anchors_union(current, anchors)
