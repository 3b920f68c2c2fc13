"""Property filters for GTravel queries.

The paper defines three filter types — ``EQ``, ``IN``, ``RANGE`` — applied to
vertex (``va``) or edge (``ea``) properties, AND-composed when several appear
in one step. ``OR`` is deliberately absent (paper §III): users issue separate
traversals and union the results, which :func:`repro.lang.gtravel.union_results`
supports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import QueryError


class FilterOp(enum.Enum):
    """Comparison kind for a property filter."""

    EQ = "EQ"
    IN = "IN"
    RANGE = "RANGE"


#: Re-exported aliases so queries read like the paper's listings.
EQ = FilterOp.EQ
IN = FilterOp.IN
RANGE = FilterOp.RANGE


@dataclass(frozen=True)
class PropertyFilter:
    """One predicate over a property map.

    * ``EQ``: the property equals ``value``;
    * ``IN``: the property is a member of ``value`` (any container);
    * ``RANGE``: ``value`` is a ``(lo, hi)`` pair, inclusive on both ends.

    A missing property never matches.
    """

    key: str
    op: FilterOp
    value: Any

    def __post_init__(self) -> None:
        if not self.key:
            raise QueryError("filter property key must be non-empty")
        if not isinstance(self.op, FilterOp):
            raise QueryError(f"filter op must be a FilterOp, got {self.op!r}")
        if self.op is FilterOp.RANGE:
            try:
                lo, hi = self.value
            except (TypeError, ValueError):
                raise QueryError(
                    f"RANGE filter on {self.key!r} needs a (lo, hi) pair"
                ) from None
            if lo > hi:
                raise QueryError(f"RANGE filter on {self.key!r}: lo > hi ({lo} > {hi})")
            # Normalize to a tuple so the filter is hashable/deterministic.
            object.__setattr__(self, "value", (lo, hi))
        elif self.op is FilterOp.IN:
            try:
                object.__setattr__(self, "value", frozenset(self.value))
            except TypeError:
                raise QueryError(
                    f"IN filter on {self.key!r} needs an iterable of values"
                ) from None

    def matches(self, props: Mapping[str, Any]) -> bool:
        if self.key not in props:
            return False
        actual = props[self.key]
        if self.op is FilterOp.EQ:
            return actual == self.value
        if self.op is FilterOp.IN:
            try:
                return actual in self.value
            except TypeError:
                return False
        lo, hi = self.value
        try:
            return lo <= actual <= hi
        except TypeError:
            return False


@dataclass(frozen=True)
class FilterSet:
    """An AND-composed, ordered set of property filters."""

    filters: tuple[PropertyFilter, ...] = ()

    @staticmethod
    def of(filters: Iterable[PropertyFilter]) -> "FilterSet":
        return FilterSet(tuple(filters))

    def __bool__(self) -> bool:
        return bool(self.filters)

    def __len__(self) -> int:
        return len(self.filters)

    def add(self, flt: PropertyFilter) -> "FilterSet":
        return FilterSet(self.filters + (flt,))

    def matches(self, props: Mapping[str, Any]) -> bool:
        return all(f.matches(props) for f in self.filters)

    @property
    def needs_props(self) -> bool:
        """True if evaluating the set needs the vertex's attribute block: the
        vertex type is encoded in its key (the location index knows it), so
        a type-only set does not."""
        return any(f.key != "type" for f in self.filters)

    def describe(self) -> str:
        if not self.filters:
            return "*"
        return " AND ".join(
            f"{f.key} {f.op.value} {f.value!r}" for f in self.filters
        )
