"""Graph statistics: degree distributions, power-law fits, imbalance —
plus the per-server summary statistics the cost-based planner consumes.

The paper motivates asynchrony with the small-world / power-law structure of
HPC metadata graphs; these helpers quantify that structure for generated
workloads (and back the Table II report).

The second half of the module (``PropertySketch`` / ``LabelStats`` /
``GraphSummary``) is the planner's substrate: cheap, mergeable summaries a
server can compute over its own partition — vertex-type histograms, per-label
edge counts with source/destination type breakdowns, and bounded
property-value sketches — from which :mod:`repro.lang.optimizer` estimates
per-step selectivities and cardinalities. Everything is deterministic per
(graph, vertex order): building the same summary twice yields byte-identical
``to_json()`` payloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from repro.graph.builder import PropertyGraph
from repro.lang.filters import FilterOp, FilterSet, PropertyFilter
from repro.obs.metrics import canonical_json


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    count: int
    mean: float
    maximum: int
    p50: float
    p99: float
    gini: float
    powerlaw_alpha: float


def fit_powerlaw_alpha(degrees: np.ndarray, dmin: int = 1) -> float:
    """MLE exponent for a discrete power law ``p(d) ~ d^-alpha``.

    Uses the continuous approximation (Clauset et al. 2009, eq. 3.1 with the
    -1/2 discreteness correction). Degrees below ``dmin`` are excluded.
    Returns NaN when fewer than 2 samples qualify.
    """
    tail = degrees[degrees >= dmin]
    if tail.size < 2:
        return float("nan")
    shifted = tail / (dmin - 0.5)
    return 1.0 + tail.size / float(np.sum(np.log(shifted)))


def gini(values: np.ndarray) -> float:
    """Gini coefficient of non-negative values (0 = balanced, →1 = skewed)."""
    if values.size == 0:
        return 0.0
    sorted_vals = np.sort(values.astype(np.float64))
    total = sorted_vals.sum()
    if total <= 0:
        return 0.0
    n = sorted_vals.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * sorted_vals)) / (n * total) - (n + 1.0) / n)


def degree_stats(degrees: np.ndarray) -> DegreeStats:
    if degrees.size == 0:
        return DegreeStats(0, 0.0, 0, 0.0, 0.0, 0.0, float("nan"))
    return DegreeStats(
        count=int(degrees.size),
        mean=float(degrees.mean()),
        maximum=int(degrees.max()),
        p50=float(np.percentile(degrees, 50)),
        p99=float(np.percentile(degrees, 99)),
        gini=gini(degrees),
        powerlaw_alpha=fit_powerlaw_alpha(degrees),
    )


def out_degree_stats(graph: PropertyGraph) -> DegreeStats:
    degrees = np.array([graph.out_degree(v) for v in graph.vertex_ids()], dtype=np.int64)
    return degree_stats(degrees)


def in_degree_stats(graph: PropertyGraph) -> DegreeStats:
    in_deg = graph.in_degrees()
    degrees = np.array(
        [in_deg.get(v, 0) for v in graph.vertex_ids()], dtype=np.int64
    )
    return degree_stats(degrees)


def imbalance_factor(loads: np.ndarray) -> float:
    """max/mean load ratio — 1.0 is perfectly balanced.

    Used to characterize partition skew (the straggler driver).
    """
    if loads.size == 0:
        return 1.0
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


# -- planner statistics (property sketches, label stats, graph summary) --------

#: distinct values a sketch tracks exactly before lumping the tail into
#: ``other`` — large enough to hold every categorical property of the Darshan
#: workload exactly, small enough to stay cheap on high-cardinality keys.
SKETCH_TRACK_CAP = 64


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class PropertySketch:
    """A bounded summary of one property's value distribution.

    ``population`` is the number of entities in scope (vertices of the type,
    or edges of the label) — *not* the number carrying the key — so
    ``count / population`` directly estimates match probability, and a
    missing key (which never matches a filter) costs selectivity naturally.
    Up to :data:`SKETCH_TRACK_CAP` distinct values are counted exactly;
    the tail is lumped into ``other`` with a distinct-count estimate.
    Every estimator is total: empty sketches return 0.0, never a
    ``ZeroDivisionError``.
    """

    population: int = 0
    present: int = 0
    counts: dict[Any, int] = field(default_factory=dict)
    other: int = 0
    other_distinct: int = 0
    numeric_count: int = 0
    numeric_min: Optional[float] = None
    numeric_max: Optional[float] = None

    @classmethod
    def from_counter(cls, counter: Counter, population: int) -> "PropertySketch":
        sketch = cls(population=population, present=sum(counter.values()))
        numeric = [v for v in counter if _is_numeric(v)]
        if numeric:
            sketch.numeric_count = sum(counter[v] for v in numeric)
            sketch.numeric_min = float(min(numeric))
            sketch.numeric_max = float(max(numeric))
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        sketch.counts = dict(ranked[:SKETCH_TRACK_CAP])
        tail = ranked[SKETCH_TRACK_CAP:]
        sketch.other = sum(c for _, c in tail)
        sketch.other_distinct = len(tail)
        return sketch

    def merge(self, other: "PropertySketch") -> "PropertySketch":
        counter: Counter = Counter(self.counts)
        counter.update(other.counts)
        merged = PropertySketch.from_counter(
            counter, self.population + other.population
        )
        # carry through the already-lumped tails (their identities are gone)
        merged.present += self.other + other.other
        merged.other += self.other + other.other
        merged.other_distinct += self.other_distinct + other.other_distinct
        for src in (self, other):
            if src.numeric_min is None:
                continue
            merged.numeric_min = (
                src.numeric_min
                if merged.numeric_min is None
                else min(merged.numeric_min, src.numeric_min)
            )
            merged.numeric_max = (
                src.numeric_max
                if merged.numeric_max is None
                else max(merged.numeric_max, src.numeric_max)
            )
        return merged

    # -- selectivity estimators (all zero-division safe) -------------------

    def eq_selectivity(self, value: Any) -> float:
        if self.population <= 0:
            return 0.0
        try:
            hit = self.counts.get(value)
        except TypeError:  # unhashable probe value
            hit = None
        if hit is not None:
            return hit / self.population
        if self.other > 0:
            # an untracked value: assume it is one of the lumped tail values
            return self.other / (self.population * max(self.other_distinct, 1))
        return 0.0

    def in_selectivity(self, values: Iterable[Any]) -> float:
        return min(1.0, sum(self.eq_selectivity(v) for v in set(values)))

    def range_selectivity(self, lo: Any, hi: Any) -> float:
        if self.population <= 0:
            return 0.0
        exact = 0
        for value, count in self.counts.items():
            try:
                if lo <= value <= hi:
                    exact += count
            except TypeError:
                continue
        sel = exact / self.population
        if self.other > 0 and self.numeric_count > 0:
            # spread the lumped tail uniformly over the observed numeric span
            sel += (self.other / self.population) * self._span_overlap(lo, hi)
        return min(1.0, sel)

    def _span_overlap(self, lo: Any, hi: Any) -> float:
        if self.numeric_min is None or self.numeric_max is None:
            return 0.0
        try:
            qlo, qhi = float(lo), float(hi)
        except (TypeError, ValueError):
            return 0.0
        span = self.numeric_max - self.numeric_min
        if span <= 0.0:
            return 1.0 if qlo <= self.numeric_min <= qhi else 0.0
        overlap = min(qhi, self.numeric_max) - max(qlo, self.numeric_min)
        return max(0.0, min(1.0, overlap / span))

    def selectivity(self, flt: PropertyFilter) -> float:
        if flt.op is FilterOp.EQ:
            return self.eq_selectivity(flt.value)
        if flt.op is FilterOp.IN:
            return self.in_selectivity(flt.value)
        lo, hi = flt.value
        return self.range_selectivity(lo, hi)

    def payload(self) -> dict[str, Any]:
        return {
            "population": self.population,
            "present": self.present,
            "counts": sorted(
                ([repr(v), c] for v, c in self.counts.items()),
                key=lambda vc: (-vc[1], vc[0]),
            ),
            "other": self.other,
            "other_distinct": self.other_distinct,
            "numeric_count": self.numeric_count,
            "numeric_min": self.numeric_min,
            "numeric_max": self.numeric_max,
        }


@dataclass
class LabelStats:
    """Per-edge-label statistics: counts, endpoint type histograms, and
    edge-property sketches. ``reversed_view()`` transposes endpoints so the
    planner can cost a ``~label`` (reverse-edge) traversal from the same
    numbers."""

    label: str
    count: int = 0
    src_type_counts: dict[str, int] = field(default_factory=dict)
    dst_type_counts: dict[str, int] = field(default_factory=dict)
    src_distinct_by_type: dict[str, int] = field(default_factory=dict)
    dst_distinct_by_type: dict[str, int] = field(default_factory=dict)
    sketches: dict[str, PropertySketch] = field(default_factory=dict)

    def reversed_view(self) -> "LabelStats":
        return LabelStats(
            label="~" + self.label,
            count=self.count,
            src_type_counts=self.dst_type_counts,
            dst_type_counts=self.src_type_counts,
            src_distinct_by_type=self.dst_distinct_by_type,
            dst_distinct_by_type=self.src_distinct_by_type,
            sketches=self.sketches,
        )

    def edge_selectivity(self, filters: FilterSet) -> float:
        sel = 1.0
        for flt in filters.filters:
            sketch = self.sketches.get(flt.key)
            sel *= sketch.selectivity(flt) if sketch is not None else 0.0
        return sel

    def merge(self, other: "LabelStats") -> "LabelStats":
        def _sum(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, 0) + v
            return out

        sketches = dict(self.sketches)
        for key, sk in other.sketches.items():
            mine = sketches.get(key)
            if mine is None:
                # pad population so count/population stays an edge fraction
                mine = PropertySketch(population=self.count)
            sketches[key] = mine.merge(sk)
        for key, sk in self.sketches.items():
            if key not in other.sketches:
                sketches[key] = sk.merge(PropertySketch(population=other.count))
        return LabelStats(
            label=self.label,
            count=self.count + other.count,
            src_type_counts=_sum(self.src_type_counts, other.src_type_counts),
            dst_type_counts=_sum(self.dst_type_counts, other.dst_type_counts),
            # sources are partition-local, so summing is exact; destinations
            # may repeat across partitions, so the sum over-estimates —
            # acceptable for costing (documented in DESIGN.md §10)
            src_distinct_by_type=_sum(
                self.src_distinct_by_type, other.src_distinct_by_type
            ),
            dst_distinct_by_type=_sum(
                self.dst_distinct_by_type, other.dst_distinct_by_type
            ),
            sketches=sketches,
        )

    def payload(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "count": self.count,
            "src_type_counts": dict(sorted(self.src_type_counts.items())),
            "dst_type_counts": dict(sorted(self.dst_type_counts.items())),
            "src_distinct_by_type": dict(sorted(self.src_distinct_by_type.items())),
            "dst_distinct_by_type": dict(sorted(self.dst_distinct_by_type.items())),
            "sketches": {
                k: self.sketches[k].payload() for k in sorted(self.sketches)
            },
        }


@dataclass
class GraphSummary:
    """The planner's view of one partition (or, merged, the whole graph)."""

    total_vertices: int = 0
    type_counts: dict[str, int] = field(default_factory=dict)
    #: vertex type -> property key -> sketch (population = vertices of type)
    vertex_sketches: dict[str, dict[str, PropertySketch]] = field(default_factory=dict)
    labels: dict[str, LabelStats] = field(default_factory=dict)

    @classmethod
    def from_graph(
        cls, graph: PropertyGraph, vids: Optional[Iterable[int]] = None
    ) -> "GraphSummary":
        """Deterministically summarize ``vids`` (default: every vertex), in
        ascending id order.

        Destination types come from the global graph, matching what a server
        learns from dispatch traffic; everything else is partition-local.
        """
        scope = sorted(vids) if vids is not None else sorted(graph.vertex_ids())
        builder = SummaryBuilder(graph)
        for vid in scope:
            builder.add(graph.vertex(vid), graph.adjacency(vid))
        return builder.build()

    @classmethod
    def merged(cls, summaries: Iterable["GraphSummary"]) -> "GraphSummary":
        """Combine per-server summaries into a cluster-wide one (the
        coordinator's planning input)."""
        out = cls()
        for summary in summaries:
            out = out._merge_one(summary)
        return out

    def _merge_one(self, other: "GraphSummary") -> "GraphSummary":
        type_counts = dict(self.type_counts)
        for t, c in other.type_counts.items():
            type_counts[t] = type_counts.get(t, 0) + c
        sketches: dict[str, dict[str, PropertySketch]] = {}
        for vtype in sorted(type_counts):
            mine = self.vertex_sketches.get(vtype, {})
            theirs = other.vertex_sketches.get(vtype, {})
            merged: dict[str, PropertySketch] = {}
            for key in sorted(set(mine) | set(theirs)):
                a = mine.get(
                    key, PropertySketch(population=self.type_counts.get(vtype, 0))
                )
                b = theirs.get(
                    key, PropertySketch(population=other.type_counts.get(vtype, 0))
                )
                merged[key] = a.merge(b)
            sketches[vtype] = merged
        labels: dict[str, LabelStats] = {}
        for label in sorted(set(self.labels) | set(other.labels)):
            a = self.labels.get(label, LabelStats(label=label))
            b = other.labels.get(label, LabelStats(label=label))
            labels[label] = a.merge(b)
        return GraphSummary(
            total_vertices=self.total_vertices + other.total_vertices,
            type_counts=dict(sorted(type_counts.items())),
            vertex_sketches=sketches,
            labels=labels,
        )

    # -- planner-facing estimators ----------------------------------------

    def label_stats(self, label: str) -> LabelStats:
        """Stats for ``label``; a ``~``-prefixed label yields the transposed
        view of its base label (reverse edges share the base statistics)."""
        if label.startswith("~"):
            base = self.labels.get(label[1:])
            return base.reversed_view() if base is not None else LabelStats(label)
        return self.labels.get(label, LabelStats(label))

    def vertex_selectivity(self, vtype: str, filters: FilterSet) -> float:
        """Estimated fraction of type-``vtype`` vertices matching ``filters``."""
        sel = 1.0
        sketches = self.vertex_sketches.get(vtype, {})
        for flt in filters.filters:
            if flt.key == "type":
                sel *= 1.0 if flt.matches({"type": vtype}) else 0.0
                continue
            sketch = sketches.get(flt.key)
            sel *= sketch.selectivity(flt) if sketch is not None else 0.0
        return sel

    def payload(self) -> dict[str, Any]:
        return {
            "total_vertices": self.total_vertices,
            "type_counts": dict(sorted(self.type_counts.items())),
            "vertex_sketches": {
                vtype: {k: sk.payload() for k, sk in sorted(sketches.items())}
                for vtype, sketches in sorted(self.vertex_sketches.items())
            },
            "labels": {
                label: stats.payload() for label, stats in sorted(self.labels.items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical summaries."""
        return canonical_json(self.payload())


def _append_values(columns: dict[str, list], props: dict[str, Any]) -> None:
    """Append each property value to its key's column."""
    for key, value in props.items():
        column = columns.get(key)
        if column is None:
            columns[key] = [value]
        else:
            column.append(value)


class _LabelTally:
    """What :class:`SummaryBuilder` keeps per edge label until ``build``."""

    __slots__ = ("count", "src_types", "src_seen", "dsts", "columns")

    def __init__(self) -> None:
        self.count = 0
        self.src_types: dict[str, int] = {}
        self.src_seen: dict[str, set] = {}
        #: every edge's destination, and every edge property value per key
        self.dsts: list[int] = []
        self.columns: dict[str, list] = {}


class SummaryBuilder:
    """Accumulates one partition's :class:`GraphSummary` vertex by vertex.

    :meth:`add` takes a vertex with its label-grouped adjacency
    (:meth:`~repro.graph.builder.PropertyGraph.adjacency`), so a bulk load
    that already walks the partition feeds the statistics from the same
    walk. Per (vertex, label) it counts the run once; per edge it only
    appends the destination and each property value to a column, and
    :meth:`build` counts every column once. Nothing is allocated per edge.

    Every count is independent of the order vertices arrive in. Only the
    first value added of several equal ones of different types (``1``,
    ``1.0``, ``True``) names their shared sketch entry, as in any
    :class:`~collections.Counter`.
    """

    def __init__(self, graph: PropertyGraph):
        #: destination types come from the global graph
        self._vertex = graph.vertex
        self._total = 0
        self._type_counts: dict[str, int] = {}
        #: vertex type -> property key -> every value, in arrival order
        self._vertex_columns: dict[str, dict[str, list]] = {}
        self._labels: dict[str, _LabelTally] = {}

    def add(self, vertex, adjacency) -> None:
        """Count one vertex and its out-edges (``adjacency``: label ->
        ``[(dst, props), ...]``)."""
        vid, vtype = vertex.vid, vertex.vtype
        self._total += 1
        self._type_counts[vtype] = self._type_counts.get(vtype, 0) + 1
        columns = self._vertex_columns.get(vtype)
        if columns is None:
            columns = self._vertex_columns[vtype] = {}
        _append_values(columns, vertex.props)
        labels = self._labels
        for label, pairs in adjacency.items():
            tally = labels.get(label)
            if tally is None:
                tally = labels[label] = _LabelTally()
            tally.count += len(pairs)
            tally.src_types[vtype] = tally.src_types.get(vtype, 0) + len(pairs)
            seen = tally.src_seen.get(vtype)
            if seen is None:
                seen = tally.src_seen[vtype] = set()
            seen.add(vid)
            dsts, edge_columns = tally.dsts, tally.columns
            for dst, eprops in pairs:
                dsts.append(dst)
                if eprops:
                    _append_values(edge_columns, eprops)

    def build(self) -> GraphSummary:
        type_counts = self._type_counts
        vertex_sketches = {
            vtype: {
                key: PropertySketch.from_counter(Counter(values), type_counts[vtype])
                for key, values in sorted(self._vertex_columns[vtype].items())
            }
            for vtype in sorted(type_counts)
        }
        labels = {}
        for label in sorted(self._labels):
            tally = self._labels[label]
            dst_types: dict[str, int] = {}
            dst_distinct: dict[str, int] = {}
            for dst, n in Counter(tally.dsts).items():
                dtype = self._vertex(dst).vtype
                dst_types[dtype] = dst_types.get(dtype, 0) + n
                dst_distinct[dtype] = dst_distinct.get(dtype, 0) + 1
            labels[label] = LabelStats(
                label=label,
                count=tally.count,
                src_type_counts=dict(sorted(tally.src_types.items())),
                dst_type_counts=dict(sorted(dst_types.items())),
                src_distinct_by_type={
                    t: len(s) for t, s in sorted(tally.src_seen.items())
                },
                dst_distinct_by_type=dict(sorted(dst_distinct.items())),
                sketches={
                    key: PropertySketch.from_counter(Counter(values), tally.count)
                    for key, values in sorted(tally.columns.items())
                },
            )
        return GraphSummary(
            total_vertices=self._total,
            type_counts=dict(sorted(type_counts.items())),
            vertex_sketches=vertex_sketches,
            labels=labels,
        )
