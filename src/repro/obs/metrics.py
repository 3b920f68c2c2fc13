"""Deterministic metrics: counters, gauges, and histograms.

The paper's whole evaluation rests on *measured* engine behaviour ("we placed
instruments inside the GraphTrek engine to collect the statistics during the
execution", §VII-A). :class:`MetricsRegistry` is the cluster-wide instrument
panel: engines, the coordinator, storage, and the interference injector all
record into one registry, and :meth:`MetricsRegistry.snapshot` renders it as
a plain, fully sorted dictionary.

Determinism contract: recording never reads the wall clock, never consults
``id()``/``hash`` ordering, and the snapshot serializes with sorted keys —
so two runs of the same seeded workload on the simulated runtime produce
byte-identical JSON. Histogram quantiles use the nearest-rank method over
the raw sample list (no interpolation, no numpy state).
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Callable, Optional

#: a metric identity: (name, ((label, value), ...)) with labels sorted
MetricKey = tuple[str, tuple[tuple[str, Any], ...]]


def canonical_json(payload: Any) -> str:
    """The one byte-stable serialization: identical runs, identical bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def metric_key(name: str, labels: dict[str, Any]) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


def render_key(key: MetricKey) -> str:
    """``name{k=v,...}`` — the stable string form used in snapshots."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """All observed samples plus a deterministic summary.

    Samples are kept verbatim (the simulation scales this repo runs at make
    that affordable) so that p50/p95/p99 are exact nearest-rank quantiles,
    not bucket approximations.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; NaN on an empty histogram."""
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        if not self.samples:
            nan = float("nan")
            return {"count": 0, "sum": 0.0, "min": nan, "max": nan,
                    "mean": nan, "p50": nan, "p95": nan, "p99": nan}
        total = sum(self.samples)
        return {
            "count": len(self.samples),
            "sum": total,
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": total / len(self.samples),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by (name, labels).

    Collectors are pull-side hooks (storage stats, runtime totals) run at
    snapshot time; they must *set* gauges — never increment — so repeated
    snapshots agree.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1, **labels: Any) -> None:
        self._add(metric_key(name, labels), n)

    def _add(self, key: MetricKey, n: float = 1) -> None:
        if n:
            self._counters[key] = self._counters.get(key, 0) + n

    def counter(self, name: str, **labels: Any) -> Callable[..., None]:
        """Pre-bound handle: ``(name, labels)`` is resolved once, the returned
        ``add(n=1)`` is the hot-path record. Nothing is created until the
        first non-zero add, so binding never adds a key to a snapshot."""
        return partial(self._add, metric_key(name, labels))

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self._observe(metric_key(name, labels), value)

    def _observe(self, key: MetricKey, value: float) -> None:
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.samples.append(float(value))

    def observer(self, name: str, **labels: Any) -> Callable[[float], None]:
        """Pre-bound histogram handle (see :meth:`counter`): the returned
        ``observe(value)`` creates the histogram on its first sample."""
        return partial(self._observe, metric_key(name, labels))

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        self._collectors.append(fn)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get(metric_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return self._gauges.get(metric_key(name, labels))

    def snapshot(self) -> dict[str, Any]:
        """Fully sorted plain-dict view; runs collectors first."""
        for fn in self._collectors:
            fn(self)
        return {
            "counters": {
                render_key(k): self._counters[k] for k in sorted(self._counters)
            },
            "gauges": {
                render_key(k): self._gauges[k] for k in sorted(self._gauges)
            },
            "histograms": {
                render_key(k): self._histograms[k].summary()
                for k in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON (same run → same bytes)."""
        return canonical_json(self.snapshot())

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
