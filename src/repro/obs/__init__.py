"""Deterministic observability: metrics registry, traversal flight recorder,
and the live telemetry plane over them.

:class:`Observability` bundles the instruments every layer records into.
It travels on the :class:`~repro.engine.statistics.StatsBoard` so engines,
the coordinator, storage collectors, and the interference injector all share
one registry and one recorder without new plumbing. ``Cluster.build`` binds
the runtime clock; on the simulated runtime that makes every snapshot and
timeline a pure function of (seed, configuration).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.explain import (
    ProfileReport,
    StepProfile,
    explain_document,
    profile_traversal,
)
from repro.obs.exporter import (
    escape_label_value,
    health_payload,
    observability_payload,
    render_openmetrics,
    validate_openmetrics,
    validate_snapshot,
    write_observability,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    canonical_json,
    metric_key,
    render_key,
)
from repro.obs.slo import SLOAlert, SLOConfig, SLOTracker
from repro.obs.telemetry import HotShardReport, TelemetryPlane
from repro.obs.trace import (
    EVENT_KINDS,
    FlightRecorder,
    SamplingPolicy,
    TraceEvent,
    TraversalDag,
    assemble_all,
    assemble_trace,
    chrome_trace,
    sync_exec_id,
    validate_trace,
)


class Observability:
    """One cluster's metrics registry and flight recorder, clock-bound
    together, with the SLO tracker and telemetry plane that read them. The
    registry is always on; the flight recorder — the only per-traversal
    timeline — starts disabled and is opt-in (``ClusterConfig.trace_enabled``
    or ``Cluster.enable_tracing``); ``Cluster.build`` installs the plane on
    the runtime clock."""

    def __init__(self, slo_config: Optional[SLOConfig] = None) -> None:
        self.metrics = MetricsRegistry()
        self.trace = FlightRecorder(self.metrics)
        self.slo = SLOTracker(slo_config, metrics=self.metrics, trace=self.trace)
        self.telemetry = TelemetryPlane(slo=self.slo, recorder=self.trace)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.trace.bind_clock(clock)

    def to_json(self) -> str:
        return canonical_json(observability_payload(self.metrics, self.trace))


__all__ = [
    "Observability",
    "MetricsRegistry",
    "Histogram",
    "FlightRecorder",
    "SamplingPolicy",
    "TelemetryPlane",
    "HotShardReport",
    "SLOTracker",
    "SLOConfig",
    "SLOAlert",
    "render_openmetrics",
    "validate_openmetrics",
    "escape_label_value",
    "health_payload",
    "TraceEvent",
    "TraversalDag",
    "EVENT_KINDS",
    "assemble_trace",
    "assemble_all",
    "chrome_trace",
    "validate_trace",
    "sync_exec_id",
    "explain_document",
    "profile_traversal",
    "ProfileReport",
    "StepProfile",
    "metric_key",
    "render_key",
    "canonical_json",
    "observability_payload",
    "validate_snapshot",
    "write_observability",
]
