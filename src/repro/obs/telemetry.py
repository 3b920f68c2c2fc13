"""The live telemetry plane: windowed rollups and hot-shard detection.

PR-1 observability is post-hoc — :meth:`MetricsRegistry.snapshot` renders
cumulative totals after a run. This module adds the *operational* view a
production metadata service needs while traversals are still in flight
(ROADMAP: elastic scale-out is blocked on a live hot-shard signal):

* **Windowed rollups** — every counter increment, gauge sample, and
  histogram observation is binned into a fixed-width window on the runtime
  clock (``window = floor(clock / width)``), held in a bounded ring of
  recent windows per series. Counters roll up to per-window rates, gauges
  to their last sample, histograms to exact nearest-rank percentiles over
  the window's samples. There is one ingestion mode: the runtime's
  clock-boundary hook (:meth:`SimRuntime.on_clock_boundary`) closes
  each window by diffing the registry against the previous close, so the
  record path pays nothing and the registry's byte-identical snapshot
  contract is untouched.
* **Hot-shard detection** — a ranked :class:`HotShardReport` over per-server
  execution rates (windowed ``engine.real_visits``) and in-flight skew
  (:meth:`Coordinator.inflight_by_server`), from which
  :func:`~repro.rebalance.policy.select_migration` picks a move for
  :meth:`Cluster.rebalance`.
* **SLO feeding** — traversal terminals are forwarded to the per-tenant
  :class:`~repro.obs.slo.SLOTracker` (the scheduler feeds its rejections
  there itself), and the combined verdict drives the flight recorder's
  tail-sampling keep decision (failed / cancelled / slow / alert-matching /
  seeded 1-in-N).

Determinism: the plane never reads the wall clock — windows are derived from
the bound runtime clock — and holds no iteration-order-dependent state, so
on the simulated runtime every rollup payload, report, and keep decision is
a pure function of (seed, configuration).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.metrics import Histogram, MetricKey, canonical_json, render_key

#: metric whose per-server rate drives the hot-shard score (both engines
#: count one ``engine.real_visits`` per actually-processed work unit)
EXEC_RATE_METRIC = "engine.real_visits"

#: a server is *hot* at or above this score (rate skew plus in-flight skew:
#: uniform load scores 2.0, so 3.0 means ~1.5x the cluster mean)
HOT_SCORE_THRESHOLD = 3.0


#: fixed window width on the runtime clock (virtual seconds)
WINDOW_WIDTH = 0.25
#: bounded ring: windows retained per series
MAX_WINDOWS = 64
#: histogram samples kept per window (first-N, deterministic); overflow is
#: counted, never silently lost
MAX_SAMPLES_PER_WINDOW = 512


@dataclass
class HotShardReport:
    """Ranked per-server load skew at one instant."""

    clock: float
    window_width: float
    #: per-server rows sorted hottest-first: server, exec_rate (windowed
    #: ``engine.real_visits``/s), inflight, score
    servers: list[dict] = field(default_factory=list)
    #: server ids, hottest first (deterministic tie-break: lower id first)
    ranked: list[int] = field(default_factory=list)
    #: servers at or above the hot threshold, hottest first
    hot: list[int] = field(default_factory=list)

    @property
    def hottest(self) -> Optional[int]:
        return self.ranked[0] if self.ranked else None

    def to_payload(self) -> dict[str, Any]:
        return {
            "clock": self.clock,
            "window_width": self.window_width,
            "servers": self.servers,
            "ranked": self.ranked,
            "hot": self.hot,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_payload())


class TelemetryPlane:
    """Clock-driven rollups + SLO/sampling glue for one cluster.

    Every :class:`~repro.obs.Observability` builds one beside the SLO
    tracker and flight recorder it feeds; ``Cluster.build`` installs it on
    the runtime clock and the metrics registry (:meth:`install`) and
    registers :meth:`on_terminal` as the coordinator's first terminal
    listener (so the scheduler's QoS entry is still alive when the plane
    reads it).
    """

    def __init__(self, *, slo, recorder):
        self.slo = slo
        self._recorder = recorder
        # per-series bounded rings of window slots, oldest first
        self._counters: dict[MetricKey, deque] = {}  # [window, total]
        self._gauges: dict[MetricKey, deque] = {}  # [window, last value]
        self._hists: dict[MetricKey, deque] = {}  # [window, samples, overflow]
        # set by install(): the runtime clock, the registry being windowed,
        # and the marks (registry totals at the previous close) whose deltas
        # fill the current window — zero cost on the engines' hot paths
        self._clock: Optional[Callable[[], float]] = None
        self._registry = None
        self._cur_widx = 0
        self._counter_marks: dict[MetricKey, float] = {}
        self._gauge_marks: dict[MetricKey, float] = {}
        self._hist_marks: dict[MetricKey, int] = {}

    # -- wiring --------------------------------------------------------------

    def install(self, runtime, registry) -> None:
        """Window ``registry`` on ``runtime``'s clock: the runtime's
        clock-boundary hook closes each window by diffing registry totals
        against the previous close. Exact — every record between two
        crossings belongs to the window being closed — and free on the
        record path."""
        self._clock = runtime.now
        self._registry = registry
        self._cur_widx = int(runtime.now() / WINDOW_WIDTH)
        runtime.on_clock_boundary(
            self._on_boundary, (self._cur_widx + 1) * WINDOW_WIDTH
        )

    def _on_boundary(self, now: float) -> float:
        """Runtime callback: the clock reached the next window boundary."""
        self._flush_window()
        self._cur_widx = int(now / WINDOW_WIDTH)
        return (self._cur_widx + 1) * WINDOW_WIDTH

    def _flush_window(self) -> None:
        """Close (or top up) the current window from registry deltas.

        Safe to run repeatedly mid-window: slots merge on window index, so
        read-time refreshes never double count."""
        reg = self._registry
        widx = self._cur_widx
        marks = self._counter_marks
        for key, total in reg._counters.items():
            delta = total - marks.get(key, 0)
            if delta:
                marks[key] = total
                self._slot(self._counters, key, widx, 0)[1] += delta
        gmarks = self._gauge_marks
        for key, value in reg._gauges.items():
            if key not in gmarks or gmarks[key] != value:
                gmarks[key] = value
                self._slot(self._gauges, key, widx, None)[1] = value
        hmarks = self._hist_marks
        for key, hist in reg._histograms.items():
            start = hmarks.get(key, 0)
            fresh = hist.samples[start:]
            if fresh:
                hmarks[key] = start + len(fresh)
                slot = self._slot(self._hists, key, widx, array("d"), 0)
                room = MAX_SAMPLES_PER_WINDOW - len(slot[1])
                slot[1].extend(fresh[:room])
                slot[2] += max(0, len(fresh) - room)

    def _slot(self, table: dict[MetricKey, deque], key: MetricKey, widx: int, *zero):
        """The series' slot for window ``widx``, appended (evicting the
        oldest window past the ring bound) when the window is new."""
        ring = table.get(key)
        if ring is None:
            ring = table[key] = deque()
        if not ring or ring[-1][0] != widx:
            ring.append([widx, *zero])
            if len(ring) > MAX_WINDOWS:
                ring.popleft()
        return ring[-1]

    # -- terminal hook (the coordinator's first terminal listener) ------------

    def on_terminal(self, travel_id: int, status: str, entry=None) -> None:
        """A traversal reached a terminal state; ``entry`` is the
        scheduler's still-live :class:`QueuedTravel` (None for composite
        children and queued-side cancellations)."""
        now = self._clock()
        tenant = entry.tenant if entry is not None else None
        latency = (now - entry.admit_time) if entry is not None else None
        if tenant is not None:
            self.slo.record_terminal(tenant, status, latency, now)
        recorder = self._recorder
        if recorder.sampling_active:
            reason = self._keep_reason(travel_id, status, tenant, latency)
            recorder.finalize_travel(
                travel_id, keep=reason is not None, reason=reason
            )

    def _keep_reason(
        self,
        travel_id: int,
        status: str,
        tenant: Optional[str],
        latency: Optional[float],
    ) -> Optional[str]:
        """Why this traversal's full trace is kept, or None to sample out."""
        if status != "ok":
            return f"terminal:{status}"
        if self.slo.violates_latency(latency):
            return "slow"
        if tenant is not None and self.slo.alert_active(tenant):
            return "alert"
        if self._recorder.sampling.sampled(travel_id):
            return "sampled"
        return None

    def on_coordinator_crash(self) -> None:
        """The coordinator's host crashed: every pending (undecided) trace
        buffer is kept — travels in flight across a control-plane crash are
        exactly the ones an operator will want to read back."""
        if self._recorder.sampling_active:
            self._recorder.keep_all_pending(reason="coord.crash")

    # -- reading: rollups ------------------------------------------------------

    def window_start(self, widx: int) -> float:
        return widx * WINDOW_WIDTH

    def rollups(self) -> dict[str, Any]:
        """The full windowed rollup state as a canonical, sorted payload."""
        self._flush_window()  # fold the in-progress window in
        counters = {
            render_key(k): [
                {
                    "window": w,
                    "start": self.window_start(w),
                    "count": total,
                    "rate": total / WINDOW_WIDTH,
                }
                for w, total in self._counters[k]
            ]
            for k in sorted(self._counters)
        }
        gauges = {
            render_key(k): [
                {"window": w, "start": self.window_start(w), "last": v}
                for w, v in self._gauges[k]
            ]
            for k in sorted(self._gauges)
        }
        histograms = {}
        for k in sorted(self._hists):
            rows = []
            for w, samples, overflow in self._hists[k]:
                hist = Histogram()
                hist.samples = samples
                summary = hist.summary()
                rows.append(
                    {
                        "window": w,
                        "start": self.window_start(w),
                        "count": summary["count"],
                        "sum": summary["sum"],
                        "p50": summary["p50"],
                        "p95": summary["p95"],
                        "p99": summary["p99"],
                        "overflow": overflow,
                    }
                )
            histograms[render_key(k)] = rows
        return {
            "window_width": WINDOW_WIDTH,
            "max_windows": MAX_WINDOWS,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def rollups_json(self) -> str:
        return canonical_json(self.rollups())

    def recent_rate(self, name: str, **labels: Any) -> float:
        """Mean per-second rate of one counter over its retained windows
        (0.0 for a series that never recorded)."""
        key: MetricKey = (name, tuple(sorted(labels.items())))
        self._flush_window()
        ring = self._counters.get(key)
        if not ring:
            return 0.0
        total = sum(t for _w, t in ring)
        span = (ring[-1][0] - ring[0][0] + 1) * WINDOW_WIDTH
        return total / span

    # -- hot-shard detection ---------------------------------------------------

    def hot_shards(
        self, inflight_by_server: dict[int, int], nservers: int
    ) -> HotShardReport:
        """Rank servers by combined execution-rate and in-flight skew.

        ``score = rate/mean_rate + inflight/mean_inflight`` (a term drops
        out while its cluster-wide mean is zero), so uniform load scores 2.0
        everywhere and a hot shard scores its skew multiple.
        """
        rates = [
            self.recent_rate(EXEC_RATE_METRIC, server=s) for s in range(nservers)
        ]
        inflight = [inflight_by_server.get(s, 0) for s in range(nservers)]
        mean_rate = sum(rates) / nservers if nservers else 0.0
        mean_inflight = sum(inflight) / nservers if nservers else 0.0
        rows = []
        for s in range(nservers):
            score = 0.0
            if mean_rate > 0:
                score += rates[s] / mean_rate
            if mean_inflight > 0:
                score += inflight[s] / mean_inflight
            rows.append(
                {
                    "server": s,
                    "exec_rate": round(rates[s], 9),
                    "inflight": inflight[s],
                    "score": round(score, 9),
                }
            )
        rows.sort(key=lambda r: (-r["score"], r["server"]))
        ranked = [r["server"] for r in rows]
        hot = [r["server"] for r in rows if r["score"] >= HOT_SCORE_THRESHOLD]
        return HotShardReport(
            clock=self._clock(),
            window_width=WINDOW_WIDTH,
            servers=rows,
            ranked=ranked,
            hot=hot,
        )

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        """Drop every window and re-baseline on the registry's current
        totals, so only work recorded after the call shows up again."""
        reg = self._registry
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()
        self._counter_marks = dict(reg._counters)
        self._gauge_marks = dict(reg._gauges)
        self._hist_marks = {
            key: len(hist.samples) for key, hist in reg._histograms.items()
        }
