"""The live telemetry plane: windowed rollups and hot-shard detection.

PR-1 observability is post-hoc — :meth:`MetricsRegistry.snapshot` renders
cumulative totals after a run. This module adds the *operational* view a
production metadata service needs while traversals are still in flight
(ROADMAP: elastic scale-out is blocked on a live hot-shard signal):

* **Windowed rollups** — every counter increment, gauge sample, and
  histogram observation is also binned into a fixed-width window on the
  runtime clock (``window = floor(clock / width)``), held in a bounded ring
  of recent windows per series. Counters roll up to per-window rates, gauges
  to their last sample, histograms to exact nearest-rank percentiles over
  the window's samples. Ingestion rides the registry's watcher hook
  (:meth:`MetricsRegistry.bind_watcher`), so the byte-identical snapshot
  contract of the registry itself is untouched.
* **Hot-shard detection** — a ranked :class:`HotShardReport` over per-server
  execution rates (windowed ``engine.real_visits``) and in-flight skew
  (:meth:`Coordinator.inflight_by_server`), the signal a future rebalancer
  subscribes to.
* **SLO feeding** — traversal terminals and scheduler rejections are
  forwarded to the per-tenant :class:`~repro.obs.slo.SLOTracker`, and the
  combined verdict drives the flight recorder's tail-sampling keep decision
  (failed / cancelled / slow / alert-matching / seeded 1-in-N).

Determinism: the plane never reads the wall clock — windows are derived from
the bound runtime clock — and holds no iteration-order-dependent state, so
on the simulated runtime every rollup payload, report, and keep decision is
a pure function of (seed, configuration).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.metrics import Histogram, MetricKey, canonical_json, render_key

#: metric whose per-server rate drives the hot-shard score (both engines
#: count one ``engine.real_visits`` per actually-processed work unit)
EXEC_RATE_METRIC = "engine.real_visits"


@dataclass(frozen=True)
class TelemetryConfig:
    """Windowing and hot-shard knobs (clock units are virtual seconds)."""

    #: fixed window width on the runtime clock
    window_width: float = 0.25
    #: bounded ring: windows retained per series
    max_windows: int = 64
    #: histogram samples kept per window (first-N, deterministic); overflow
    #: is counted, never silently lost
    max_samples_per_window: int = 512
    #: hot-shard score weights: rate skew vs in-flight skew
    hot_rate_weight: float = 1.0
    hot_inflight_weight: float = 1.0
    #: a server is *hot* at or above this score (uniform load scores
    #: ``hot_rate_weight + hot_inflight_weight``; 3.0 with the default
    #: weights means ~1.5x the cluster mean)
    hot_score_threshold: float = 3.0


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


class _CounterSeries:
    __slots__ = ("windows",)

    def __init__(self) -> None:
        self.windows: deque[list] = deque()  # [window_index, total]


class _GaugeSeries:
    __slots__ = ("windows",)

    def __init__(self) -> None:
        self.windows: deque[list] = deque()  # [window_index, last_value]


class _HistSeries:
    __slots__ = ("windows",)

    def __init__(self) -> None:
        self.windows: deque[list] = deque()  # [window_index, samples, overflow]


class _NullLock:
    """No-op lock for the single-threaded simulated runtime — ingestion
    rides the engines' hot paths, and an uncontended-but-real lock is still
    measurable there."""

    __slots__ = ()

    def acquire(self) -> None:
        pass

    def release(self) -> None:
        pass

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc) -> None:
        pass


class TelemetryPlane:
    """Clock-driven rollups + SLO/sampling glue for one cluster.

    ``Cluster.build`` creates one per cluster, binds the runtime clock and
    the flight recorder, and installs :meth:`ingest` as the metrics
    registry's watcher and :meth:`on_terminal` at the head of the
    coordinator's terminal chain (so the scheduler's QoS entry is still
    alive when the plane reads it).
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        *,
        slo=None,
        thread_safe: bool = True,
    ):
        self.config = config or TelemetryConfig()
        self.slo = slo
        self._clock: Callable[[], float] = lambda: 0.0
        self._recorder = None
        self._width = self.config.window_width
        self._inv_width = 1.0 / self.config.window_width
        self._max_windows = self.config.max_windows
        self._max_samples = self.config.max_samples_per_window
        self._counters: dict[MetricKey, _CounterSeries] = {}
        self._gauges: dict[MetricKey, _GaugeSeries] = {}
        self._hists: dict[MetricKey, _HistSeries] = {}
        self._lock = threading.Lock() if thread_safe else _NullLock()
        # pull mode (simulated runtime): window contents come from diffing
        # the registry at clock-boundary crossings instead of per-record
        # ingestion — zero cost on the engines' hot paths
        self._pull = False
        self._registry = None
        self._cur_widx = 0
        self._counter_marks: dict[MetricKey, float] = {}
        self._gauge_marks: dict[MetricKey, float] = {}
        self._hist_marks: dict[MetricKey, int] = {}

    # -- wiring --------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def bind_recorder(self, recorder) -> None:
        self._recorder = recorder

    def install_pull(self, sim, registry) -> None:
        """Switch to pull-based windowing on the simulated runtime: the
        kernel's boundary watcher closes each window by diffing ``registry``
        totals against the previous close (:meth:`ingest` then only forwards
        the SLO feed). Exact — every record between two crossings belongs to
        the window being closed — and free on the record path."""
        self._pull = True
        self._registry = registry
        self._cur_widx = int(sim.now * self._inv_width)
        sim.set_boundary_watcher(
            self._on_boundary, (self._cur_widx + 1) * self._width
        )

    def _on_boundary(self, now: float) -> float:
        """Kernel callback: the clock reached the next window boundary."""
        with self._lock:
            self._flush_window()
            self._cur_widx = int(now * self._inv_width)
        return (self._cur_widx + 1) * self._width

    def _flush_window(self) -> None:
        """Close (or top up) the current window from registry deltas.

        Callers hold ``self._lock``. Safe to run repeatedly mid-window:
        slots merge on window index, so read-time refreshes never double
        count."""
        reg = self._registry
        widx = self._cur_widx
        max_windows = self._max_windows
        marks = self._counter_marks
        for key, total in reg._counters.items():
            delta = total - marks.get(key, 0)
            if not delta:
                continue
            marks[key] = total
            series = self._counters.get(key)
            if series is None:
                series = self._counters[key] = _CounterSeries()
            ring = series.windows
            if ring and ring[-1][0] == widx:
                ring[-1][1] += delta
            else:
                ring.append([widx, delta])
                if len(ring) > max_windows:
                    ring.popleft()
        gmarks = self._gauge_marks
        for key, value in reg._gauges.items():
            if gmarks.get(key) == value and key in gmarks:
                continue
            gmarks[key] = value
            gseries = self._gauges.get(key)
            if gseries is None:
                gseries = self._gauges[key] = _GaugeSeries()
            ring = gseries.windows
            if ring and ring[-1][0] == widx:
                ring[-1][1] = value
            else:
                ring.append([widx, value])
                if len(ring) > max_windows:
                    ring.popleft()
        hmarks = self._hist_marks
        max_samples = self._max_samples
        for key, hist in reg._histograms.items():
            start = hmarks.get(key, 0)
            samples = hist.samples
            if len(samples) <= start:
                continue
            hmarks[key] = len(samples)
            fresh = samples[start:]
            hseries = self._hists.get(key)
            if hseries is None:
                hseries = self._hists[key] = _HistSeries()
            ring = hseries.windows
            if ring and ring[-1][0] == widx:
                slot = ring[-1]
                room = max_samples - len(slot[1])
                slot[1].extend(fresh[:room])
                slot[2] += max(0, len(fresh) - room)
            else:
                ring.append(
                    [widx, fresh[:max_samples],
                     max(0, len(fresh) - max_samples)]
                )
                if len(ring) > max_windows:
                    ring.popleft()

    def _refresh(self) -> None:
        """Fold the in-progress window in before a read (pull mode only)."""
        if self._pull:
            with self._lock:
                self._flush_window()

    # -- ingestion (the MetricsRegistry watcher) ------------------------------

    def ingest(self, kind: str, key: MetricKey, value: float) -> None:
        """One registry recording: bin it into the current window.

        Called by :class:`MetricsRegistry` after every ``count`` /
        ``set_gauge`` / ``observe`` (outside the registry's lock). Must stay
        cheap — this rides the engines' hot paths.
        """
        if self._pull:
            # windows come from boundary flushes; only the SLO rejection
            # feed below needs the per-event hook (the registry watcher is
            # name-filtered to it on the simulated runtime)
            if (
                kind == "counter"
                and key[0] == "sched.rejected"
                and self.slo is not None
            ):
                tenant = dict(key[1]).get("tenant")
                if tenant is not None:
                    self.slo.record_rejection(str(tenant), self._clock())
            return
        widx = int(self._clock() * self._inv_width)
        lock = self._lock
        lock.acquire()
        try:
            if kind == "counter":
                series = self._counters.get(key)
                if series is None:
                    series = self._counters[key] = _CounterSeries()
                ring = series.windows
                if ring and ring[-1][0] == widx:
                    ring[-1][1] += value
                else:
                    ring.append([widx, value])
                    if len(ring) > self._max_windows:
                        ring.popleft()
            elif kind == "gauge":
                gseries = self._gauges.get(key)
                if gseries is None:
                    gseries = self._gauges[key] = _GaugeSeries()
                ring = gseries.windows
                if ring and ring[-1][0] == widx:
                    ring[-1][1] = value
                else:
                    ring.append([widx, value])
                    if len(ring) > self._max_windows:
                        ring.popleft()
            else:  # histogram
                hseries = self._hists.get(key)
                if hseries is None:
                    hseries = self._hists[key] = _HistSeries()
                ring = hseries.windows
                if ring and ring[-1][0] == widx:
                    slot = ring[-1]
                    if len(slot[1]) < self._max_samples:
                        slot[1].append(value)
                    else:
                        slot[2] += 1
                else:
                    ring.append([widx, [value], 0])
                    if len(ring) > self._max_windows:
                        ring.popleft()
        finally:
            lock.release()
        # SLO forwarding happens after the lock is released: the tracker may
        # record alert metrics, which re-enter ingest()
        if (
            kind == "counter"
            and key[0] == "sched.rejected"
            and self.slo is not None
        ):
            tenant = dict(key[1]).get("tenant")
            if tenant is not None:
                self.slo.record_rejection(str(tenant), self._clock())

    # -- terminal hook (head of the coordinator's on_terminal chain) ----------

    def on_terminal(self, travel_id: int, status: str, entry=None) -> None:
        """A traversal reached a terminal state; ``entry`` is the
        scheduler's still-live :class:`QueuedTravel` (None for composite
        children and queued-side cancellations)."""
        now = self._clock()
        tenant = entry.tenant if entry is not None else None
        latency = (now - entry.admit_time) if entry is not None else None
        if self.slo is not None and tenant is not None:
            self.slo.record_terminal(tenant, status, latency, now)
        recorder = self._recorder
        if recorder is not None and recorder.sampling_active:
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
        if self.slo is not None:
            if self.slo.violates_latency(latency):
                return "slow"
            if tenant is not None and self.slo.alert_active(tenant):
                return "alert"
        recorder = self._recorder
        if (
            recorder is not None
            and recorder.sampling is not None
            and recorder.sampling.sampled(travel_id)
        ):
            return "sampled"
        return None

    def on_coordinator_crash(self) -> None:
        """The coordinator's host crashed: every pending (undecided) trace
        buffer is kept — travels in flight across a control-plane crash are
        exactly the ones an operator will want to read back."""
        recorder = self._recorder
        if recorder is not None and recorder.sampling_active:
            recorder.keep_all_pending(reason="coord.crash")

    # -- reading: rollups ------------------------------------------------------

    def window_start(self, widx: int) -> float:
        return widx * self._width

    def rollups(self) -> dict[str, Any]:
        """The full windowed rollup state as a canonical, sorted payload."""
        self._refresh()
        with self._lock:
            counters = {
                render_key(k): [
                    {
                        "window": w,
                        "start": self.window_start(w),
                        "count": total,
                        "rate": total / self._width,
                    }
                    for w, total in self._counters[k].windows
                ]
                for k in sorted(self._counters)
            }
            gauges = {
                render_key(k): [
                    {"window": w, "start": self.window_start(w), "last": v}
                    for w, v in self._gauges[k].windows
                ]
                for k in sorted(self._gauges)
            }
            histograms = {}
            for k in sorted(self._hists):
                rows = []
                for w, samples, overflow in self._hists[k].windows:
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
            "window_width": self._width,
            "max_windows": self.config.max_windows,
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
        self._refresh()
        with self._lock:
            series = self._counters.get(key)
            if series is None or not series.windows:
                return 0.0
            total = sum(t for _w, t in series.windows)
            span = (series.windows[-1][0] - series.windows[0][0] + 1) * self._width
        return total / span

    # -- hot-shard detection ---------------------------------------------------

    def hot_shards(
        self, inflight_by_server: dict[int, int], nservers: int
    ) -> HotShardReport:
        """Rank servers by combined execution-rate and in-flight skew.

        ``score = w_rate * rate/mean_rate + w_inflight * inflight/mean_inflight``
        (a term drops out while its cluster-wide mean is zero), so uniform
        load scores ``w_rate + w_inflight`` everywhere and a hot shard
        scores its skew multiple.
        """
        cfg = self.config
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
                score += cfg.hot_rate_weight * rates[s] / mean_rate
            if mean_inflight > 0:
                score += cfg.hot_inflight_weight * inflight[s] / mean_inflight
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
        hot = [r["server"] for r in rows if r["score"] >= cfg.hot_score_threshold]
        return HotShardReport(
            clock=self._clock(),
            window_width=self._width,
            servers=rows,
            ranked=ranked,
            hot=hot,
        )

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._counter_marks.clear()
            self._gauge_marks.clear()
            self._hist_marks.clear()
