"""Unit tests for the observability layer: registry, histograms, export."""

from __future__ import annotations

import json
import math
import random

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    metric_key,
    render_key,
    validate_snapshot,
)
from repro.obs.exporter import canonical_json, observability_payload


class TestMetricKey:
    def test_labels_sorted_regardless_of_call_order(self):
        assert metric_key("m", {"b": 1, "a": 2}) == metric_key("m", {"a": 2, "b": 1})

    def test_render_without_labels(self):
        assert render_key(metric_key("engine.visits", {})) == "engine.visits"

    def test_render_with_labels(self):
        key = metric_key("engine.visits", {"server": 3, "level": 1})
        assert render_key(key) == "engine.visits{level=1,server=3}"


class TestHistogram:
    def test_empty_summary_is_nan(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["sum"] == 0.0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["mean"])

    def test_single_sample(self):
        h = Histogram()
        h.observe(4.0)
        s = h.summary()
        assert s == {
            "count": 1, "sum": 4.0, "min": 4.0, "max": 4.0,
            "mean": 4.0, "p50": 4.0, "p95": 4.0, "p99": 4.0,
        }

    def test_nearest_rank_quantiles(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0

    def test_quantiles_insensitive_to_insertion_order(self):
        a, b = Histogram(), Histogram()
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        assert a.summary() == b.summary()

    def test_summary_equals_a_float_list_reference(self):
        """Samples are stored as C doubles; the summary equals, bit for bit,
        the one a plain float list gives, and its p50/p95/p99 (one sort)
        equal ``quantile`` (a sort each)."""
        rng = random.Random(7)
        values = [rng.expovariate(3.0) for _ in range(999)] + [3, 0, 1e-300]
        reg = MetricsRegistry()
        for v in values:
            reg.observe("lat", v)
        (hist,) = reg._histograms.values()
        assert hist.samples.itemsize == 8
        floats = [float(v) for v in values]
        ordered = sorted(floats)

        def rank(q):
            return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]

        total = sum(floats)
        assert reg.snapshot()["histograms"]["lat"] == {
            "count": len(floats), "sum": total, "min": ordered[0],
            "max": ordered[-1], "mean": total / len(floats),
            "p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99),
        }
        summary = hist.summary()
        assert [summary["p50"], summary["p95"], summary["p99"]] == [
            hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99)
        ]


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.count("visits", server=0)
        reg.count("visits", 2, server=0)
        reg.count("visits", server=1)
        assert reg.counter_value("visits", server=0) == 3
        assert reg.counter_value("visits", server=1) == 1
        assert reg.counter_total("visits") == 4

    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 5)
        reg.set_gauge("depth", 2)
        assert reg.gauge_value("depth") == 2

    def test_collectors_run_at_snapshot_and_are_idempotent(self):
        reg = MetricsRegistry()
        source = {"value": 7}
        reg.add_collector(lambda m: m.set_gauge("pull.value", source["value"]))
        assert reg.snapshot()["gauges"]["pull.value"] == 7
        # A second snapshot must agree (collectors set, never increment).
        assert reg.snapshot()["gauges"]["pull.value"] == 7
        source["value"] = 9
        assert reg.snapshot()["gauges"]["pull.value"] == 9

    def test_snapshot_keys_sorted_and_json_stable(self):
        reg = MetricsRegistry()
        reg.count("b.metric", server=1)
        reg.count("a.metric", server=2)
        reg.count("a.metric", server=0)
        snap = reg.snapshot()
        keys = list(snap["counters"])
        assert keys == sorted(keys)
        assert reg.to_json() == reg.to_json()
        # round-trips as JSON
        assert json.loads(reg.to_json()) == snap

    def test_clear_resets_everything(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.observe("h", 1.0)
        reg.clear()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}


class TestExportValidation:
    def test_payload_bundles_metrics_and_spans(self):
        obs = Observability()
        obs.metrics.count("c")
        payload = observability_payload(obs.metrics, obs.trace)
        assert set(payload) == {"metrics", "trace"}
        assert canonical_json(payload) == obs.to_json()

    def test_validate_flags_nan_and_empty(self):
        snap = {
            "counters": {"bad": float("nan")},
            "gauges": {},
            "histograms": {"empty": Histogram().summary()},
        }
        problems = validate_snapshot(snap)
        assert any("bad" in p for p in problems)
        assert any("empty" in p for p in problems)

    def test_validate_requires_histograms_when_asked(self):
        snap = {"counters": {}, "gauges": {}, "histograms": {}}
        assert validate_snapshot(snap) == []
        assert validate_snapshot(snap, require_histograms=True)

    def test_clean_snapshot_passes(self):
        reg = MetricsRegistry()
        reg.count("ok")
        reg.observe("lat", 0.25)
        assert validate_snapshot(reg.snapshot(), require_histograms=True) == []
