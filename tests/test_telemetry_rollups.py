"""Windowed rollups, boundary flushing, and hot-shard detection."""

import pytest

from repro.engine import EngineKind
from repro.lang import GTravel
from repro.obs import Observability
from repro.obs.telemetry import (
    EXEC_RATE_METRIC,
    MAX_SAMPLES_PER_WINDOW,
    MAX_WINDOWS,
    WINDOW_WIDTH,
    HotShardReport,
    TelemetryPlane,
)
from tests.conftest import ALL_ENGINES, build_cluster


class FakeRuntime:
    """The two things the plane needs from a runtime: a clock (moved by
    hand here) and the boundary hook, fired on a crossing the way the
    simulator fires it."""

    def __init__(self):
        self.t = 0.0
        self._fn = None
        self._threshold = float("inf")

    def now(self):
        return self.t

    def on_clock_boundary(self, fn, threshold):
        self._fn, self._threshold = fn, threshold

    def advance(self, t):
        self.t = t
        while t >= self._threshold:
            self._threshold = self._fn(t)


def make_plane():
    runtime, obs = FakeRuntime(), Observability()
    plane = TelemetryPlane(slo=obs.slo, recorder=obs.trace)
    plane.install(runtime, obs.metrics)
    return plane, obs.metrics, runtime


# -- windowing a registry on a clock ---------------------------------------------


def test_counters_bin_into_clock_windows_with_rates():
    plane, registry, runtime = make_plane()
    registry.count("coord.submitted", 2)
    runtime.advance(0.9 * WINDOW_WIDTH)
    registry.count("coord.submitted", 1)
    runtime.advance(2.5 * WINDOW_WIDTH)  # skips window 1 entirely
    registry.count("coord.submitted", 4)
    windows = plane.rollups()["counters"]["coord.submitted"]
    assert [(w["window"], w["count"], w["rate"]) for w in windows] == [
        (0, 3, 3 / WINDOW_WIDTH),
        (2, 4, 4 / WINDOW_WIDTH),
    ]
    assert windows[0]["start"] == 0.0 and windows[1]["start"] == 2 * WINDOW_WIDTH


def test_window_ring_is_bounded_and_evicts_oldest():
    plane, registry, runtime = make_plane()
    for w in range(MAX_WINDOWS + 1):
        runtime.advance(w * WINDOW_WIDTH)
        registry.count("x")
    rollups = plane.rollups()
    # one window past the bound: window 0 is the one evicted
    assert [w["window"] for w in rollups["counters"]["x"]] == list(
        range(1, MAX_WINDOWS + 1)
    )
    assert (rollups["window_width"], rollups["max_windows"]) == (0.25, 64)


def test_gauges_keep_last_sample_per_window():
    plane, registry, runtime = make_plane()
    registry.set_gauge("depth", 5)
    registry.set_gauge("depth", 7)
    runtime.advance(1.5 * WINDOW_WIDTH)
    registry.set_gauge("depth", 2)
    windows = plane.rollups()["gauges"]["depth"]
    assert [(w["window"], w["last"]) for w in windows] == [(0, 7), (1, 2)]


def test_histogram_windows_summarize_with_bounded_samples():
    plane, registry, _runtime = make_plane()
    for v in range(1, MAX_SAMPLES_PER_WINDOW + 2):
        registry.observe("lat", float(v))
    (row,) = plane.rollups()["histograms"]["lat"]
    # first-N retention: 512 samples kept, the 513th counted as overflow,
    # never lost
    assert row["count"] == MAX_SAMPLES_PER_WINDOW and row["overflow"] == 1
    assert row["p50"] == MAX_SAMPLES_PER_WINDOW / 2


def test_recent_rate_spans_retained_windows():
    plane, registry, runtime = make_plane()
    registry.count("hits", 3, server=1)
    runtime.advance(2 * WINDOW_WIDTH)  # window 2: span covers windows 0..2
    registry.count("hits", 3, server=1)
    assert plane.recent_rate("hits", server=1) == pytest.approx(
        6 / (3 * WINDOW_WIDTH)
    )
    assert plane.recent_rate("hits", server=9) == 0.0


def test_clear_resets_all_series():
    plane, registry, _runtime = make_plane()
    registry.count("x")
    registry.observe("lat", 1.0)
    plane.clear()
    payload = plane.rollups()
    assert payload["counters"] == {} and payload["histograms"] == {}


def test_cluster_clear_rebaselines_on_the_registry_totals():
    """``clear()`` empties the windows for good: the all-time registry totals
    must not be folded back into the current window by the next read."""
    graph, vids = small_graph()
    cluster = build_cluster(graph, EngineKind.GRAPHTREK, nservers=2)
    query = GTravel.v(vids[0]).e("link").e("link").e("link")
    cluster.traverse(query)
    before = cluster.metrics_snapshot()["counters"]
    assert cluster.rollups()["counters"]
    cluster.telemetry.clear()
    assert cluster.rollups()["counters"] == {}
    assert cluster.rollups()["counters"] == {}  # and stays empty on re-read
    cluster.traverse(query)
    after = cluster.metrics_snapshot()["counters"]
    for rendered, windows in cluster.rollups()["counters"].items():
        # only the second traversal's work is windowed
        assert sum(w["count"] for w in windows) == pytest.approx(
            after[rendered] - before.get(rendered, 0)
        ), rendered


# -- on a cluster (runtime boundary flushes) -----------------------------------


def small_graph():
    from repro.graph import GraphBuilder

    b = GraphBuilder()
    vids = [b.vertex("n") for _ in range(24)]
    for i in range(23):
        b.edge(vids[i], vids[i + 1], "link")
        b.edge(vids[i], vids[(i * 7) % 24], "link")
    return b.build(), vids


def test_pull_mode_window_totals_match_registry_totals():
    graph, vids = small_graph()
    cluster = build_cluster(graph, EngineKind.GRAPHTREK, nservers=3)
    cluster.traverse(GTravel.v(vids[0]).e("link").e("link").e("link"))
    rollups = cluster.rollups()
    snapshot = cluster.metrics_snapshot()
    assert rollups["counters"], "pull mode produced no counter windows"
    for rendered, windows in rollups["counters"].items():
        # every counter recorded after build flushes exactly once per window:
        # the windowed total must reconcile with the cumulative snapshot
        assert sum(w["count"] for w in windows) == pytest.approx(
            snapshot["counters"][rendered]
        ), rendered


def test_pull_mode_is_deterministic_across_reruns():
    def run():
        graph, vids = small_graph()
        cluster = build_cluster(graph, EngineKind.ASYNC, nservers=3)
        cluster.traverse(GTravel.v(vids[0]).e("link").e("link"))
        return cluster.telemetry.rollups_json()

    assert run() == run()


def test_registry_snapshot_bytes_unaffected_by_telemetry():
    """Reading the plane must not change one byte of the registry's own
    snapshot: rollups, hot-shard reports and OpenMetrics dumps taken between
    traversals leave it exactly as a cluster nobody read."""
    graph, vids = small_graph()
    plan = GTravel.v(vids[0]).e("link").e("link")

    def run(read_plane):
        cluster = build_cluster(graph, EngineKind.GRAPHTREK, nservers=3)
        for _ in range(2):
            cluster.traverse(plan)
            if read_plane:
                cluster.rollups()
                cluster.hot_shard_report()
                cluster.openmetrics()
        return cluster.board.obs.metrics.to_json()

    assert run(True) == run(False)


# -- hot-shard detection ------------------------------------------------------


def test_hot_shard_ranking_scores_and_threshold():
    plane, registry, _runtime = make_plane()
    # server 0 does 6x the work of servers 1..2 and holds all the in-flight
    registry.count(EXEC_RATE_METRIC, 12, server=0)
    for s in (1, 2):
        registry.count(EXEC_RATE_METRIC, 2, server=s)
    report = plane.hot_shards({0: 4, 1: 0, 2: 0}, nservers=3)
    assert isinstance(report, HotShardReport)
    assert report.ranked == [0, 1, 2] and report.hottest == 0
    # rate share 12/16 vs mean 16/3 -> 2.25x; inflight 4 vs mean 4/3 -> 3x
    assert report.servers[0]["score"] == pytest.approx(2.25 + 3.0)
    assert report.hot == [0]


def test_uniform_load_is_never_hot():
    plane, registry, _runtime = make_plane()
    for s in range(4):
        registry.count(EXEC_RATE_METRIC, 5, server=s)
    report = plane.hot_shards({s: 1 for s in range(4)}, nservers=4)
    # uniform load scores rate 1.0 + in-flight 1.0 = 2.0 < threshold everywhere
    assert report.hot == []
    assert all(r["score"] == pytest.approx(2.0) for r in report.servers)
    assert report.ranked == [0, 1, 2, 3]  # deterministic tie-break


@pytest.mark.parametrize("kind", ALL_ENGINES)
def test_cluster_hot_shard_report_ranks_the_loaded_server(kind):
    graph, vids = small_graph()
    cluster = build_cluster(graph, kind, nservers=3)
    # pin every real visit on one server: starts owned by it, bogus label
    # means no expansion ever leaves it
    owner = cluster.partitioner.owner(vids[0])
    mine = [v for v in vids if cluster.partitioner.owner(v) == owner]
    for v in mine[:8]:
        cluster.traverse(GTravel.v(v).e("__no_such_label__"), cold=False)
    report = cluster.hot_shard_report()
    assert report.hottest == owner
    assert report.to_json() == cluster.hot_shard_report().to_json()
