"""The benchmark's names: workloads, end-to-end metrics, layers, counters, probes.

This module is the single source of every name ``BENCHMARK.json`` declares;
``calibrate.benchmark_json`` renders that file from it and ``run.py``
refuses to print a result whose metric names differ from it. Later issues
refer to these names, so treat them as fixed.
"""

from __future__ import annotations

from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: run documents and checkpoint scratch; git-ignored
OUT_DIR = PERF_DIR / "out"

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

#: seconds one run measures; op counts are sized for this on the calibration
#: machine and scale linearly with ``--seconds``
RUN_SECONDS = 16

#: RMAT scale of the gated runs. The issue sized the workloads at scale 12
#: (and 128 Darshan users); that does not fit the driver's time cap, so the
#: gated default is one step down. ``--scale 12`` reproduces the issue's size.
DEFAULT_SCALE = 11

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

WORKLOADS = [
    {
        "name": "kstep8_rmat",
        "why": "Paper's headline 8-step RMAT cell, cold cache, no predicates: "
        "engine, storage read path, routing and sim do the work",
    },
    {
        "name": "audit_darshan",
        "why": "Darshan audit queries with edge predicates, rtn(), composites "
        "and the cost planner: same read path used differently; largest set-up",
    },
    {
        "name": "tenants_ops",
        "why": "Concurrent tenants, warm cache, wfq + journal + reliable + "
        "telemetry + sampled tracing on: the operational layers' cost",
    },
    {
        "name": "ingest_mixed",
        "why": "Live inserts beside reads with periodic flush and compaction: "
        "the only write path, so read/write/space trades show",
    },
]
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

#: (name, unit, better, floor). ``floor`` is the policy bound; the committed
#: bound is ``max(floor, 3 x IQR/median)`` capped at ``BOUND_CAP``.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_wall_ms_p50", "ms", "lower", 0.05),
    ("ops_per_s", "1/s", "higher", 0.05),
    ("virtual_ms_p50", "ms", "lower", 0.01),
    ("virtual_ms_p95", "ms", "lower", 0.01),
    ("stored_bytes_per_edge", "B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.10),
]
BOUND_CAP = 0.25

#: metrics the simulator makes deterministic: same seed, same value, bit for bit
EXACT_END_TO_END = ("virtual_ms_p50", "virtual_ms_p95", "stored_bytes_per_edge")

#: layer -> module path prefixes under ``repro/`` (longest prefix wins)
LAYERS = {
    "storage.encoding": ("storage/encoding",),
    "storage.layout": ("storage/layout",),
    "storage.lsm": ("storage/lsm", "storage/sstable", "storage/memtable",
                    "storage/costmodel"),
    "storage.bloom": ("storage/bloom",),
    "storage.blockcache": ("storage/blockcache",),
    "storage.columnar": ("storage/columnar",),
    "storage.persist": ("storage/persist",),
    "engine.visit": ("engine/visit", "engine/frontier", "engine/batch",
                     "engine/statistics", "engine/base"),
    "engine.cache": ("engine/cache",),
    "engine.async_engine": ("engine/async_engine",),
    "engine.sync_engine": ("engine/sync_engine",),
    "sim": ("sim/",),
    "runtime": ("runtime/",),
    "net": ("net/",),
    "routing": ("rebalance/routing", "partition/"),
    "cluster.coordinator": ("cluster/coordinator",),
    "cluster.journal": ("cluster/journal",),
    "sched": ("sched/",),
    "lang": ("lang/",),
    "obs": ("obs/",),
}
OTHER = "other"

#: (name, unit, better) read from the cluster after the untraced pass
COUNTERS = [
    ("engine.real_visits", "count", "lower"),
    ("engine.combined_visits", "count", "higher"),
    ("engine.redundant_visits", "count", "lower"),
    ("engine.useful_visit_ratio", "ratio", "higher"),
    ("engine.requests", "count", "lower"),
    ("engine.queue_wait_virtual_s", "s", "lower"),
    ("engine.cache.affiliate_hits", "count", "higher"),
    ("storage.lsm.scans", "count", "lower"),
    ("storage.lsm.gets", "count", "lower"),
    ("storage.lsm.puts", "count", "lower"),
    ("storage.lsm.entries_scanned", "count", "lower"),
    ("storage.lsm.entries_filtered", "count", "higher"),
    ("storage.lsm.flushes", "count", "lower"),
    ("storage.lsm.compactions", "count", "lower"),
    ("storage.blockcache.hit_ratio", "ratio", "higher"),
    ("storage.bloom.false_positive_ratio", "ratio", "lower"),
    ("storage.decoded_blocks", "count", "lower"),
    ("storage.disk_access_virtual_s", "s", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes_sent", "B", "lower"),
    ("net.bytes_per_message", "B", "lower"),
    ("net.retries", "count", "lower"),
    ("cluster.coordinator.exec_status", "count", "lower"),
    ("cluster.coordinator.result_reports", "count", "lower"),
    ("cluster.journal.records", "count", "lower"),
    ("cluster.journal.bytes", "B", "lower"),
    ("sched.wait_virtual_s", "s", "lower"),
    ("obs.trace.events_recorded", "count", "lower"),
    ("obs.trace.dropped_events", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
]

#: (name, unit, better) — direct calls into one layer's public functions
PROBES = [
    ("storage.encoding.pack_props_per_s", "1/s", "higher"),
    ("storage.encoding.unpack_edge_record_per_s", "1/s", "higher"),
    ("storage.columnar.encode_edges_per_s", "1/s", "higher"),
    ("storage.columnar.decode_edges_per_s", "1/s", "higher"),
    ("storage.lsm.put_per_s", "1/s", "higher"),
    ("storage.lsm.get_per_s", "1/s", "higher"),
    ("storage.lsm.scan_entries_per_s", "1/s", "higher"),
    ("storage.lsm.compact_entries_per_s", "1/s", "higher"),
    ("storage.bloom.add_per_s", "1/s", "higher"),
    ("storage.bloom.probe_per_s", "1/s", "higher"),
    ("storage.layout.load_edges_per_s", "1/s", "higher"),
    ("storage.layout.read_edges_per_s", "1/s", "higher"),
    ("storage.layout.insert_edges_per_s", "1/s", "higher"),
    ("sim.null_events_per_s", "1/s", "higher"),
    ("routing.owner_per_s", "1/s", "higher"),
    ("net.message.size_per_s", "1/s", "higher"),
    ("engine.frontier.merge_entry_per_s", "1/s", "higher"),
    ("engine.cache.lookup_per_s", "1/s", "higher"),
    ("engine.visit.expand_vertex_per_s", "1/s", "higher"),
    ("lang.compile_per_s", "1/s", "higher"),
    ("lang.optimizer.plan_per_s", "1/s", "higher"),
    ("cluster.journal.append_per_s", "1/s", "higher"),
    ("cluster.journal.replay_per_s", "1/s", "higher"),
    ("obs.metrics.count_per_s", "1/s", "higher"),
    ("obs.exporter.openmetrics_ms", "ms", "lower"),
    ("partition.assign_vertices_per_s", "1/s", "higher"),
    ("graph.stats.summary_vertices_per_s", "1/s", "higher"),
    ("workloads.rmat_edges_per_s", "1/s", "higher"),
]

#: numbers of the traced run that belong to no single layer
BENCH_METRICS = [
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    # the tail of the primary op's host wall-clock over the plain pass; too
    # unsteady across seeds on 14-20 ops to carry a bound (see README)
    ("bench.op_wall_ms_p95", "ms", "lower"),
    # the paper's Table I ratio at 8 servers is 17.1 s / 13.4 s = 1.28 and
    # EXPERIMENTS.md measures 1.03; the gap is the model's stated error
    ("engine.virtual_speedup_vs_sync", "ratio", "higher"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints, in declaration order."""
    out = []
    for layer in [*LAYERS, OTHER]:
        out.append((f"{layer}.self_share", "ratio", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    return out + BENCH_METRICS + COUNTERS + PROBES


def exact_metrics() -> set[str]:
    """Metrics that must repeat bit for bit for a seed: the simulator's
    clock and every count. ``sim.events_per_s`` divides by host time."""
    names = set(EXACT_END_TO_END)
    names.update(name for name, _, _ in COUNTERS if name != "sim.events_per_s")
    names.update(name for name, _, _ in per_layer_metrics() if name.endswith(".calls"))
    names.add("engine.virtual_speedup_vs_sync")
    return names


def units() -> dict[str, str]:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer_metrics()})
    return table
