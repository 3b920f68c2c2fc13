"""Run one workload: timed ops, oracle checks outside the timer, metrics.

Closed loop, one client, one process, one thread, on the simulated runtime.
End-to-end numbers come from an untraced run; the per-layer numbers from a
separate traced run, and the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError

from perfbench import layers, probes, spec
from perfbench.workloads import WORKLOADS, Workload, scaled


@dataclass
class PassResult:
    """What one pass over a workload's ops produced."""

    workload: Workload
    walls: dict[str, list[float]] = field(default_factory=dict)  # kind -> seconds
    virtual: list[float] = field(default_factory=list)  # primary traversals, s
    outcomes: list = field(default_factory=list)
    checked: int = 0
    failed: int = 0

    @property
    def primary_walls(self) -> list[float]:
        return self.walls.get(self.workload.primary, [])

    @property
    def timed_ops(self) -> int:
        return sum(len(w) for w in self.walls.values())

    @property
    def timed_wall(self) -> float:
        return sum(sum(w) for w in self.walls.values())


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); the only value
    when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(workload: Workload, counts: dict[str, int], profile=None) -> PassResult:
    """Run the ops once. Each op is timed alone, after a ``gc.collect()``;
    its oracle check runs after the timer (and the profiler) stopped. An op
    that raises a typed error counts as failed, as does every result that
    differs from ``ReferenceEngine``."""
    result = PassResult(workload)
    workload.prepare_oracle()
    for op in workload.ops(counts):
        # collect the last op's garbage, then freeze the survivors: the next
        # collection walks only what one op allocated, not the whole graph
        # (33 ms a call on ingest_mixed otherwise, 16 s of a run)
        gc.collect()
        gc.freeze()
        outcomes: list = []
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        try:
            outcomes = op.run()
        except ReproError as exc:
            print(f"# {workload.name}: {op.kind} raised {exc!r}", file=sys.stderr)
        finally:
            wall = time.perf_counter() - start
            if profile is not None:
                profile.disable()
        result.walls.setdefault(op.kind, []).append(wall)
        checked, failed = op.check(outcomes)
        result.checked += checked
        result.failed += failed
        result.outcomes.extend(outcomes)
        if op.kind == workload.primary:
            picked = outcomes if op.sampled is None else [
                outcomes[i] for i in op.sampled if i < len(outcomes)
            ]
            result.virtual.extend(o.stats.elapsed for o in picked)
    gc.unfreeze()
    checked, failed = workload.finish()
    result.checked += checked
    result.failed += failed
    return result


def timed_setup(workload: Workload) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def _single_threaded() -> None:
    if threading.active_count() != 1:
        raise RuntimeError(
            f"{threading.active_count()} threads alive; the benchmark is "
            "one process, one thread"
        )


def run_end_to_end(name: str, seed: int, scale: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    setups = []
    for _ in range(spec.SETUP_REPEATS):
        workload = WORKLOADS[name](seed, scale)
        setups.append(timed_setup(workload))
    done = run_pass(workload, scaled(workload.counts, seconds))
    _single_threaded()
    walls = done.primary_walls
    metrics = {
        "setup_s": statistics.median(setups),
        "op_wall_ms_p50": 1e3 * statistics.median(walls),
        "ops_per_s": done.timed_ops / done.timed_wall,
        "virtual_ms_p50": 1e3 * statistics.median(done.virtual),
        "virtual_ms_p95": 1e3 * percentile(done.virtual, 95),
        "stored_bytes_per_edge": layers.stored_bytes_per_edge(workload.cluster),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "metrics": metrics,
        "attempted": done.checked,
        "failed": done.failed,
        "samples": {
            "setups": len(setups),
            "primary_ops": len(walls),
            "timed_ops": done.timed_ops,
            "primary_traversals": len(done.virtual),
            "op_wall_ms_p95": 1e3 * percentile(walls, 95),
            "ops_by_kind": {k: len(w) for k, w in done.walls.items()},
            "op_wall_ms_p50_by_kind": {
                k: 1e3 * statistics.median(w) for k, w in done.walls.items()
            },
        },
        "timed_wall_s": done.timed_wall,
    }


def run_traced(name: str, seed: int, scale: int, seconds: float) -> dict:
    """The traced run: every per-layer metric of one workload.

    The same fixed subset of ops runs twice, each time on a freshly set-up
    cluster so both passes see identical state: once plain (counters and the
    overhead base), once under cProfile (attribution and call counts)."""
    cls = WORKLOADS[name]
    # a fixed subset at full length; smoke runs shrink it too
    counts = scaled(cls.trace_counts, min(seconds, spec.RUN_SECONDS))

    plain_wl = cls(seed, scale)
    plain_wl.setup()
    plain = run_pass(plain_wl, counts)
    metrics = layers.counters(plain_wl.cluster, plain.outcomes)

    traced_wl = cls(seed, scale)
    traced_wl.setup()
    profile = cProfile.Profile()
    traced = run_pass(traced_wl, counts, profile)
    _single_threaded()
    metrics.update(layers.attribute(profile))
    metrics["sim.events_per_s"] = metrics["sim.events"] / plain.timed_wall
    metrics["bench.trace_overhead_ratio"] = traced.timed_wall / plain.timed_wall
    metrics["bench.op_wall_ms_p95"] = 1e3 * percentile(plain.primary_walls, 95)

    probe_seconds = probes.PROBE_SECONDS * min(1.0, seconds / spec.RUN_SECONDS)
    probed, probe_checked, probe_failed = probes.run_all(seed, scale, probe_seconds)
    metrics.update(probed)
    return {
        "metrics": metrics,
        "attempted": plain.checked + traced.checked + probe_checked,
        "failed": plain.failed + traced.failed + probe_failed,
        "samples": {"traced_ops": traced.timed_ops},
        "timed_wall_s": plain.timed_wall,
        "traced_wall_s": traced.timed_wall,
    }
