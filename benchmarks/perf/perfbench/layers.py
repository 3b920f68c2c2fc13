"""Per-layer numbers taken from outside the program: a cProfile attribution
by module path, and the counters the cluster already keeps.

Spans inside the program are a later issue; until then the layer boundary is
the file a function lives in.
"""

from __future__ import annotations

import pstats
import re
from collections import defaultdict

from perfbench import spec

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in spec.LAYERS.items() for prefix in prefixes),
    key=lambda pair: -len(pair[0]),
)
_REPRO = re.compile(r"[/\\]repro[/\\](.+)\.py$")


def layer_of(filename: str):
    """The layer a source file belongs to; None for built-ins, the standard
    library and third-party code, whose time is charged to their callers."""
    match = _REPRO.search(filename)
    if match is None:
        return spec.OTHER if str(spec.PERF_DIR) in filename else None
    module = match.group(1).replace("\\", "/")
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    return spec.OTHER


def attribute(profile) -> dict[str, float]:
    """Fold a cProfile run into ``<layer>.self_share`` / ``<layer>.calls``
    plus ``sim.events`` (calls to ``Simulator.schedule``).

    Self time of a function outside ``repro`` goes to the layer that called
    it, through the profile's caller table; when that caller is itself
    outside ``repro`` (stdlib calling a built-in) the charge follows the
    caller's own callers, weighted by cumulative time.
    """
    stats = pstats.Stats(profile).stats
    own = {func: layer_of(func[0]) for func in stats}
    resolved: dict = {}

    def owners(func) -> dict[str, float]:
        """Layer weights (summing to 1) that pay for ``func``'s self time."""
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in resolved:
            return resolved[func]
        resolved[func] = {spec.OTHER: 1.0}  # cycle guard and rootless default
        callers = stats[func][4]
        total = sum(ct for _, _, _, ct in callers.values())
        if total > 0:
            weights: dict[str, float] = defaultdict(float)
            for caller, (_, _, _, ct) in callers.items():
                for layer, w in owners(caller).items():
                    weights[layer] += w * ct / total
            resolved[func] = dict(weights)
        return resolved[func]

    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sim_events = 0
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            self_time[layer] += tottime
            calls[layer] += ncalls
            if layer == "sim" and func[2] == "schedule":
                sim_events += ncalls
        elif callers:
            for caller, (_, _, tt, _) in callers.items():
                for payer, w in owners(caller).items():
                    self_time[payer] += tt * w
        else:
            self_time[spec.OTHER] += tottime
    total = sum(self_time.values()) or 1.0
    out: dict[str, float] = {}
    for layer in [*spec.LAYERS, spec.OTHER]:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls"] = calls[layer]
    out["sim.events"] = sim_events
    return out


def _total(section: dict, name: str, field: str = "") -> float:
    """Sum a metric over its label sets (``name{server=3}`` ...)."""
    total = 0.0
    for key, value in section.items():
        if key == name or key.startswith(name + "{"):
            total += value[field] if field else value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(cluster, outcomes: list) -> dict[str, float]:
    """The exact counters, read once after the last op.

    A layer that was not configured reports a true zero (no journal: zero
    records), not an absent value.
    """
    snap = cluster.metrics_snapshot()
    count, gauge, hist = snap["counters"], snap["gauges"], snap["histograms"]
    real = sum(o.stats.real_io_visits for o in outcomes)
    combined = sum(o.stats.combined_visits for o in outcomes)
    redundant = sum(o.stats.redundant_visits for o in outcomes)
    messages = _total(gauge, "runtime.messages_sent")
    sent = _total(gauge, "runtime.bytes_sent")
    hits = _total(gauge, "storage.blockcache.hits")
    recorder = cluster.obs.trace
    out = {
        "engine.real_visits": real,
        "engine.combined_visits": combined,
        "engine.redundant_visits": redundant,
        "engine.useful_visit_ratio": _ratio(real, real + combined + redundant),
        "engine.requests": _total(count, "engine.requests"),
        "engine.queue_wait_virtual_s": _total(hist, "engine.queue_wait_seconds", "sum"),
        "engine.cache.affiliate_hits": _total(count, "cache.affiliate_hits"),
        "storage.blockcache.hit_ratio": _ratio(
            hits, hits + _total(gauge, "storage.blockcache.misses")
        ),
        "storage.bloom.false_positive_ratio": _ratio(
            _total(gauge, "storage.lsm.bloom_false_positives"),
            _total(gauge, "storage.bloom.probes"),
        ),
        "storage.decoded_blocks": _total(gauge, "storage.decoded_blocks"),
        "storage.disk_access_virtual_s": _total(hist, "disk.access_seconds", "sum"),
        "net.messages": messages,
        "net.bytes_sent": sent,
        "net.bytes_per_message": _ratio(sent, messages),
        "net.retries": _total(count, "net.retries"),
        "cluster.coordinator.exec_status": _total(count, "coord.exec_status"),
        "cluster.coordinator.result_reports": _total(count, "coord.result_reports"),
        "cluster.journal.records": _total(gauge, "journal.records"),
        "cluster.journal.bytes": _total(gauge, "journal.bytes_appended"),
        "sched.wait_virtual_s": _total(hist, "sched.wait_seconds", "sum"),
        "obs.trace.events_recorded": len(recorder),
        "obs.trace.dropped_events": recorder.dropped,
    }
    for name in ("scans", "gets", "puts", "entries_scanned", "entries_filtered",
                 "flushes", "compactions"):
        out[f"storage.lsm.{name}"] = _total(gauge, f"storage.lsm.{name}")
    return out


def stored_bytes_per_edge(cluster) -> float:
    gauge = cluster.metrics_snapshot()["gauges"]
    return _ratio(
        _total(gauge, "storage.edge_bytes"), _total(gauge, "storage.edge_count")
    )
