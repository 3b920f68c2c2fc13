"""The one exporter: the canonical JSON document, OpenMetrics text, health
snapshots, and the export linters.

:func:`write_observability` exports ``{"metrics": {...}, "trace": [...]}``
(metrics snapshot + flight-recorder event log) as canonical JSON;
:func:`validate_snapshot` is its sanity gate.

The wire formats of the telemetry plane (DESIGN.md §14):

* :func:`render_openmetrics` — the registry snapshot (plus, optionally, the
  latest-window rollups and health gauges) as OpenMetrics text: counters as
  ``<name>_total`` samples, gauges verbatim, histograms as summaries with
  ``quantile`` labels, terminated by ``# EOF``. Label values are escaped
  here (backslash, double quote, newline) — the registry's own
  :func:`~repro.obs.metrics.render_key` snapshot form is a stable internal
  contract and stays byte-identical, unescaped.
* :func:`validate_openmetrics` — the schema/linter gate CI runs over every
  exported dump: metric-name grammar, escaped label values, float-parseable
  sample values, TYPE-before-sample ordering, exactly one trailing
  ``# EOF``.
* :func:`health_payload` — the JSON health/readiness document
  (``Cluster.health()``): per-server liveness, coordinator epoch, scheduler
  queue depths, firing alerts.

Everything renders from already-deterministic inputs with sorted iteration,
so on the simulated runtime the dump and the health document are
byte-identical across reruns per (seed, configuration).
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.metrics import MetricKey, MetricsRegistry, canonical_json
from repro.obs.trace import FlightRecorder

#: OpenMetrics metric-name grammar (no dots — see :func:`metric_name`)
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: one exposition line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>\S+)$"
)

_SUMMARY_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def metric_name(name: str) -> str:
    """The registry's dotted metric name in OpenMetrics grammar
    (``coord.submitted`` → ``coord_submitted``)."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = "_" + out
    return out


def escape_label_value(value: Any) -> str:
    """OpenMetrics label-value escaping: backslash, double quote, newline.

    The fix for the PR-1 exporter gap: ``render_key`` never escaped label
    values, so a value holding ``"`` or a newline produced an unparseable
    exposition line. Escaping lives here, on the export boundary — the
    snapshot's ``name{k=v}`` rendering is unchanged.
    """
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _fmt(value: float) -> str:
    """Sample-value formatting: canonical, float-parseable, no locale."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _labels_text(labels: tuple[tuple[str, Any], ...], extra: tuple = ()) -> str:
    pairs = [
        f'{metric_name(str(k))}="{escape_label_value(v)}"'
        for k, v in (*labels, *extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _parse_rendered_key(rendered: str) -> MetricKey:
    """Invert ``render_key``: ``name{k=v,...}`` → (name, ((k, v), ...)).

    Snapshot label *values* are unescaped and may themselves contain ``,``
    or ``=`` — the split is best-effort greedy on the first ``=`` per pair,
    which round-trips every key the registry itself produced.
    """
    if "{" not in rendered:
        return rendered, ()
    name, _, inner = rendered.partition("{")
    inner = inner.rstrip("}")
    labels = []
    for pair in inner.split(","):
        k, _, v = pair.partition("=")
        labels.append((k, v))
    return name, tuple(labels)


def render_openmetrics(
    snapshot: dict[str, Any],
    *,
    rollups: Optional[dict[str, Any]] = None,
    health: Optional[dict[str, Any]] = None,
) -> str:
    """One OpenMetrics exposition of a metrics snapshot.

    ``rollups`` (a :meth:`TelemetryPlane.rollups` payload) contributes the
    *latest window* of every counter series as a ``rollup_<name>_rate``
    gauge — the live view an operator scrapes. ``health`` (a
    :func:`health_payload` document) contributes liveness/epoch/queue-depth
    gauges so one scrape answers "is it up" too.
    """
    lines: list[str] = []
    families: set[str] = set()

    def family(name: str, kind: str) -> None:
        if name not in families:
            families.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for rendered in sorted(snapshot.get("counters", {})):
        raw_name, labels = _parse_rendered_key(rendered)
        name = metric_name(raw_name)
        family(name, "counter")
        lines.append(
            f"{name}_total{_labels_text(labels)} "
            f"{_fmt(snapshot['counters'][rendered])}"
        )
    for rendered in sorted(snapshot.get("gauges", {})):
        raw_name, labels = _parse_rendered_key(rendered)
        name = metric_name(raw_name)
        family(name, "gauge")
        lines.append(
            f"{name}{_labels_text(labels)} {_fmt(snapshot['gauges'][rendered])}"
        )
    for rendered in sorted(snapshot.get("histograms", {})):
        raw_name, labels = _parse_rendered_key(rendered)
        name = metric_name(raw_name)
        summary = snapshot["histograms"][rendered]
        family(name, "summary")
        for q, stat in _SUMMARY_QUANTILES:
            lines.append(
                f"{name}{_labels_text(labels, (('quantile', q),))} "
                f"{_fmt(summary[stat])}"
            )
        lines.append(f"{name}_count{_labels_text(labels)} {_fmt(summary['count'])}")
        lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(summary['sum'])}")

    if rollups is not None:
        for rendered in sorted(rollups.get("counters", {})):
            windows = rollups["counters"][rendered]
            if not windows:
                continue
            raw_name, labels = _parse_rendered_key(rendered)
            name = f"rollup_{metric_name(raw_name)}_rate"
            family(name, "gauge")
            latest = windows[-1]
            lines.append(
                f"{name}{_labels_text(labels, (('window', latest['window']),))} "
                f"{_fmt(latest['rate'])}"
            )

    if health is not None:
        family("health_server_up", "gauge")
        for row in health.get("servers", []):
            lines.append(
                f'health_server_up{{server="{row["server"]}"}} '
                f"{1 if row['up'] else 0}"
            )
        family("health_coordinator_epoch", "gauge")
        lines.append(f"health_coordinator_epoch {_fmt(health.get('epoch', 0))}")
        sched = health.get("scheduler", {})
        family("health_sched_queue_depth", "gauge")
        lines.append(
            f"health_sched_queue_depth {_fmt(sched.get('queue_depth', 0))}"
        )
        family("health_sched_inflight", "gauge")
        lines.append(f"health_sched_inflight {_fmt(sched.get('inflight', 0))}")
        family("health_alerts_firing", "gauge")
        lines.append(f"health_alerts_firing {len(health.get('alerts', []))}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- the linter ---------------------------------------------------------------


def _valid_label_block(block: str) -> bool:
    """Parse a ``k="v",...`` label block honouring escape sequences."""
    i, n = 0, len(block)
    first = True
    while i < n:
        if not first:
            if block[i] != ",":
                return False
            i += 1
        first = False
        j = i
        while j < n and block[j] != "=":
            j += 1
        if j == n or not _LABEL_NAME_RE.match(block[i:j]):
            return False
        i = j + 1
        if i >= n or block[i] != '"':
            return False
        i += 1
        while i < n:
            c = block[i]
            if c == "\\":
                if i + 1 >= n or block[i + 1] not in ('\\', '"', 'n'):
                    return False
                i += 2
                continue
            if c == '"':
                break
            if c == "\n":
                return False
            i += 1
        if i >= n or block[i] != '"':
            return False
        i += 1
    return True


def validate_openmetrics(text: str) -> list[str]:
    """Schema problems in an OpenMetrics exposition; empty list = healthy."""
    problems: list[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        return ["document is empty"]
    if lines[-1] != "# EOF":
        problems.append("document does not end with '# EOF'")
    typed: dict[str, str] = {}
    seen_samples: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if line == "# EOF":
            if lineno != len(lines):
                problems.append(f"line {lineno}: '# EOF' before end of document")
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) >= 4 and parts[1] == "TYPE":
                fam, kind = parts[2], parts[3]
                if not _NAME_RE.match(fam):
                    problems.append(f"line {lineno}: bad family name {fam!r}")
                if kind not in ("counter", "gauge", "summary", "histogram",
                                "info", "unknown"):
                    problems.append(f"line {lineno}: unknown type {kind!r}")
                if fam in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for family {fam!r}"
                    )
                typed[fam] = kind
            elif len(parts) >= 2 and parts[1] in ("HELP", "UNIT"):
                pass
            else:
                problems.append(f"line {lineno}: malformed comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = m.group("name")
        labels = m.group("labels")
        value = m.group("value")
        if labels is not None and not _valid_label_block(labels):
            problems.append(
                f"line {lineno}: malformed/unescaped label block {labels!r}"
            )
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric value {value!r}")
        base = name
        for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            problems.append(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
        kind = typed.get(base)
        if kind == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter sample {name!r} lacks _total suffix"
            )
        seen_samples.add(line)
    return problems


# -- health / readiness --------------------------------------------------------


def health_payload(
    *,
    epoch: int,
    servers_up: list[bool],
    coordinator_server: int,
    queue_depth: int,
    inflight: int,
    policy: str,
    active_alerts: list[dict[str, Any]],
    journal: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The JSON health/readiness document (``Cluster.health()``).

    ``status`` is ``"ok"`` when every server is up and no alert fires,
    otherwise ``"degraded"`` — the load balancer's readiness bit.
    """
    servers = [
        {
            "server": i,
            "up": up,
            "coordinator_host": i == coordinator_server,
        }
        for i, up in enumerate(servers_up)
    ]
    degraded = (not all(servers_up)) or bool(active_alerts)
    doc: dict[str, Any] = {
        "status": "degraded" if degraded else "ok",
        "epoch": epoch,
        "servers": servers,
        "scheduler": {
            "queue_depth": queue_depth,
            "inflight": inflight,
            "policy": policy,
        },
        "alerts": active_alerts,
    }
    if journal is not None:
        doc["journal"] = journal
    return doc


# -- canonical JSON document ---------------------------------------------------


def observability_payload(
    metrics: MetricsRegistry, trace: FlightRecorder
) -> dict[str, Any]:
    return {"metrics": metrics.snapshot(), "trace": trace.timeline()}


def write_observability(
    path: Union[str, Path], metrics: MetricsRegistry, trace: FlightRecorder
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(observability_payload(metrics, trace)))
    return path


def _is_bad(value: Any) -> bool:
    return isinstance(value, float) and (math.isnan(value) or math.isinf(value))


def validate_snapshot(
    snapshot: dict[str, Any], *, require_histograms: bool = False
) -> list[str]:
    """Sanity problems in a metrics snapshot; empty list means healthy.

    Flags NaN/inf anywhere and zero-count histograms. With
    ``require_histograms`` the snapshot must contain at least one histogram —
    the smoke target uses that to fail when instrumentation silently
    disappears from the hot paths.
    """
    problems: list[str] = []
    for section in ("counters", "gauges"):
        for key, value in snapshot.get(section, {}).items():
            if _is_bad(value):
                problems.append(f"{section}[{key}] is {value}")
    histograms = snapshot.get("histograms", {})
    if require_histograms and not histograms:
        problems.append("snapshot contains no histograms")
    for key, summary in histograms.items():
        if summary.get("count", 0) == 0:
            problems.append(f"histograms[{key}] is empty")
            continue
        for stat, value in summary.items():
            if _is_bad(value):
                problems.append(f"histograms[{key}].{stat} is {value}")
    return problems
