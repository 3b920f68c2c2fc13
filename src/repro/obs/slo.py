"""Per-tenant SLO tracking with multi-window burn-rate alerting.

The telemetry plane's judgement layer: raw latency/error observations from
traversal terminals (and scheduler rejections) are reduced into *service
level objective* compliance per tenant, and sustained budget burn raises a
deterministic, typed alert.

Two objectives per tenant (DESIGN.md §14):

* **latency** — a completed traversal is *good* when its coordinator-observed
  latency (terminal clock minus admission clock, so the PR-5 ``queue_wait``
  is included) is at or under ``SLOConfig.latency_objective``;
* **errors** — a traversal is *good* unless it terminated with
  :class:`~repro.errors.TraversalFailed` or its submission was refused with
  :class:`~repro.errors.AdmissionRejected`. Client-initiated cancellations
  are neither good nor bad: they spend no error budget.

Burn rate is the classic SRE ratio: ``(bad / total) / error_budget`` over a
trailing window — 1.0 means the tenant burns budget exactly as fast as the
objective allows. An alert *fires* when the burn rate exceeds
``burn_threshold`` over **both** the fast and the slow window (the
multi-window rule: the fast window gives reaction time, the slow window
vetoes blips), and *resolves* when either drops back to the threshold or
below. Every transition appends one :class:`SLOAlert` to the typed alert
log, emits one ``slo.alert`` flight-recorder event, and bumps the
``slo.alerts`` counter.

Determinism: the tracker never reads the wall clock — every observation
carries the runtime clock — and evaluation happens synchronously inside the
observation call, so on the simulated runtime the alert log and the
``slo.*`` metrics are a pure function of (seed, configuration).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.metrics import canonical_json

#: the two per-tenant objectives, in evaluation (and alert-log) order
OBJECTIVES = ("latency", "errors")


@dataclass(frozen=True)
class SLOConfig:
    """Objectives and burn-rate alerting knobs (virtual seconds)."""

    #: a completed traversal is latency-good at or under this many seconds,
    #: measured admission → terminal (queue wait included)
    latency_objective: float = 1.0
    #: fraction of requests allowed to be bad (the error budget); applies
    #: to both objectives
    error_budget: float = 0.05
    #: trailing windows (seconds) for the multi-window burn evaluation
    fast_window: float = 5.0
    slow_window: float = 30.0
    #: fire when burn rate over BOTH windows exceeds this multiple
    burn_threshold: float = 2.0
    #: do not evaluate a window holding fewer observations than this — a
    #: single bad request in an otherwise idle window is not a page
    min_events: int = 4


@dataclass
class SLOAlert:
    """One burn-rate alert transition (``firing`` or ``resolved``)."""

    seq: int
    clock: float
    tenant: str
    objective: str  # "latency" | "errors"
    state: str  # "firing" | "resolved"
    burn_fast: float
    burn_slow: float
    window_events: int  # slow-window observation count at transition

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "clock": self.clock,
            "tenant": self.tenant,
            "objective": self.objective,
            "state": self.state,
            "burn_fast": round(self.burn_fast, 6),
            "burn_slow": round(self.burn_slow, 6),
            "window_events": self.window_events,
        }


@dataclass
class _Window:
    """The observations of one trailing window with their running
    ``(total, bad)`` counts; each observation is added once and pruned once
    from the left, so a burn reading costs O(1)."""

    span: float
    #: (clock, bad) observations with clock >= the latest clock - span
    events: deque = field(default_factory=deque)
    bad: int = 0

    def add(self, now: float, is_bad: bool) -> None:
        """Observe at ``now`` (runtime clocks never decrease) and prune."""
        events = self.events
        events.append((now, is_bad))
        self.bad += is_bad
        cutoff = now - self.span
        while events and events[0][0] < cutoff:
            self.bad -= events.popleft()[1]

    def burn(self, budget: float) -> tuple[float, int]:
        """(burn rate, observation count) over the window."""
        total = len(self.events)
        if total == 0:
            return 0.0, 0
        return (self.bad / total) / budget, total


@dataclass
class _ObjectiveState:
    """Fast and slow windows and the alert latch of one (tenant, objective).
    The fast window never reaches past the slow one."""

    fast: _Window
    slow: _Window
    firing: bool = False


class SLOTracker:
    """Per-tenant burn-rate evaluation over the two traversal objectives.

    Observations arrive through :meth:`record_terminal` (the cluster's
    terminal hook) and :meth:`record_rejection` (the scheduler's
    ``on_reject`` feed), each carrying the runtime clock. Alert transitions
    are appended to :attr:`alert_log` and mirrored as ``slo.alert``
    flight-recorder events so a trace reader sees them interleaved with the
    traversal lifecycle.
    """

    def __init__(self, config: Optional[SLOConfig] = None, *, metrics, trace):
        self.config = config or SLOConfig()
        self.metrics = metrics
        self.trace = trace
        self.alert_log: list[SLOAlert] = []
        self._states: dict[tuple[str, str], _ObjectiveState] = {}
        self._seq = 0

    # -- feeding -------------------------------------------------------------

    def record_terminal(
        self,
        tenant: str,
        status: str,
        latency: Optional[float],
        now: float,
    ) -> None:
        """One traversal reached a terminal state (``ok``/``failed``/
        ``cancelled``) at runtime clock ``now``."""
        if status == "ok":
            if latency is not None:
                self._observe(
                    tenant, "latency",
                    bad=latency > self.config.latency_objective, now=now,
                )
            self._observe(tenant, "errors", bad=False, now=now)
        elif status == "failed":
            self._observe(tenant, "errors", bad=True, now=now)
        # cancellations spend no budget: the client asked for them

    def record_rejection(self, tenant: str, now: float) -> None:
        """The scheduler refused a submission (``AdmissionRejected``)."""
        self._observe(tenant, "errors", bad=True, now=now)

    def violates_latency(self, latency: Optional[float]) -> bool:
        """Whether one traversal individually breached the latency objective
        (the tail-sampler's "slow" keep rule)."""
        return latency is not None and latency > self.config.latency_objective

    # -- evaluation ----------------------------------------------------------

    def _observe(self, tenant: str, objective: str, *, bad: bool, now: float) -> None:
        cfg = self.config
        state = self._states.get((tenant, objective))
        if state is None:
            state = self._states[(tenant, objective)] = _ObjectiveState(
                fast=_Window(min(cfg.fast_window, cfg.slow_window)),
                slow=_Window(cfg.slow_window),
            )
        state.fast.add(now, bad)
        state.slow.add(now, bad)
        burn_fast, n_fast = state.fast.burn(cfg.error_budget)
        burn_slow, n_slow = state.slow.burn(cfg.error_budget)
        should_fire = (
            n_fast >= cfg.min_events
            and n_slow >= cfg.min_events
            and burn_fast > cfg.burn_threshold
            and burn_slow > cfg.burn_threshold
        )
        if should_fire == state.firing:
            return
        state.firing = should_fire
        self._seq += 1
        alert = SLOAlert(
            seq=self._seq,
            clock=now,
            tenant=tenant,
            objective=objective,
            state="firing" if should_fire else "resolved",
            burn_fast=burn_fast,
            burn_slow=burn_slow,
            window_events=n_slow,
        )
        self.alert_log.append(alert)
        self.metrics.count(
            "slo.alerts", tenant=tenant, objective=objective, state=alert.state,
        )
        self.trace.record(
            "slo.alert",
            tenant=tenant,
            objective=objective,
            state=alert.state,
            burn_fast=round(burn_fast, 6),
            burn_slow=round(burn_slow, 6),
        )

    # -- reading -------------------------------------------------------------

    def alert_active(self, tenant: str) -> bool:
        """True while any objective of ``tenant`` is firing."""
        return any(
            st.firing
            for (t, _o), st in self._states.items()
            if t == tenant
        )

    def active_alerts(self) -> list[dict[str, Any]]:
        """Currently-firing objectives, sorted (tenant, objective)."""
        out = []
        for (tenant, objective) in sorted(self._states):
            if self._states[(tenant, objective)].firing:
                out.append({"tenant": tenant, "objective": objective})
        return out

    def alert_log_payload(self) -> list[dict[str, Any]]:
        return [a.as_dict() for a in self.alert_log]

    def to_json(self) -> str:
        """Canonical byte-stable alert-log JSON."""
        return canonical_json(self.alert_log_payload())
