"""Per-tenant SLO burn-rate alerting: math, transitions, and feeds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.trace import FlightRecorder


def make_tracker(**cfg):
    defaults = dict(
        latency_objective=1.0,
        error_budget=0.5,
        fast_window=5.0,
        slow_window=30.0,
        burn_threshold=1.0,
        min_events=2,
    )
    defaults.update(cfg)
    metrics = MetricsRegistry()
    trace = FlightRecorder(metrics, enabled=True)
    tracker = SLOTracker(SLOConfig(**defaults), metrics=metrics, trace=trace)
    return tracker, metrics, trace


def test_error_burn_fires_and_resolves_with_transitions_only():
    tracker, metrics, trace = make_tracker()
    # 2 failures out of 2: burn = (2/2)/0.5 = 2.0 > threshold 1.0 -> firing
    tracker.record_terminal("alpha", "failed", None, now=1.0)
    assert tracker.alert_log == []  # min_events not met yet
    tracker.record_terminal("alpha", "failed", None, now=2.0)
    assert [a.state for a in tracker.alert_log] == ["firing"]
    assert tracker.alert_active("alpha")
    # staying bad appends nothing: the log records transitions, not states
    tracker.record_terminal("alpha", "failed", None, now=3.0)
    assert len(tracker.alert_log) == 1
    # successes dilute the ratio until burn <= threshold -> resolved
    for t in (4.0, 5.0, 6.0):
        tracker.record_terminal("alpha", "ok", 0.1, now=t)
    assert [a.state for a in tracker.alert_log] == ["firing", "resolved"]
    assert not tracker.alert_active("alpha")


def test_burn_math_is_ratio_over_budget():
    tracker, _m, _t = make_tracker(error_budget=0.25, burn_threshold=2.0)
    tracker.record_terminal("a", "failed", None, now=0.0)
    tracker.record_terminal("a", "ok", 0.1, now=0.1)
    # 1 bad / 2 total = 0.5; over budget 0.25 -> burn 2.0, NOT > threshold
    assert tracker.alert_log == []
    tracker.record_terminal("a", "failed", None, now=0.2)
    # 2/3 / 0.25 = 2.67 > 2.0 on both windows -> fires
    (alert,) = tracker.alert_log
    assert alert.burn_fast == pytest.approx((2 / 3) / 0.25)
    assert alert.burn_slow == alert.burn_fast
    assert alert.window_events == 3


def test_slow_window_vetoes_a_fast_blip():
    # an old run of successes parks good events in the slow window only;
    # a burst of failures then maxes the fast burn but not the slow one
    tracker, _m, _t = make_tracker(
        fast_window=1.0, slow_window=100.0, burn_threshold=1.5
    )
    for i in range(10):
        tracker.record_terminal("a", "ok", 0.1, now=float(i))
    tracker.record_terminal("a", "failed", None, now=50.0)
    tracker.record_terminal("a", "failed", None, now=50.5)
    # fast burn = (2/2)/0.5 = 2.0 > 1.5, slow burn = (2/12)/0.5 = 0.33
    assert tracker.alert_log == []


def test_latency_objective_counts_queue_to_terminal_time():
    tracker, _m, _t = make_tracker(latency_objective=0.5)
    tracker.record_terminal("a", "ok", 0.5, now=1.0)  # exactly at: good
    tracker.record_terminal("a", "ok", 0.6, now=2.0)  # over: bad
    tracker.record_terminal("a", "ok", 0.7, now=3.0)
    # 2 bad / 3 = 0.67 over budget 0.5 -> 1.33 > 1.0 -> latency alert
    (alert,) = tracker.alert_log
    assert alert.objective == "latency" and alert.state == "firing"
    assert tracker.violates_latency(0.6)
    assert not tracker.violates_latency(0.5)
    assert not tracker.violates_latency(None)


def test_cancellations_spend_no_budget():
    tracker, _m, _t = make_tracker()
    for t in range(8):
        tracker.record_terminal("a", "cancelled", None, now=float(t))
    assert tracker.alert_log == []
    assert tracker.active_alerts() == []


def test_rejections_feed_the_error_objective():
    tracker, _m, _t = make_tracker()
    tracker.record_rejection("a", now=0.0)
    tracker.record_rejection("a", now=0.5)
    (alert,) = tracker.alert_log
    assert alert.objective == "errors" and alert.tenant == "a"


def test_transitions_emit_trace_events_and_metrics():
    tracker, metrics, trace = make_tracker()
    tracker.record_terminal("beta", "failed", None, now=1.0)
    tracker.record_terminal("beta", "failed", None, now=2.0)
    (event,) = [e for e in trace.events() if e.kind == "slo.alert"]
    assert event.attrs["tenant"] == "beta"
    assert event.attrs["objective"] == "errors"
    assert event.attrs["state"] == "firing"
    assert (
        metrics.counter_value(
            "slo.alerts", tenant="beta", objective="errors", state="firing"
        )
        == 1
    )


def test_tenants_are_isolated_and_active_alerts_sorted():
    tracker, _m, _t = make_tracker()
    for tenant in ("zeta", "alpha"):
        tracker.record_terminal(tenant, "failed", None, now=1.0)
        tracker.record_terminal(tenant, "failed", None, now=2.0)
    tracker.record_terminal("calm", "ok", 0.1, now=2.0)
    assert tracker.active_alerts() == [
        {"tenant": "alpha", "objective": "errors"},
        {"tenant": "zeta", "objective": "errors"},
    ]
    assert not tracker.alert_active("calm")


def test_observations_age_out_of_the_slow_window():
    tracker, _m, _t = make_tracker(slow_window=10.0)
    tracker.record_terminal("a", "failed", None, now=0.0)
    tracker.record_terminal("a", "failed", None, now=1.0)
    assert tracker.alert_active("a")
    # much later, two clean completions: the old failures fell out, so the
    # window holds only good events and the alert resolves
    tracker.record_terminal("a", "ok", 0.1, now=100.0)
    tracker.record_terminal("a", "ok", 0.1, now=101.0)
    assert not tracker.alert_active("a")


def test_alert_log_payload_is_canonical_and_stable():
    tracker, _m, _t = make_tracker()
    tracker.record_terminal("a", "failed", None, now=1.25)
    tracker.record_terminal("a", "failed", None, now=2.5)
    payload = tracker.alert_log_payload()
    assert payload[0]["seq"] == 1 and payload[0]["clock"] == 2.5
    assert set(payload[0]) == {
        "seq", "clock", "tenant", "objective", "state",
        "burn_fast", "burn_slow", "window_events",
    }
    assert tracker.to_json() == tracker.to_json()


#: (fast_window, slow_window): fast inside slow, equal, and wider than slow
WINDOWS = ((5.0, 30.0), (2.0, 2.0), (10.0, 3.0))
#: clock steps on a 0.25 grid, so observations land exactly on a cutoff
steps = st.integers(0, 24).map(lambda q: q * 0.25)
feeds = st.lists(
    st.tuples(
        steps,
        st.sampled_from(("a", "b")),
        st.sampled_from(("ok", "failed", "cancelled", "rejected")),
        st.sampled_from((0.1, 1.0, 1.5)),
    ),
    max_size=60,
)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(feed=feeds, windows=st.sampled_from(WINDOWS), min_events=st.integers(1, 4))
def test_running_window_counts_match_a_scan_of_every_observation(
    feed, windows, min_events
):
    fast_window, slow_window = windows
    tracker, _m, _t = make_tracker(
        fast_window=fast_window, slow_window=slow_window, min_events=min_events
    )
    cfg = tracker.config
    observed = []
    observe = tracker._observe

    def recorded(tenant, objective, *, bad, now):
        observed.append((tenant, objective, bad, now))
        observe(tenant, objective, bad=bad, now=now)

    tracker._observe = recorded
    now = 0.0
    for step, tenant, status, latency in feed:
        now += step
        if status == "rejected":
            tracker.record_rejection(tenant, now=now)
        else:
            tracker.record_terminal(tenant, status, latency, now=now)

    def scanned_alert_log():
        """Every observation kept for the slow window and read back in full,
        newest first, at each observation."""
        events, firing, log = {}, {}, []
        for tenant, objective, bad, at in observed:
            kept = events.setdefault((tenant, objective), [])
            kept.append((at, bad))
            kept[:] = [e for e in kept if e[0] >= at - slow_window]

            def burn(window):
                total = n_bad = 0
                for clock, is_bad in reversed(kept):
                    if clock < at - window:
                        break
                    total += 1
                    n_bad += is_bad
                return ((n_bad / total) / cfg.error_budget if total else 0.0), total

            burn_fast, n_fast = burn(fast_window)
            burn_slow, n_slow = burn(slow_window)
            fire = (
                min(n_fast, n_slow) >= min_events
                and min(burn_fast, burn_slow) > cfg.burn_threshold
            )
            if fire != firing.get((tenant, objective), False):
                firing[(tenant, objective)] = fire
                log.append((at, tenant, objective, fire, burn_fast, burn_slow, n_slow))
        return log

    assert [
        (a.clock, a.tenant, a.objective, a.state == "firing",
         a.burn_fast, a.burn_slow, a.window_events)
        for a in tracker.alert_log
    ] == scanned_alert_log()
