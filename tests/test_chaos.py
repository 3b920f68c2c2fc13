"""Chaos differential tests.

For ≥10 seeded fault plans — wire drops, duplicates, delay spikes, plus one
mid-traversal server crash on a subset — every traversal must either return
a result set identical to the fault-free run at the same seed, or fail
cleanly with ``TraversalFailed`` after ``max_restarts``, and leave no cluster
state behind. And on the simulated runtime, rerunning the same plan + seed
must reproduce the same ``net.*``/``faults.*`` counters exactly.
"""

import pytest

from repro.engine import EngineKind
from repro.faults.chaos import chaos_check, run_fault_free, run_under_faults
from repro.faults.plan import sample_fault_plan
from repro.lang import GTravel


CHAOS_SEEDS = list(range(10))
#: seeds that additionally schedule one mid-traversal crash + recovery
CRASH_SEEDS = {1, 4, 7}


def chaos_query(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read").compile()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_differential_graphtrek(metadata_graph, seed):
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph, [chaos_query(ids)], seed=seed, crash=seed in CRASH_SEEDS
    )
    (v,) = outcome.verdicts
    assert outcome.ok, (
        f"seed {seed}: faulty run returned a wrong result set "
        f"(matched={v.matched}, error={v.error}, leaked={outcome.leaked})\n"
        f"plan={outcome.plan}\ncounters={outcome.net_counters}"
    )
    if seed in CRASH_SEEDS:
        crash_keys = [k for k in outcome.net_counters if k.startswith("faults.crashes")]
        assert crash_keys, f"crash plan did not crash: {outcome.net_counters}"


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_chaos_differential_sync_engine(metadata_graph, seed):
    """The synchronous baseline survives the same wire faults (its recovery
    is whole-traversal restart; no fine-grained replay)."""
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph,
        [chaos_query(ids)],
        seed=seed,
        engine=EngineKind.SYNC,
        max_drop=0.06,  # sync barriers lose a whole step per drop; keep it sane
    )
    assert outcome.ok, (
        f"seed {seed}: {outcome.verdicts[0].error}, leaked={outcome.leaked}, "
        f"counters={outcome.net_counters}"
    )


def test_chaos_metric_snapshots_are_deterministic(metadata_graph):
    """Same fault plan + seed → byte-identical net.*/faults.* counters."""
    graph, ids = metadata_graph
    query = chaos_query(ids)
    baseline, duration = run_fault_free(graph, query)
    plan = sample_fault_plan(3, nservers=3, crash_window=(0.2 * duration, 3.0 * duration))
    from repro.faults.chaos import chaos_coordinator_config

    cc = chaos_coordinator_config(duration)
    runs = [run_under_faults(graph, [query], plan, coordinator_config=cc) for _ in range(2)]
    (res_a, net_a, _, leaked_a, _), (res_b, net_b, _, leaked_b, _) = runs
    assert net_a == net_b
    assert res_a == res_b  # payloads and errors
    assert leaked_a == leaked_b == []
    # and the faulty run actually exercised the machinery
    assert any(k.startswith("faults.crashes") for k in net_a)


def test_chaos_without_reliable_channel_still_converges_or_fails_cleanly(
    metadata_graph,
):
    """Fault plan + bare wire (no acks): the §IV-C restart machinery is the
    only safety net, and the contract must still hold."""
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph, [chaos_query(ids)], seed=6, reliable=False, max_drop=0.05
    )
    assert outcome.ok, (
        f"{outcome.verdicts[0].error}, leaked={outcome.leaked}, "
        f"counters={outcome.net_counters}"
    )


def test_fault_free_plan_under_channel_matches_baseline(metadata_graph):
    """A zero-probability fault plan with the reliable channel on is an
    identity transform on the result sets."""
    from repro.faults.plan import FaultPlan

    graph, ids = metadata_graph
    query = chaos_query(ids)
    baseline, _ = run_fault_free(graph, query)
    [(res, err, _)], net, _, leaked, _ = run_under_faults(
        graph, [query], FaultPlan(seed=0)
    )
    assert err is None
    assert res == baseline
    assert leaked == []
    assert not any(k.startswith("net.retries") for k in net)
