"""Tracing under chaos: the flight recorder must stay coherent when the
network misbehaves.

For 10 seeded fault plans (drops, duplicates, delay spikes, some with a
mid-traversal crash), the faulty run's trace must reconstruct a valid
rooted DAG whose terminal event matches the run's outcome — ``ok`` when the
traversal converged, ``failed`` when it exhausted its restart budget. Wire
retries and duplicate deliveries appear as *annotations* on existing
nodes/edges, never as duplicate nodes: every node in the DAG has exactly
one creation record behind it.
"""

import pytest

from repro.faults.chaos import chaos_check
from repro.lang import GTravel

CHAOS_SEEDS = list(range(10))
CRASH_SEEDS = {1, 4, 7}


def chaos_query(ids):
    return GTravel.v(*ids["users"]).e("run").e("hasExecutions").e("read").compile()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_trace_reconstructs_valid_dag(metadata_graph, seed):
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph, [chaos_query(ids)], seed=seed, crash=seed in CRASH_SEEDS, trace=True
    )
    (v,) = outcome.verdicts
    assert outcome.ok, f"seed {seed}: {v.error}, leaked={outcome.leaked}"
    assert outcome.traces, f"seed {seed}: traced run recorded no traversals"
    # one query submits exactly one traversal (restarts reuse its id)
    assert len(outcome.traces) == 1
    (dag,) = outcome.traces.values()
    # assemble_all already ran verify(): rooted, acyclic, no orphans. Check
    # the terminal event agrees with the differential verdict.
    if v.matched:
        assert dag.status == "ok", f"seed {seed}"
    else:
        assert dag.status == "failed", (
            f"seed {seed}: clean failure must leave a travel.failed terminal "
            f"event, got status={dag.status}"
        )
    # 100% coverage: every recorded execution hangs off the root
    assert dag.reachable() == set(dag.nodes), f"seed {seed}"
    # retries/dups annotate existing nodes — each node has a creation record
    assert all(n.created_at is not None for n in dag.nodes.values()), (
        f"seed {seed}: a retry or duplicate fabricated a node without a "
        f"creation record"
    )


def test_chaos_trace_annotates_retries_and_dups_somewhere(metadata_graph):
    """Across the seed sweep the fault machinery demonstrably fired: at
    least one plan's DAG carries retry or dup-drop annotations, and those
    runs still verify as well-formed DAGs."""
    graph, ids = metadata_graph
    annotated = 0
    for seed in CHAOS_SEEDS:
        outcome = chaos_check(
            graph, [chaos_query(ids)], seed=seed, crash=seed in CRASH_SEEDS, trace=True
        )
        if not outcome.traces:
            continue
        (dag,) = outcome.traces.values()
        retries = sum(n.retries for n in dag.nodes.values())
        dups = sum(n.dup_drops for n in dag.nodes.values())
        edge_retries = sum(e.retries for e in dag.edges.values())
        if retries or dups:
            annotated += 1
            # node annotations and edge annotations describe the same wire
            # events, so a retried node implies a retried inbound edge
            if retries:
                assert edge_retries > 0
    assert annotated > 0, "no sampled plan exercised retries or duplicates"


def test_crash_seed_trace_records_fault_events(metadata_graph):
    """A crash-bearing plan leaves fault.crash / exec.replayed (or restart)
    evidence inside the recorded event stream, and the DAG still verifies."""
    graph, ids = metadata_graph
    outcome = chaos_check(
        graph, [chaos_query(ids)], seed=1, crash=True, trace=True
    )
    assert outcome.ok
    crashed = any(
        k.startswith("faults.crashes") for k in outcome.net_counters
    )
    if crashed:
        (dag,) = outcome.traces.values()
        recovered = (
            dag.attempts > 0
            or any(n.replays for n in dag.nodes.values())
            or dag.status in ("ok", "failed")
        )
        assert recovered
