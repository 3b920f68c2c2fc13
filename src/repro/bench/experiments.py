"""Per-table/figure experiment definitions (see DESIGN.md §4).

Each ``exp_*`` function takes the :class:`BenchEnvironment` of the run and
returns an :class:`ExperimentResult` carrying the measured cells, a rendered
paper-style report, the shape checks the paper's claims imply, and any
extra payload. Experiments write no files: ``EXPERIMENTS`` (bottom of this
module) names them, ``report.report_experiment`` prints, validates and saves
what they return. EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.bench import harness, report
from repro.bench.harness import BenchEnvironment, Cell, cell_lookup
from repro.cluster import paper_interference
from repro.engine import (
    EngineKind,
    EngineOptions,
    ReferenceEngine,
    graphtrek_options,
    plain_async_options,
)
from repro.faults.chaos import chaos_coordinator_config, leaked_state
from repro.faults.plan import CrashEvent, FaultPlan
from repro.graph import in_degree_stats, out_degree_stats
from repro.lang import GTravel
from repro.obs.telemetry import EXEC_RATE_METRIC
from repro.partition import HashEdgeCut, evaluate_partition, greedy_vertex_cut
from repro.partition.edge_cut import GreedyBalancedEdgeCut
from repro.rebalance import MigrationConfig, select_migration
from repro.sched import SchedulerConfig
from repro.workloads import PAPER_TABLE2, rmat_kstep_query, suspicious_user_query

SYNC = EngineKind.SYNC.value
ASYNC = EngineKind.ASYNC.value
GT = EngineKind.GRAPHTREK.value

#: Table I of the paper: 8-step traversal on RMAT-1, seconds.
PAPER_TABLE1 = {
    (SYNC, 2): 47.8, (ASYNC, 2): 63.7, (GT, 2): 45.2,
    (SYNC, 4): 28.5, (ASYNC, 4): 33.1, (GT, 4): 22.5,
    (SYNC, 8): 17.1, (ASYNC, 8): 20.6, (GT, 8): 13.4,
    (SYNC, 16): 10.3, (ASYNC, 16): 12.1, (GT, 16): 8.3,
    (SYNC, 32): 7.2, (ASYNC, 32): 7.4, (GT, 32): 5.6,
}

#: Table III of the paper: 6-step Darshan audit on 32 servers, milliseconds.
PAPER_TABLE3_MS = {SYNC: 3575.0, ASYNC: 4159.0, GT: 2839.0}


@dataclass
class ShapeCheck:
    """One paper claim, evaluated against the measured cells."""

    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    cells: list[Cell] = field(default_factory=list)
    rendered: str = ""
    checks: list[ShapeCheck] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[ShapeCheck]:
        return [c for c in self.checks if not c.passed]

    def payload(self) -> dict:
        return {
            "cells": harness.cells_payload(self.cells),
            "checks": [c.__dict__ for c in self.checks],
            "extra": self.extra,
        }


def _ratio(lookup, engine: str, baseline: str, n: int) -> float:
    return lookup[(engine, n)].elapsed / lookup[(baseline, n)].elapsed


def _hotspot(graph, owner, server: int, count: int, label: str):
    """``count`` vertices owned by ``server`` and one query per vertex over a
    no-match edge label, which pins every real visit onto the start vertex's
    owner — all load lands on ``server``, none anywhere else."""
    vids = [v for v in sorted(graph.vertex_ids()) if owner(v) == server][:count]
    return vids, [GTravel.v(v).e(label) for v in vids]


# -- Table I ------------------------------------------------------------------


def exp_table1(env: BenchEnvironment) -> ExperimentResult:
    """Table I: Sync-GT / Async-GT / GraphTrek, 8-step traversal on RMAT-1."""
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, 8)
    cells = harness.run_engine_comparison(graph, plan, env.servers, trace_enabled=env.trace)
    lookup = cell_lookup(cells)
    n_max, n_min = max(env.servers), min(env.servers)
    checks = [
        ShapeCheck(
            "async_gt_worst_at_small_scale",
            _ratio(lookup, ASYNC, SYNC, n_min) > 1.05,
            f"Async-GT/Sync at {n_min} servers = {_ratio(lookup, ASYNC, SYNC, n_min):.2f} "
            "(paper: 1.33)",
        ),
        ShapeCheck(
            "async_gt_penalty_shrinks_with_scale",
            _ratio(lookup, ASYNC, SYNC, n_max) < _ratio(lookup, ASYNC, SYNC, n_min),
            f"Async-GT/Sync {n_min}→{n_max} servers: "
            f"{_ratio(lookup, ASYNC, SYNC, n_min):.2f} → {_ratio(lookup, ASYNC, SYNC, n_max):.2f} "
            "(paper: 1.33 → 1.03)",
        ),
        ShapeCheck(
            "graphtrek_best_at_scale",
            _ratio(lookup, GT, SYNC, n_max) < 0.95,
            f"GraphTrek/Sync at {n_max} servers = {_ratio(lookup, GT, SYNC, n_max):.2f} "
            "(paper: 0.78)",
        ),
        ShapeCheck(
            "graphtrek_advantage_grows_with_servers",
            _ratio(lookup, GT, SYNC, n_max) < _ratio(lookup, GT, SYNC, n_min),
            f"GraphTrek/Sync {n_min}→{n_max} servers: "
            f"{_ratio(lookup, GT, SYNC, n_min):.2f} → {_ratio(lookup, GT, SYNC, n_max):.2f} "
            "(paper: 0.95 → 0.78)",
        ),
        ShapeCheck(
            "graphtrek_never_worse_than_async_gt",
            all(_ratio(lookup, GT, ASYNC, n) <= 1.0 for n in env.servers),
            "optimizations never hurt the plain async engine",
        ),
    ]
    rendered = report.engine_table(
        f"Table I — 8-step traversal on RMAT-1 (scale={env.scale})",
        cells, env.servers, [SYNC, ASYNC, GT],
        paper={k: v for k, v in PAPER_TABLE1.items() if k[1] in env.servers},
    )
    rendered += "\n\n" + report.speedup_table(
        "relative to Sync-GT", cells, env.servers, SYNC, [ASYNC, GT]
    )
    return ExperimentResult(cells, rendered, checks)


# -- Figure 7 --------------------------------------------------------------------


def exp_fig7(env: BenchEnvironment) -> ExperimentResult:
    """Fig. 7: per-server visit breakdown of an 8-step GraphTrek run."""
    nservers = max(env.servers)
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, 8)
    cell = harness.run_cell(graph, plan, EngineKind.GRAPHTREK, nservers, trace_enabled=env.trace)
    # merging intensity vs storage weight per server (the paper found the
    # byte-heavy hub servers merge the most)
    per_server = cell.per_server
    combined_ratio = {
        s: b.get("combined", 0) / max(1, b.get("real", 0)) for s, b in per_server.items()
    }
    heavy = sorted(per_server, key=lambda s: -per_server[s].get("combined", 0))[: nservers // 4]
    light = sorted(per_server, key=lambda s: per_server[s].get("combined", 0))[: nservers // 4]
    heavy_mean = float(np.mean([combined_ratio[s] for s in heavy])) if heavy else 0.0
    light_mean = float(np.mean([combined_ratio[s] for s in light])) if light else 0.0
    checks = [
        ShapeCheck(
            "redundant_visits_dominate",
            cell.redundant_visits > cell.real_io_visits,
            f"redundant={cell.redundant_visits} vs real={cell.real_io_visits} "
            "(paper: 'redundant vertex visits actually dominate the majority of "
            "received requests')",
        ),
        ShapeCheck(
            "merging_concentrated_on_loaded_servers",
            heavy_mean > light_mean,
            f"combined/real on merge-heavy servers {heavy_mean:.2f} vs light {light_mean:.2f}",
        ),
        ShapeCheck(
            "all_visits_accounted",
            cell.visits == sum(sum(b.values()) for b in per_server.values()),
            "real + combined + redundant equals requests received",
        ),
    ]
    rendered = report.visit_breakdown_table(
        f"Fig. 7 — visit statistics, 8-step GraphTrek on {nservers} servers", cell
    )
    return ExperimentResult([cell], rendered, checks)


# -- Figures 8, 9, 10 ---------------------------------------------------------------


def exp_step_sweep(env: BenchEnvironment, steps: int) -> ExperimentResult:
    """Figs. 8/9/10: Sync-GT vs GraphTrek elapsed time by server count."""
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, steps)
    cells = harness.run_engine_comparison(
        graph, plan, env.servers, (EngineKind.SYNC, EngineKind.GRAPHTREK),
        trace_enabled=env.trace,
    )
    lookup = cell_lookup(cells)
    n_max, n_min = max(env.servers), min(env.servers)
    ratio_small = _ratio(lookup, GT, SYNC, n_min)
    ratio_large = _ratio(lookup, GT, SYNC, n_max)
    checks = [
        ShapeCheck(
            "relative_performance_improves_with_servers",
            ratio_large <= ratio_small + 0.02,
            f"GraphTrek/Sync {n_min}→{n_max}: {ratio_small:.2f} → {ratio_large:.2f}",
        ),
    ]
    if steps <= 2:
        checks.append(
            ShapeCheck(
                "short_traversals_near_parity_or_sync_wins_small",
                ratio_small > 0.90,
                f"2-step at {n_min} servers: GraphTrek/Sync = {ratio_small:.2f} "
                "(paper: sync slightly better)",
            )
        )
    if steps >= 8:
        checks.append(
            ShapeCheck(
                "deep_traversals_favor_graphtrek",
                ratio_large < 0.9,
                f"8-step at {n_max} servers: GraphTrek/Sync = {ratio_large:.2f} "
                "(paper: 0.78, '24% improvement')",
            )
        )
    fig = {2: "Fig. 8", 4: "Fig. 9", 8: "Fig. 10"}.get(steps, f"{steps}-step")
    rendered = report.engine_table(
        f"{fig} — {steps}-step traversal on RMAT-1 (scale={env.scale})",
        cells, env.servers, [SYNC, GT],
    )
    return ExperimentResult(cells, rendered, checks)


# -- Figure 11 -------------------------------------------------------------------------


def exp_fig11(env: BenchEnvironment) -> ExperimentResult:
    """Fig. 11: 8-step traversal with simulated external stragglers.

    Interference: three stragglers at steps 1, 3 and 7 on three selected
    servers (round-robin), each a budget of delayed vertex accesses. The
    delay budget is scaled to this graph size (the paper's 500×50 ms targets
    a 2^20-vertex deployment); see EXPERIMENTS.md. Each bar averages three
    traversals from different start vertices, as the paper does.
    """
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    delay, count, runs = 1e-3, 500, 3

    def interference():
        return paper_interference(servers=(0, 1, 2), levels=(1, 3, 7), delay=delay, count=count)

    averaged: list[Cell] = []
    for nservers in env.servers:
        for engine in (EngineKind.SYNC, EngineKind.GRAPHTREK):
            samples = [
                harness.run_cell(
                    graph, harness.kstep_plan(env, 8, pick=7 + pick), engine, nservers,
                    trace_enabled=env.trace, interference_factory=interference,
                )
                for pick in range(runs)
            ]
            mean = samples[0]
            mean.elapsed = float(np.mean([s.elapsed for s in samples]))
            averaged.append(mean)
    lookup = cell_lookup(averaged)
    n_max = max(env.servers)
    speedup = lookup[(SYNC, n_max)].elapsed / lookup[(GT, n_max)].elapsed
    checks = [
        ShapeCheck(
            "graphtrek_absorbs_stragglers_at_scale",
            speedup > 1.4,
            f"Sync/GraphTrek at {n_max} servers under interference = {speedup:.2f}x "
            "(paper: ~2x)",
        ),
        ShapeCheck(
            "graphtrek_never_slower_under_interference",
            all(
                lookup[(GT, n)].elapsed <= lookup[(SYNC, n)].elapsed * 1.05
                for n in env.servers
            ),
            "asynchrony helps (or at worst matches) at every scale",
        ),
    ]
    rendered = report.engine_table(
        f"Fig. 11 — 8-step on RMAT-1 with external stragglers "
        f"(delay={delay * 1000:.0f} ms x {count}, steps 1/3/7; mean of {runs} runs)",
        averaged, env.servers, [SYNC, GT],
    )
    return ExperimentResult(averaged, rendered, checks, extra={"delay": delay, "count": count})


# -- Table II -------------------------------------------------------------------------------


def exp_table2(env: BenchEnvironment) -> ExperimentResult:
    """Table II: statistics of the rich-metadata graph (ratio fidelity).

    The graph has one fixed size; ``env`` is the registry's uniform argument.
    """
    md = harness.darshan_graph()
    row = md.stats.row()
    ours = md.stats.ratios()
    paper_ratios = {k: v / PAPER_TABLE2["users"] for k, v in PAPER_TABLE2.items()}
    out_stats = out_degree_stats(md.graph)
    in_stats = in_degree_stats(md.graph)
    checks = [
        ShapeCheck(
            "entity_hierarchy_order",
            row["users"] < row["jobs"] < row["executions"] and row["files"] > row["users"],
            f"users({row['users']}) < jobs({row['jobs']}) < executions({row['executions']})",
        ),
        ShapeCheck(
            "edges_exceed_executions",
            row["edges"] > row["executions"],
            f"edges({row['edges']}) > executions({row['executions']}) "
            "(paper: 239.8M > 123.4M)",
        ),
        ShapeCheck(
            "power_law_in_degree",
            in_stats.maximum > 10 * max(1.0, in_stats.p50),
            f"max in-degree {in_stats.maximum} vs median {in_stats.p50} "
            "(paper: 'a small-world graph with a power-law distribution')",
        ),
    ]
    rendered = report.kv_table(
        "Table II — statistics of the rich-metadata graph (scaled)",
        {
            **row,
            "per-user jobs (ours / paper)": f"{ours['jobs']:.1f} / {paper_ratios['jobs']:.1f}",
            "edges per entity (ours / paper)": (
                f"{row['edges'] / max(1, sum(v for k, v in row.items() if k != 'edges')):.2f} / "
                f"{PAPER_TABLE2['edges'] / (PAPER_TABLE2['users'] + PAPER_TABLE2['jobs'] + PAPER_TABLE2['executions'] + PAPER_TABLE2['files']):.2f}"
            ),
            "max in-degree": in_stats.maximum,
            "out-degree gini": f"{out_stats.gini:.2f}",
        },
    )
    return ExperimentResult([], rendered, checks, extra={"row": row})


# -- Table III ---------------------------------------------------------------------------------


def _darshan_audit():
    """The Table III workload: the Darshan graph and the 6-step audit of its
    fourth-busiest user."""
    md = harness.darshan_graph()
    users_by_jobs = sorted(md.user_ids, key=lambda u: -md.graph.out_degree(u, "run"))
    return md, suspicious_user_query(users_by_jobs[3]).compile()


def exp_table3(env: BenchEnvironment) -> ExperimentResult:
    """Table III: the 6-step suspicious-user audit on the Darshan graph
    (fixed size: the paper's 32 servers, whatever ``env.servers`` says)."""
    nservers = 32
    md, plan = _darshan_audit()
    expected = ReferenceEngine(md.graph).run(plan)
    cells = harness.run_engine_comparison(
        md.graph, plan, [nservers], trace_enabled=env.trace, block_cache_blocks=0
    )
    lookup = cell_lookup(cells)
    checks = [
        ShapeCheck(
            "async_gt_worst",
            lookup[(ASYNC, nservers)].elapsed > lookup[(SYNC, nservers)].elapsed,
            f"Async-GT {lookup[(ASYNC, nservers)].elapsed * 1000:.0f} ms > "
            f"Sync {lookup[(SYNC, nservers)].elapsed * 1000:.0f} ms (paper: 4159 > 3575)",
        ),
        ShapeCheck(
            "graphtrek_at_least_matches_sync",
            lookup[(GT, nservers)].elapsed <= lookup[(SYNC, nservers)].elapsed * 1.02,
            f"GraphTrek {lookup[(GT, nservers)].elapsed * 1000:.0f} ms vs "
            f"Sync {lookup[(SYNC, nservers)].elapsed * 1000:.0f} ms "
            "(paper: 2839 < 3575; our margin is smaller — see EXPERIMENTS.md)",
        ),
    ]
    rendered = report.engine_table(
        f"Table III — Darshan audit query on {nservers} servers "
        f"(paper: Sync 3575 ms / Async 4159 ms / GraphTrek 2839 ms)",
        cells, [nservers], [SYNC, ASYNC, GT],
    )
    return ExperimentResult(
        cells, rendered, checks,
        extra={"result_size": len(expected.vertices), "paper_ms": PAPER_TABLE3_MS},
    )


# -- ablations (beyond the paper's tables; §V mechanisms individually) -------------------------


def exp_ablation_optimizations(env: BenchEnvironment) -> ExperimentResult:
    """Attribute GraphTrek's win to its mechanisms: cache / merge / schedule."""
    nservers = max(env.servers)
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, 8)
    variants: dict[str, EngineOptions] = {
        "plain-async": plain_async_options(),
        "cache-only": plain_async_options(cache_enabled=True),
        "merge-only": plain_async_options(merge_enabled=True),
        "sched-only": plain_async_options(priority_schedule=True),
        "graphtrek": graphtrek_options(),
    }
    by = {
        name: harness.run_cell(graph, plan, opts, nservers, label=name, trace_enabled=env.trace)
        for name, opts in variants.items()
    }
    rows = {name: report.fmt_time(cell.elapsed) for name, cell in by.items()}
    full, plain, cache_only = by["graphtrek"], by["plain-async"], by["cache-only"]
    checks = [
        ShapeCheck(
            "cache_is_the_dominant_optimization",
            cache_only.elapsed < plain.elapsed,
            f"cache-only {report.fmt_time(cache_only.elapsed)} vs plain "
            f"{report.fmt_time(plain.elapsed)}",
        ),
        ShapeCheck(
            "all_optimizations_beat_plain_async",
            full.elapsed < plain.elapsed,
            f"graphtrek {report.fmt_time(full.elapsed)} vs plain "
            f"{report.fmt_time(plain.elapsed)}",
        ),
    ]
    rendered = report.kv_table(
        f"Ablation — asynchronous optimizations, 8-step on {nservers} servers", rows
    )
    return ExperimentResult(list(by.values()), rendered, checks)


def exp_concurrent_traversals(env: BenchEnvironment) -> ExperimentResult:
    """Concurrent-workload experiment (motivated by the paper's §I: "the
    interferences among traversals easily create stragglers").

    A heterogeneous mix — one traversal per depth in 2/4/6/8, different
    start vertices — runs simultaneously on one cluster. The metric is each
    traversal's *latency inflation* versus running alone: under the
    synchronous engine a short query's barrier steps wait behind servers
    busy with the deep queries, while GraphTrek's smallest-step-first
    scheduling lets it cut through.
    """
    depths = (2, 4, 6, 8)
    # mid-sized deployment: interference is strongest when servers are busy
    nservers = sorted(env.servers)[len(env.servers) // 2]
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plans = [harness.kstep_plan(env, d, pick=7 + i) for i, d in enumerate(depths)]
    rows: dict[str, str] = {}
    slowdowns: dict[str, list[float]] = {}
    cells = []
    for engine in (EngineKind.SYNC, EngineKind.GRAPHTREK):
        solo = [harness.run_cell(graph, plan, engine, nservers).elapsed for plan in plans]
        cluster = harness.build_cluster(graph, engine, nservers, trace_enabled=env.trace)
        cell, outcomes = harness.measure(cluster, plans, stats_of=-1)
        cells.append(cell)
        concurrent = [o.stats.elapsed for o in outcomes]
        slowdowns[engine.value] = [c / s for c, s in zip(concurrent, solo)]
        rows[f"{engine.value} makespan"] = report.fmt_time(cell.elapsed)
        rows[f"{engine.value} max slowdown"] = f"{max(slowdowns[engine.value]):.2f}x"
        rows[f"{engine.value} mean slowdown"] = f"{np.mean(slowdowns[engine.value]):.2f}x"
    checks = [
        ShapeCheck(
            "graphtrek_bounds_interference_on_short_queries",
            max(slowdowns[GT]) < max(slowdowns[SYNC]),
            f"worst-case latency inflation: GraphTrek {max(slowdowns[GT]):.2f}x "
            f"vs Sync {max(slowdowns[SYNC]):.2f}x (paper §I: interference among "
            "traversals creates stragglers and idling at every barrier)",
        ),
        ShapeCheck(
            "graphtrek_lower_mean_inflation",
            float(np.mean(slowdowns[GT])) < float(np.mean(slowdowns[SYNC])),
            f"mean inflation: GraphTrek {np.mean(slowdowns[GT]):.2f}x vs "
            f"Sync {np.mean(slowdowns[SYNC]):.2f}x",
        ),
    ]
    rendered = report.kv_table(
        f"Concurrent workload — depths {depths} running simultaneously on "
        f"{nservers} servers (inflation vs running alone)", rows
    )
    return ExperimentResult(cells, rendered, checks, extra={"slowdowns": slowdowns})


def exp_ablation_layout(env: BenchEnvironment) -> ExperimentResult:
    """Storage-layout ablation (paper §IV-B): "storing all the edges of one
    vertex together based on their type will provide better performance" —
    grouped (paper) vs interleaved (generic column layout) edge keys, on the
    heterogeneous Darshan graph where label-selective scans matter (fixed
    size: 16 servers, whatever ``env.servers`` says)."""
    nservers = 16
    md, plan = _darshan_audit()
    by = {
        layout: harness.run_cell(
            md.graph, plan, EngineKind.GRAPHTREK, nservers,
            label=f"{GT}/{layout}", trace_enabled=env.trace, edge_layout=layout,
            block_cache_blocks=0,  # cold: layout differences are I/O
        )
        for layout in ("grouped", "interleaved")
    }
    elapsed = {layout: cell.elapsed for layout, cell in by.items()}
    rows = {f"{layout} layout": report.fmt_time(t) for layout, t in elapsed.items()}
    rows["interleaved / grouped"] = f"{elapsed['interleaved'] / elapsed['grouped']:.2f}x"
    checks = [
        ShapeCheck(
            "grouped_layout_wins_label_selective_scans",
            elapsed["grouped"] < elapsed["interleaved"],
            f"grouped {report.fmt_time(elapsed['grouped'])} vs interleaved "
            f"{report.fmt_time(elapsed['interleaved'])} (paper §IV-B: grouping "
            "edges by type makes edge iteration sequential)",
        ),
    ]
    rendered = report.kv_table(
        f"Ablation — edge-key layout, Darshan audit query on {nservers} servers", rows
    )
    return ExperimentResult(list(by.values()), rendered, checks)


def exp_ablation_partitioning(env: BenchEnvironment) -> ExperimentResult:
    """§VI discussion: partitioning strategy vs straggler persistence."""
    nservers = max(env.servers)
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, 8)
    cells = [
        harness.run_cell(
            graph, plan, engine, nservers,
            label=f"{engine.value}/{part}", trace_enabled=env.trace, partitioner=part,
        )
        for part in ("hash", "greedy")
        for engine in (EngineKind.SYNC, EngineKind.GRAPHTREK)
    ]
    hash_report = evaluate_partition(graph, HashEdgeCut(nservers))
    greedy_report = evaluate_partition(graph, GreedyBalancedEdgeCut(nservers).fit(graph))
    vc = greedy_vertex_cut(graph, nservers)
    by_name = {c.engine: c for c in cells}
    sync_gain = (
        by_name[f"{SYNC}/hash"].elapsed - by_name[f"{SYNC}/greedy"].elapsed
    ) / by_name[f"{SYNC}/hash"].elapsed
    checks = [
        ShapeCheck(
            "greedy_balances_better",
            greedy_report.edge_imbalance <= hash_report.edge_imbalance,
            f"edge imbalance: hash {hash_report.edge_imbalance:.2f} vs "
            f"greedy {greedy_report.edge_imbalance:.2f}",
        ),
        ShapeCheck(
            "async_still_helps_under_best_partitioning",
            by_name[f"{GT}/greedy"].elapsed < by_name[f"{SYNC}/greedy"].elapsed,
            "even with the balanced partition, stragglers persist and "
            "asynchrony wins (paper §VI: 'even with the best load-balanced "
            "strategy, stragglers will still exist')",
        ),
    ]
    rendered = report.kv_table(
        f"Ablation — partitioning, 8-step on {nservers} servers",
        {
            **{c.engine: report.fmt_time(c.elapsed) for c in cells},
            "hash edge-imbalance": f"{hash_report.edge_imbalance:.2f}",
            "greedy edge-imbalance": f"{greedy_report.edge_imbalance:.2f}",
            "vertex-cut replication factor": f"{vc.replication_factor:.2f}",
            "sync gain from balancing": f"{sync_gain * 100:.1f}%",
        },
    )
    return ExperimentResult(cells, rendered, checks)


# -- coordinator recovery ablation (DESIGN.md §13) ----------------------------


def exp_coordinator_recovery(env: BenchEnvironment) -> ExperimentResult:
    """Coordinator-recovery ablation on the Fig. 7 workload (8-step
    GraphTrek on RMAT-1): the traversal journal's on/off overhead in the
    fault-free case, and crash-recovery cost when the coordinator-hosting
    server dies mid-traversal at 30 %, 50 % and 70 % of the fault-free
    duration and recovers shortly after.

    Measured per crash leg: recovery time (extra virtual time beyond the
    host's pure downtime), the recovered epoch, fenced stale messages, and
    the differential verdict — the recovered run must reproduce the
    journal-off baseline's result sets element-identically.
    """
    nservers = max(env.servers)
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plan = harness.kstep_plan(env, 8)

    def run_leg(**cluster_kwargs):
        cluster = harness.build_cluster(graph, EngineKind.GRAPHTREK, nservers, **cluster_kwargs)
        start = cluster.now
        outcome = cluster.traverse(plan, cold=True)
        return cluster, outcome.result, cluster.now - start

    _, baseline, t_off = run_leg(journal=False)
    cluster, on_result, t_on = run_leg(journal=True)
    journal_stats = {
        "records": cluster.journal.records_appended,
        "bytes": cluster.journal.bytes_appended,
        "size_bytes": cluster.journal.size_bytes(),
    }
    overhead = (t_on - t_off) / t_off if t_off else 0.0

    cc = chaos_coordinator_config(t_on)
    legs = []
    leaked: list[str] = []  # the full audit; the legs keep their one gauge
    for i, frac in enumerate((0.3, 0.5, 0.7)):
        at = frac * t_on
        recover_at = at + 0.25 * t_on
        fault_plan = FaultPlan(
            seed=i, crashes=(CrashEvent(server=0, at=at, recover_at=recover_at),)
        )
        cluster, result, elapsed = run_leg(
            journal=True, reliable=True, fault_plan=fault_plan, coordinator_config=cc
        )
        leaked += leaked_state(cluster, [result.travel_id])
        downtime = recover_at - at
        legs.append(
            {
                "crash_fraction": frac,
                "matched": result.returned == baseline.returned,
                "elapsed": elapsed,
                "downtime": downtime,
                "recovery_time": elapsed - t_on - downtime,
                "epoch": cluster.coordinator.epoch,
                "fenced": cluster.obs.metrics.counter_total("coord.fenced"),
                "journal_size_bytes": cluster.journal.size_bytes(),
                "leaked_bindings": (
                    len(cluster.supervisor.sessions)
                    if cluster.supervisor is not None
                    else 0
                ),
            }
        )

    checks = [
        ShapeCheck(
            "recovered_results_identical",
            all(l["matched"] for l in legs),
            f"{sum(l['matched'] for l in legs)}/{len(legs)} crash legs "
            "reproduced the journal-off baseline element-identically",
        ),
        ShapeCheck(
            "every_leg_recovered_an_epoch",
            all(l["epoch"] >= 1 for l in legs),
            f"epochs {[l['epoch'] for l in legs]} (all must be >= 1)",
        ),
        ShapeCheck(
            "journal_off_critical_path",
            abs(overhead) < 0.01 and on_result.returned == baseline.returned,
            f"journal on/off virtual-time overhead {overhead * 100:.2f}% "
            "(durability is off the traversal's critical path)",
        ),
        ShapeCheck(
            "recovery_cheaper_than_rerun",
            all(l["elapsed"] - l["downtime"] < 3.0 * t_on for l in legs),
            "post-crash completion stayed within 3x the fault-free run "
            "after subtracting pure downtime",
        ),
        ShapeCheck(
            "no_leaked_bindings",
            all(l["leaked_bindings"] == 0 for l in legs) and not leaked,
            "recovery supervisor held zero client bindings after completion"
            + (f"; leaked: {leaked}" if leaked else ""),
        ),
    ]

    rows = {
        "fault-free (journal off)": report.fmt_time(t_off),
        "fault-free (journal on)": (
            f"{report.fmt_time(t_on)}  (overhead {overhead * 100:+.2f}%, "
            f"{journal_stats['records']} records, "
            f"{journal_stats['bytes']} bytes appended)"
        ),
    }
    for l in legs:
        rows[f"crash at {l['crash_fraction']:.0%} of run"] = (
            f"{'match' if l['matched'] else 'WRONG RESULT'}  "
            f"recovery={report.fmt_time(max(l['recovery_time'], 0.0))} "
            f"epoch={l['epoch']} fenced={l['fenced']}"
        )
    rendered = report.kv_table(
        f"Coordinator recovery — 8-step GraphTrek on {nservers} servers "
        f"(scale {env.scale})",
        rows,
    )
    extra = {
        "baseline_elapsed": t_off,
        "journal_elapsed": t_on,
        "journal_overhead": overhead,
        "journal_stats": journal_stats,
        "legs": legs,
    }
    return ExperimentResult([], rendered, checks, extra=extra)


# -- elastic scale-out ablation -----------------------------------------------


def exp_rebalance(env: BenchEnvironment) -> ExperimentResult:
    """Online shard-rebalancing ablation (DESIGN.md §15).

    A workload hot-spotted onto one server (no-match edge labels pin every
    real visit on the start vertex's owner) concentrates essentially all
    execution there. Four claims against a static twin of the same cluster:

    * **Detection & selection** — the hot-shard report ranks the loaded
      server first and ``select_migration`` picks it as the source.
    * **Skew reduction** — re-running the pinned workload after one
      telemetry-driven migration spreads its visits across two owners: the
      hot server's visit share and the per-server skew (max/mean) both drop
      versus the static cluster.
    * **Interactive p99 unharmed** — migration traffic rides the scheduler
      as a low-weight ``rebalance`` tenant under weighted-fair queueing, so
      interactive latency *including queue wait* stays within 1.25x of the
      migration-free baseline.
    * **Answers unchanged** — the interactive queries racing the migration
      return exactly the static cluster's result sets, and the migration
      finishes ``done`` with zero leaked protocol state.
    """
    nservers, pinned, interactive, p99_tolerance = 4, 16, 24, 1.25
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    sched_config = SchedulerConfig(
        max_inflight=2, tenant_weights={"interactive": 4.0, "rebalance": 0.5}
    )

    def build():
        return harness.build_cluster(
            graph, graphtrek_options(scheduler="wfq"), nservers,
            scheduler_config=sched_config,
            migration=MigrationConfig(chunk_vertices=8, dual_window=0.01),
            journal=True,
        )

    def per_server_visits(cluster):
        counters = cluster.metrics_snapshot()["counters"]
        return {
            s: counters.get(f"{EXEC_RATE_METRIC}{{server={s}}}", 0) for s in range(nservers)
        }

    def visit_split(cluster, plans, hot):
        """(outcomes, visit skew, hot server's visit share) of ``plans``."""
        before = per_server_visits(cluster)
        outcomes = cluster.traverse_many(plans, cold=False)
        after = per_server_visits(cluster)
        delta = {s: after[s] - before[s] for s in range(nservers)}
        total = max(1, sum(delta.values()))
        skew = max(delta.values()) / (total / nservers)
        return outcomes, skew, delta[hot] / total

    hot = 1
    interactive_plans = [harness.kstep_plan(env, 4, pick=3 + i) for i in range(interactive)]
    qos = [{"tenant": "interactive"}] * interactive

    # -- static leg: the baseline twin (no migration ever starts) -----------
    static = build()
    pinned_vids, pinned_plans = _hotspot(
        graph, static.routing.owner, hot, pinned, "__rebalance_hotspot__"
    )
    _, skew_static, share_static = visit_split(static, pinned_plans, hot)
    outcomes_static = static.traverse_many(interactive_plans, cold=False, qos=qos)
    lat_static = [o.stats.elapsed for o in outcomes_static]
    results_static = [sorted(o.result.vertices) for o in outcomes_static]
    p99_static = float(np.percentile(lat_static, 99))

    # -- live leg: same heat, interactive workload racing one telemetry-
    # driven migration --------------------------------------------------------
    live = build()
    heat = live.traverse_many(pinned_plans, cold=False)  # heat the detector
    report_before = live.hot_shard_report()
    # loads weighted by what is actually hot — the pinned range — so the
    # selector migrates half of the hot range rather than the whole thing
    # (moving it wholesale would just relocate the hot spot)
    loads = {
        s.server_id: [v for v in pinned_vids if live.routing.owner(v) == s.server_id]
        for s in live.servers
    }
    choice = select_migration(report_before, loads, require_hot=False, fraction=0.5)
    half = interactive // 2
    events = [live.submit(p, tenant="interactive")[1] for p in interactive_plans[:half]]
    _, mig_event = live.rebalance(choice.src, choice.dst, vids=choice.vids, wait=False)
    events += [live.submit(p, tenant="interactive")[1] for p in interactive_plans[half:]]
    outcomes_live = [live.runtime.run_until_complete(e) for e in events]
    state = live.runtime.run_until_complete(mig_event)
    lat_live = [o.stats.elapsed for o in outcomes_live]
    results_live = [sorted(o.result.vertices) for o in outcomes_live]
    p99_live = float(np.percentile(lat_live, 99))
    after, skew_after, share_after = visit_split(live, pinned_plans, hot)
    travel_ids = [o.result.travel_id for o in heat + outcomes_live + after]
    # the full audit: scheduler, coordinator, registry, supervisor and
    # migrator state, and one data-holding owner per moved vertex
    leaks = leaked_state(live, travel_ids, choice.vids)
    dual_left = live.routing.dual_count

    checks = [
        ShapeCheck(
            "hot_shard_detected_and_selected",
            report_before.hottest == hot and choice.src == hot,
            f"hot-spotted server {hot}: ranked={report_before.ranked}, "
            f"selected source={choice.src} -> target={choice.dst} "
            f"({len(choice.vids)} vertices)",
        ),
        ShapeCheck(
            "post_migration_skew_reduced",
            skew_after < skew_static and share_after < share_static,
            f"pinned-workload visit skew (max/mean) {skew_static:.2f} -> "
            f"{skew_after:.2f}; hot server's visit share "
            f"{share_static * 100:.0f}% -> {share_after * 100:.0f}%",
        ),
        ShapeCheck(
            "interactive_p99_unharmed_under_wfq",
            p99_live <= p99_static * p99_tolerance,
            f"interactive p99 incl. queue wait: static "
            f"{report.fmt_time(p99_static)} vs with-migration "
            f"{report.fmt_time(p99_live)} (tolerance x{p99_tolerance})",
        ),
        ShapeCheck(
            "migration_changes_no_answers",
            results_live == results_static,
            f"all {interactive} interactive result sets identical with and "
            "without the concurrent migration",
        ),
        ShapeCheck(
            "migration_done_zero_leaks",
            state.phase == "done" and not leaks and dual_left == 0,
            f"terminal phase {state.phase}; leaked={leaks or 'nothing'}; "
            f"dual-routed remaining={dual_left}",
        ),
    ]
    rows = {
        "hot server / visit share": f"{hot} / {share_static * 100:.0f}%",
        "selected move": f"{len(choice.vids)} vertices {choice.src} -> {choice.dst}",
        "visit skew (static -> rebalanced)": f"{skew_static:.2f} -> {skew_after:.2f}",
        "hot visit share (static -> rebalanced)": (
            f"{share_static * 100:.0f}% -> {share_after * 100:.0f}%"
        ),
        "interactive p99 (static)": report.fmt_time(p99_static),
        "interactive p99 (with migration)": report.fmt_time(p99_live),
        "migration": (
            f"{state.phase}: {state.chunks_applied} chunks, "
            f"{state.bytes_moved} bytes, {state.resends} resends"
        ),
    }
    rendered = report.kv_table(
        f"Elastic scale-out — hot-spotted workload on {nservers} servers "
        f"(scale {env.scale}, wfq, rebalance tenant weight 0.5)",
        rows,
    )
    extra = {
        "hot_server": hot,
        "choice": {"src": choice.src, "dst": choice.dst, "vertices": len(choice.vids)},
        "skew_static": skew_static,
        "skew_after": skew_after,
        "share_static": share_static,
        "share_after": share_after,
        "p99_static": p99_static,
        "p99_with_migration": p99_live,
        "migration": state.payload(),
        "hot_shard_report": report_before.to_payload(),
    }
    return ExperimentResult([], rendered, checks, extra=extra)


def exp_columnar(env: BenchEnvironment) -> ExperimentResult:
    """Columnar-adjacency layout ablation (DESIGN.md §16).

    The 8-step RMAT traversal on the GraphTrek engine over the two edge
    layouts:

    * **grouped** — one LSM entry per edge;
    * **columnar** — one delta/varint-packed block per (vertex, label).

    One long-lived 8-server cluster per layout serves eight seeded start
    vertices twice over, cold block cache each traversal.
    Reported per layout: median virtual time (denser blocks hit the block
    cache more often), bytes/edge from the live storage gauges, and an
    element-identical result check — the layout must not answer
    differently. The wall-clock side (one memoized block decode replaces
    many per-edge record unpacks) is invisible to virtual time and is
    ``benchmarks/perf``'s to measure (``storage.columnar.*`` probes).
    """
    nservers, steps, starts, rounds = 8, 8, 8, 2
    graph = harness.rmat1_graph(env.scale, env.edge_factor, env.seed)
    plans = [
        rmat_kstep_query(
            harness.rmat1_source(env.scale, env.edge_factor, env.seed, pick), steps
        ).compile()
        for pick in range(starts)
    ] * rounds

    cells, virt, bpe, results = [], {}, {}, {}
    for name in ("grouped", "columnar"):
        cluster = harness.build_cluster(
            graph, EngineKind.GRAPHTREK, nservers, trace_enabled=env.trace, edge_layout=name
        )
        outcomes = [cluster.traverse(plan) for plan in plans[:-1]]
        # the cell reports the last traversal the long-lived cluster served
        cell, last = harness.measure(cluster, plans[-1:], label=f"{GT}/{name}")
        cells.append(cell)
        outcomes += last
        snaps = [s.store.metrics_snapshot() for s in cluster.servers]
        edge_bytes = sum(s["edge_bytes"] for s in snaps)
        edge_count = sum(s["edge_count"] for s in snaps)
        virt[name] = statistics.median(o.stats.elapsed for o in outcomes)
        bpe[name] = edge_bytes / max(1, edge_count)
        results[name] = [
            {lv: frozenset(v) for lv, v in o.result.returned.items() if v}
            for o in outcomes
        ]

    checks = [
        ShapeCheck(
            "results_element_identical",
            results["grouped"] == results["columnar"],
            "columnar returns the same vertex sets as grouped",
        ),
        ShapeCheck(
            "columnar_compresses",
            bpe["columnar"] < bpe["grouped"],
            f"bytes/edge {bpe['columnar']:.1f} (columnar) vs "
            f"{bpe['grouped']:.1f} (grouped)",
        ),
        ShapeCheck(
            "virtual_time_within_envelope",
            virt["columnar"] <= virt["grouped"],
            f"virtual elapsed {report.fmt_time(virt['columnar'])} vs "
            f"{report.fmt_time(virt['grouped'])}: denser blocks hit the block "
            "cache more often, so the paper metric must not rise",
        ),
    ]
    rows = {
        "grouped virtual (p50)": report.fmt_time(virt["grouped"]),
        "columnar virtual (p50)": report.fmt_time(virt["columnar"]),
        "grouped bytes/edge": f"{bpe['grouped']:.1f}",
        "columnar bytes/edge": f"{bpe['columnar']:.1f}",
    }
    rendered = report.kv_table(
        f"Columnar adjacency — {steps}-step RMAT-1 "
        f"(scale={env.scale}, {nservers} servers, {starts} starts x {rounds})",
        rows,
    )
    extra = {"scale": env.scale, "virtual_seconds": virt, "bytes_per_edge": bpe}
    return ExperimentResult(cells, rendered, checks, extra=extra)


#: name -> experiment, in report order. The name is the CLI name, the
#: artifact stem and ``payload["experiment"]``; every entry is called as
#: ``fn(env)``.
EXPERIMENTS: dict[str, Callable[[BenchEnvironment], ExperimentResult]] = {
    "table1": exp_table1,
    "fig7": exp_fig7,
    "fig8": partial(exp_step_sweep, steps=2),
    "fig9": partial(exp_step_sweep, steps=4),
    "fig10": partial(exp_step_sweep, steps=8),
    "fig11": exp_fig11,
    "table2": exp_table2,
    "table3": exp_table3,
    "concurrent": exp_concurrent_traversals,
    "ablation_opts": exp_ablation_optimizations,
    "ablation_partition": exp_ablation_partitioning,
    "ablation_layout": exp_ablation_layout,
    "coordinator_recovery": exp_coordinator_recovery,
    "rebalance": exp_rebalance,
    "columnar": exp_columnar,
}
