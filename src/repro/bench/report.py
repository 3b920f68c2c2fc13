"""Paper-style report rendering for benchmark output.

The harness prints each reproduced table/figure as ASCII in the same layout
the paper uses (engines as columns, server counts as rows), with the paper's
published numbers alongside where the paper gives them, so a reader can
check the *shape* claims directly from the benchmark log.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.harness import (
    Cell,
    cell_lookup,
    metrics_payload,
    save_results,
    trace_payload,
)
from repro.obs.exporter import validate_snapshot
from repro.obs.trace import validate_trace


def fmt_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.2f} s"
    return f"{seconds * 1000:7.1f} ms"


def engine_table(
    title: str,
    cells: Sequence[Cell],
    servers: Sequence[int],
    engines: Sequence[str],
    paper: Optional[dict[tuple[str, int], float]] = None,
) -> str:
    """Render elapsed-time rows per server count, one column per engine.

    ``paper`` maps (engine, nservers) to the paper's published seconds; when
    given, a second line shows them for comparison.
    """
    lookup = cell_lookup(cells)
    width = max(len(e) for e in engines) + 14
    lines = [title, "=" * len(title)]
    header = "servers | " + " | ".join(f"{e:^{width}}" for e in engines)
    lines.append(header)
    lines.append("-" * len(header))
    for n in servers:
        cols = []
        for engine in engines:
            cell = lookup.get((engine, n))
            if cell is None:
                cols.append(" " * width)
                continue
            text = fmt_time(cell.elapsed)
            if paper and (engine, n) in paper:
                text += f" [paper {paper[(engine, n)]:.1f}s]"
            cols.append(f"{text:^{width}}")
        lines.append(f"{n:7d} | " + " | ".join(cols))
    return "\n".join(lines)


def speedup_table(
    title: str,
    cells: Sequence[Cell],
    servers: Sequence[int],
    baseline: str,
    others: Sequence[str],
) -> str:
    """Relative table: each engine's elapsed as a ratio of ``baseline``."""
    lookup = cell_lookup(cells)
    lines = [title, "=" * len(title)]
    header = "servers | " + " | ".join(f"{e + '/' + baseline:^22}" for e in others)
    lines.append(header)
    lines.append("-" * len(header))
    for n in servers:
        base = lookup.get((baseline, n))
        cols = []
        for engine in others:
            cell = lookup.get((engine, n))
            if cell is None or base is None or base.elapsed == 0:
                cols.append(" " * 22)
            else:
                ratio = cell.elapsed / base.elapsed
                cols.append(f"{ratio:^22.3f}")
        lines.append(f"{n:7d} | " + " | ".join(cols))
    return "\n".join(lines)


def visit_breakdown_table(title: str, cell: Cell, top: int = 32) -> str:
    """Fig. 7-style per-server visit breakdown for one GraphTrek run."""
    lines = [title, "=" * len(title)]
    lines.append(f"{'server':>6} | {'total':>7} | {'real I/O':>8} | {'combined':>8} | {'redundant':>9}")
    lines.append("-" * 52)
    rows = []
    for server, bucket in cell.per_server.items():
        real = bucket.get("real", 0)
        comb = bucket.get("combined", 0)
        red = bucket.get("redundant", 0)
        rows.append((server, real + comb + red, real, comb, red))
    rows.sort(key=lambda r: -r[1])
    for server, total, real, comb, red in rows[:top]:
        lines.append(f"{server:>6} | {total:>7} | {real:>8} | {comb:>8} | {red:>9}")
    totals = (
        sum(r[2] for r in rows),
        sum(r[3] for r in rows),
        sum(r[4] for r in rows),
    )
    lines.append("-" * 52)
    lines.append(
        f"{'TOTAL':>6} | {sum(t for t in totals):>7} | {totals[0]:>8} | "
        f"{totals[1]:>8} | {totals[2]:>9}"
    )
    return "\n".join(lines)


def kv_table(title: str, rows: dict) -> str:
    lines = [title, "=" * len(title)]
    width = max(len(str(k)) for k in rows)
    for key, value in rows.items():
        lines.append(f"{key:<{width}} : {value}")
    return "\n".join(lines)


def banner(text: str) -> str:
    bar = "#" * (len(text) + 8)
    return f"\n{bar}\n### {text} ###\n{bar}"


def report_experiment(
    name: str, result, *, traced: bool = False, trace_out: Optional[Path] = None
) -> bool:
    """The one way an experiment's result becomes evidence: print the table
    and the verdicts, save ``<name>.json``, the per-cell metric snapshots
    and the merged Chrome trace of a traced run.

    Returns False when a shape check failed, a snapshot carries NaN/inf
    (broken instrumentation), the trace is malformed, or a traced run
    reports no cells or a cell that recorded no event.
    """
    print(result.rendered)
    for check in result.checks:
        print(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    passed = result.all_passed
    path = save_results(name, {"experiment": name, **result.payload()})
    print(f"  results -> {path}")
    snapshots = metrics_payload(result.cells)
    if snapshots:
        # empty histograms are tolerated here (tiny cells may skip paths)
        # and caught strictly by the tier-1 smoke test instead
        for cell_name, snap in snapshots.items():
            for problem in validate_snapshot(snap):
                if "is empty" not in problem:
                    print(f"  [FAIL] metrics snapshot {cell_name}: {problem}")
                    passed = False
        print(f"  metrics -> {save_results(name + '_metrics', snapshots)}")
    if traced:
        # a cell without events is a build site that dropped ``env.trace``
        problems = [
            f"cell {cell.engine}x{cell.nservers} recorded no trace events"
            for cell in result.cells
            if not cell.trace.get("traceEvents")
        ]
        if not result.cells:
            problems = [f"{name} reports no cells, so --trace has nothing to record"]
        chrome = trace_payload(result.cells)
        if chrome["traceEvents"]:
            problems += validate_trace(chrome)
            if trace_out is not None:
                trace_out.parent.mkdir(parents=True, exist_ok=True)
                trace_out.write_text(json.dumps(chrome, sort_keys=True))
            else:
                trace_out = save_results(name + "_trace", chrome)
            print(f"  trace ({len(chrome['traceEvents'])} events) -> {trace_out}")
        for problem in problems[:8]:
            print(f"  [FAIL] trace: {problem}")
        passed &= not problems
    return passed
