"""Standalone experiment runner: regenerate the paper's evaluation section.

Usage::

    python -m repro.bench                 # every table and figure
    python -m repro.bench table1 fig11    # a subset
    REPRO_BENCH_SCALE=14 python -m repro.bench table1

    # robustness: 10 seeded fault plans with a tightened watchdog
    python -m repro.bench chaos --fault-plan 7 --exec-timeout 0.2 --max-restarts 2

Prints the paper-style tables and writes JSON to benchmarks/results/.
Exit code 1 if any shape check fails, a metric snapshot carries NaN/inf, or
under ``--trace`` the payload is malformed, a cell recorded no event, or the
experiment reports no cells.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import BenchEnvironment
from repro.bench.report import banner, report_experiment


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables/figures and robustness runs.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help=f"subset to run (default: all). Choices: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--fault-plan",
        type=int,
        default=None,
        metavar="SEED",
        help="base seed for the chaos experiment's sampled fault plans "
        "(implies running 'chaos' if no experiments were named)",
    )
    parser.add_argument(
        "--exec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the chaos watchdog's per-execution timeout "
        "(virtual seconds)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help="override the chaos watchdog's whole-traversal restart budget",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a flight-recorder trace for every cell and write the "
        "merged Chrome trace_event file (open in chrome://tracing or "
        "https://ui.perfetto.dev) as <experiment>_trace.json; an experiment "
        "that reports no cells fails under it",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the Chrome trace there instead (implies --trace; only "
        "meaningful when running a single experiment)",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    chaos_knobs = {
        key: value
        for key, value in (
            ("fault_seed", args.fault_plan),
            ("exec_timeout", args.exec_timeout),
            ("max_restarts", args.max_restarts),
        )
        if value is not None
    }
    names = args.names or (["chaos"] if chaos_knobs else list(EXPERIMENTS))
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2
    env = replace(
        BenchEnvironment.from_env(),
        trace=args.trace or args.trace_out is not None,
    )
    print(f"environment: scale={env.scale} edge_factor={env.edge_factor} "
          f"servers={env.servers}")
    all_passed = True
    for name in names:
        print(banner(name))
        result = EXPERIMENTS[name](env, **(chaos_knobs if name == "chaos" else {}))
        all_passed &= report_experiment(
            name, result, traced=env.trace, trace_out=args.trace_out
        )
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
