"""Calibrate, do not guess, the bounds: ``run.py --calibrate``.

Runs every workload once per seed in its own process, one at a time, takes
for each end-to-end metric the interquartile range of its values as a share
of their median (``statistics.quantiles(values, n=4)``, the driver's rule),
and commits ``max(floor, 3 x spread)`` — the widest spread over the four
workloads, capped at ``spec.BOUND_CAP`` — as the metric's bound. Writes
``BENCHMARK.json`` and ``benchmarks/perf/calibration.json``.

The driver refuses a benchmark whose spread passes its bound, so a spread
above the cap fails here too; a spread above a third of the cap only leaves
the bound less than the wanted 3x headroom, and is reported.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from perfbench import spec

SEEDS = range(1, 11)
#: the driver's budget: 4 + 22 runs a workload within 3420 s; keep a fifth spare
DRIVER_CAP_SECONDS = 3420
DRIVER_HEADROOM = 0.8


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT,
                         capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def benchmark_json(bounds: dict[str, float]) -> dict:
    return {
        "command": spec.COMMAND,
        "paths": spec.PATHS,
        "run_seconds": spec.RUN_SECONDS,
        "workloads": spec.WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
            for name, unit, better, _ in spec.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in spec.per_layer_metrics()
        ],
    }


def main(args, run_workload) -> int:
    """``run_workload(workload, trace, seed)`` runs one fresh process and
    returns its result line and whole wall-clock."""
    runs: dict[str, list[dict]] = {}
    walls: dict[str, list[float]] = {}
    trace_walls: dict[str, float] = {}
    for workload in spec.WORKLOAD_NAMES:
        for seed in SEEDS:
            result, wall = run_workload(workload, 0, seed)
            runs.setdefault(workload, []).append(result["metrics"])
            walls.setdefault(workload, []).append(wall)
            print(f"# {workload} seed {seed}: {wall:.1f} s")
        _, trace_walls[workload] = run_workload(workload, 1, 1)
        print(f"# {workload} traced: {trace_walls[workload]:.1f} s")

    table: dict[str, dict[str, dict]] = {}
    bounds: dict[str, float] = {}
    unsteady, too_noisy = [], []
    for name, unit, _, floor in spec.END_TO_END:
        table[name] = {
            workload: spread([m[name]["value"] for m in metrics])
            for workload, metrics in runs.items()
        }
        widest = max(row["spread"] for row in table[name].values())
        # setup_s takes the cap outright: the driver gates only its median
        wanted = spec.BOUND_CAP if name == "setup_s" else max(floor, 3 * widest)
        bounds[name] = round(min(spec.BOUND_CAP, wanted), 3)
        if name != "setup_s" and 3 * widest > spec.BOUND_CAP:
            (too_noisy if widest > spec.BOUND_CAP else unsteady).append(name)
        print(f"{name} [{unit}]  bound {bounds[name]:.3f}")
        for workload, row in table[name].items():
            print(f"  {workload:14s} median {row['median']:12.4f}  q1 {row['q1']:12.4f}"
                  f"  q3 {row['q3']:12.4f}  spread {row['spread']:.4f}")

    # 20 untraced and 2 traced runs a workload, 4 more of the longest
    projected = sum(
        20 * statistics.mean(walls[w]) + 2 * trace_walls[w] for w in spec.WORKLOAD_NAMES
    ) + 4 * max(trace_walls.values())
    print(f"# projected driver time {projected:.0f} s of {DRIVER_CAP_SECONDS} s")

    spec.BENCHMARK_JSON.write_text(json.dumps(benchmark_json(bounds), indent=1) + "\n")
    (spec.PERF_DIR / "calibration.json").write_text(json.dumps({
        "environment": fingerprint(),
        "seeds": list(SEEDS),
        "scale": spec.DEFAULT_SCALE if args.scale is None else args.scale,
        "run_seconds": spec.RUN_SECONDS if args.seconds is None else args.seconds,
        "bounds": bounds,
        "end_to_end": table,
        "run_wall_s": {w: statistics.mean(v) for w, v in walls.items()},
        "traced_run_wall_s": trace_walls,
        "projected_driver_s": projected,
    }, indent=1) + "\n")
    print("# wrote BENCHMARK.json and benchmarks/perf/calibration.json")

    if unsteady:
        print(f"# {unsteady}: three times the spread passes the {spec.BOUND_CAP} "
              "cap, so the bound is the cap", file=sys.stderr)
    if too_noisy:
        print(f"# the spread of {too_noisy} passes the {spec.BOUND_CAP} cap: "
              "steady it or demote it to per_layer", file=sys.stderr)
        return 1
    if projected > DRIVER_HEADROOM * DRIVER_CAP_SECONDS:
        print("# the whole set does not fit the driver's time cap with a fifth "
              "to spare: cut op counts in perfbench/workloads.py", file=sys.stderr)
        return 1
    return 0
