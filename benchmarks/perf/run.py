#!/usr/bin/env python3
"""The repo's benchmark: one workload per process, checked against the oracle.

    python3 benchmarks/perf/run.py --workload kstep8_rmat --seed 1
    python3 benchmarks/perf/run.py --workload kstep8_rmat --seed 1 --trace
    python3 benchmarks/perf/run.py --all [--trace]
    python3 benchmarks/perf/run.py --calibrate

Prints every metric by name with its unit, writes one JSON document under
``benchmarks/perf/out/``, and ends with the one-line JSON result the driver
reads. Exits non-zero when any result differs from ``ReferenceEngine``.
See ``benchmarks/perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from perfbench import spec  # names and paths only; needs no program

PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workload names")
    parser.add_argument("--all", action="store_true",
                        help="every workload, each in its own fresh process")
    parser.add_argument("--calibrate", action="store_true",
                        help="ten seeds per workload; rewrite the bounds in "
                        "BENCHMARK.json and calibration.json")
    parser.add_argument("--seed", type=int, default=1, help="2 is the held-out seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run, per-layer metrics")
    parser.add_argument("--out", type=Path, default=spec.OUT_DIR,
                        help="directory for the run's JSON document")
    parser.add_argument("--scale", type=int, default=None,
                        help="RMAT scale (Darshan users = 2**(scale-5)); "
                        "12 is the issue's full size")
    return parser.parse_args(argv)


def child_command(workload: str, args: argparse.Namespace, trace: int, seed=None) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed if seed is None else seed), "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    return cmd + ["--out", str(args.out.resolve())]


def run_child(cmd: list[str]) -> tuple[dict, float]:
    """Run one workload in a fresh process (never two at a time) and return
    its result line and its whole wall-clock."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=spec.REPO_ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def run_one(args: argparse.Namespace) -> int:
    from perfbench import harness

    if args.workload not in spec.WORKLOAD_NAMES:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {spec.WORKLOAD_NAMES}"
        )
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    scale = spec.DEFAULT_SCALE if args.scale is None else args.scale
    started = time.perf_counter()
    runner = harness.run_traced if args.trace else harness.run_end_to_end
    doc = runner(args.workload, args.seed, scale, seconds)
    total_wall = time.perf_counter() - started

    units = spec.units()
    declared = (
        [m[0] for m in spec.per_layer_metrics()] if args.trace
        else [m[0] for m in spec.END_TO_END]
    )
    if sorted(doc["metrics"]) != sorted(declared):
        odd = set(doc["metrics"]) ^ set(declared)
        raise SystemExit(f"metric names differ from the declared set: {sorted(odd)}")
    metrics = {
        name: {"value": doc["metrics"][name], "unit": units[name]} for name in declared
    }
    correct = doc["failed"] == 0

    print(f"# {args.workload} seed={args.seed} scale={scale} seconds={seconds:g} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6f} {m['unit']}")
    print(f"# samples: {json.dumps(doc['samples'])}")
    print(f"# checked {doc['attempted']} results against ReferenceEngine, "
          f"{doc['failed']} failed")
    print(f"# timed part {doc['timed_wall_s']:.2f} s"
          + (f", traced pass {doc['traced_wall_s']:.2f} s" if args.trace else "")
          + f", whole run {total_wall:.2f} s")
    if not args.trace and seconds >= spec.RUN_SECONDS and doc["timed_wall_s"] < seconds / 2:
        print(f"# warning: timed part is under half of --seconds {seconds:g}; "
              "the op counts in perfbench/workloads.py need resizing", file=sys.stderr)

    document = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "seconds": seconds, "trace": args.trace, "correct": correct,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": metrics, "samples": doc["samples"],
        "timed_wall_s": doc["timed_wall_s"], "run_wall_s": total_wall,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = args.out / f"{stem}-{len(list(args.out.glob(stem + '-*.json')))}.json"
    path.write_text(json.dumps(document, indent=1))
    print(f"# wrote {path}")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    for workload in spec.WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            result, wall = run_child(child_command(workload, args, trace))
            print(f"# {workload} trace={trace}: {wall:.1f} s")
            for name, m in result["metrics"].items():
                print(f"{workload:14s} {name:48s} {m['value']:>16.6f} {m['unit']}")
    print(f"# whole set {time.perf_counter() - started:.1f} s; "
          f"run documents in {args.out}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # same process, pinned hash seed: set iteration order (and so the
        # wall-clock of hash-ordered loops) repeats from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    src = spec.REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    if args.calibrate:
        from perfbench import calibrate

        return calibrate.main(
            args, lambda w, trace, seed: run_child(child_command(w, args, trace, seed))
        )
    if args.all:
        return run_all(args)
    if not args.workload:
        raise SystemExit("give --workload NAME, --all or --calibrate")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
