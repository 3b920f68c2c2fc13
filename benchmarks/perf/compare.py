#!/usr/bin/env python3
"""Compare two result sets of the same seed: ``compare.py A B``.

A result set is a directory of the JSON documents ``run.py --out DIR``
writes (several runs of a workload may sit side by side). For every
workload x metric present in both, prints both medians and quartiles, the
ratio B/A with its base, and a verdict:

* end-to-end metrics: ``within-bound``, ``regressed`` (B's median is worse
  than A's by more than the metric's bound in ``BENCHMARK.json``) or
  ``unresolved`` (either side's own spread is wider than the bound, and B's
  runs do not all read better than A's);
* exact metrics, every ``.calls`` and every counter: ``identical`` or
  ``drifted`` — the simulator is deterministic, so any difference is a change
  of behaviour, not noise.

Exits 1 when anything regressed or drifted.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfbench import spec  # noqa: E402


def load(directory: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run document in ``directory``."""
    values: dict[tuple[str, str], list[float]] = {}
    seeds = set()
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "workload" not in doc:
            continue
        seeds.add(doc["seed"])
        for name, metric in doc["metrics"].items():
            values.setdefault((doc["workload"], name), []).append(metric["value"])
    if len(seeds) > 1:
        raise SystemExit(f"{directory} mixes seeds {sorted(seeds)}; compare one seed")
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if worse_by > bound:
        return "regressed"
    spreads = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)]
    if max(spreads) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "within-bound" if all_better else "unresolved"
    return "within-bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    a_set, b_set = load(argv[0]), load(argv[1])
    declared = json.loads(spec.BENCHMARK_JSON.read_text())
    gated = {m["name"]: m for m in declared["end_to_end"]}
    exact = spec.exact_metrics()
    bad = 0
    print(f"{'workload':14s} {'metric':44s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B/A':>8s}  verdict")
    for key in sorted(a_set.keys() & b_set.keys()):
        workload, name = key
        a, b = a_set[key], b_set[key]
        qa, qb = quartiles(a), quartiles(b)
        if name in exact:
            result = "identical" if set(a) == set(b) and len(set(a)) == 1 else "drifted"
        elif name in gated:
            result = verdict(a, b, gated[name]["better"], gated[name]["bound"])
        else:
            result = ""  # per-layer timing: reported, never gated
        bad += result in ("regressed", "drifted")
        ratio = f"{qb[1] / qa[1]:8.4f}" if qa[1] else "     n/a"
        print(f"{workload:14s} {name:44s} "
              f"{qa[1]:14.4f} [{qa[0]:10.4f},{qa[2]:10.4f}] "
              f"{qb[1]:14.4f} [{qb[0]:10.4f},{qb[2]:10.4f}] {ratio}  {result}")
    for key in sorted(a_set.keys() ^ b_set.keys()):
        print(f"{key[0]:14s} {key[1]:44s} only in {'A' if key in a_set else 'B'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
