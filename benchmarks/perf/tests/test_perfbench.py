"""Self-tests of the benchmark (not tier-1: ``testpaths`` is ``tests``).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q

Every run here is a ``--scale 8 --seconds 1`` smoke of the real command.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
sys.path.insert(0, str(PERF_DIR))
from perfbench import spec  # noqa: E402

DECLARED = json.loads(spec.BENCHMARK_JSON.read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, repeat: int = 0, out: str = "") -> tuple[dict, float]:
    """One smoke run of the declared command -> (result line, seconds).
    ``repeat`` only distinguishes cached runs."""
    cmd = [*DECLARED["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "8"]
    if out:
        cmd += ["--out", out]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_is_the_spec_and_within_the_contract():
    assert list(DECLARED) == ["command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"]
    assert DECLARED["command"] == spec.COMMAND and DECLARED["paths"] == spec.PATHS
    assert DECLARED["workloads"] == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == [
        m[:3] for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == (
        spec.per_layer_metrics())
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert len(DECLARED["end_to_end"]) <= 16 and len(DECLARED["per_layer"]) <= 128
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_exactly_the_end_to_end_metrics(workload):
    result, wall = smoke(workload, 0)
    assert wall < 5.0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, f"{name} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_exactly_the_per_layer_metrics(workload):
    result, _ = smoke(workload, 1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    got = values(result)
    shares = [v for n, v in got.items() if n.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert got["other.self_share"] < 0.10
    assert got["bench.trace_overhead_ratio"] > 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_repeat_the_exact_metrics(workload):
    exact = spec.exact_metrics()
    for trace in (0, 1):
        first = values(smoke(workload, trace)[0])
        second = values(smoke(workload, trace, 1)[0])
        assert {n: v for n, v in first.items() if n in exact} == {
            n: v for n, v in second.items() if n in exact}


def test_exits_nonzero_without_the_program(tmp_path):
    """The driver also runs the command in a directory holding only
    ``BENCHMARK.json`` and ``paths``: no result, non-zero exit."""
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*DECLARED["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_reports_identical_sets_and_flags_a_drift(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    smoke("kstep8_rmat", 0, 0, str(a))
    smoke("kstep8_rmat", 0, 0, str(b))
    compare = [sys.executable, str(PERF_DIR / "compare.py"), str(a), str(b)]
    proc = subprocess.run(compare, capture_output=True, text=True)
    assert "identical" in proc.stdout and "drifted" not in proc.stdout, proc.stdout
    doc_path = next(b.glob("*.json"))
    doc = json.loads(doc_path.read_text())
    doc["metrics"]["virtual_ms_p50"]["value"] *= 1.5
    doc_path.write_text(json.dumps(doc))
    proc = subprocess.run(compare, capture_output=True, text=True)
    assert proc.returncode == 1 and "drifted" in proc.stdout
