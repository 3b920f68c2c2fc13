"""Tests for the ``python -m repro.bench`` experiment runner."""

import json

import pytest

from repro.bench import harness
from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.engine import EngineKind
from repro.obs.trace import validate_trace


@pytest.fixture()
def results_dir(monkeypatch, tmp_path):
    """A tiny environment writing into an empty directory."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "7")
    monkeypatch.setenv("REPRO_BENCH_SERVERS", "2,3")
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    return tmp_path


def test_registry_covers_every_paper_artifact():
    for name in ("table1", "table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11"):
        assert name in EXPERIMENTS


def test_unknown_experiment_rejected(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_single_cheap_experiment_runs(capsys, results_dir):
    code = main(["table2"])
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "[PASS]" in out
    assert code in (0, 1)  # checks may be scale-sensitive; must not crash
    # registry name = artifact stem = payload["experiment"]
    assert [p.name for p in results_dir.iterdir()] == ["table2.json"]
    assert json.loads((results_dir / "table2.json").read_text())["experiment"] == "table2"


def test_traced_run_records_every_cell(capsys, results_dir):
    """``--trace`` reaches every cluster an experiment builds for a cell:
    ``concurrent`` hand-built its clusters and wrote a 0-event trace."""
    assert main(["concurrent", "--trace"]) in (0, 1)  # shape checks are scale-sensitive
    assert "[FAIL] trace" not in capsys.readouterr().out
    chrome = json.loads((results_dir / "concurrent_trace.json").read_text())
    assert validate_trace(chrome) == []
    # trace_payload shifts each cell's pids into its own block of 1000
    blocks = {ev["pid"] // 1000 for ev in chrome["traceEvents"]}
    cells = json.loads((results_dir / "concurrent.json").read_text())["cells"]
    assert blocks == set(range(len(cells))) and cells


def test_traced_run_without_cells_fails(capsys, results_dir):
    """An experiment that reports no cells cannot honour ``--trace``; the run
    says so and exits non-zero instead of writing an empty trace."""
    assert main(["table2", "--trace"]) == 1
    assert "table2 reports no cells" in capsys.readouterr().out
    assert not (results_dir / "table2_trace.json").exists()


def test_traced_run_names_the_cell_that_dropped_tracing(capsys, monkeypatch, results_dir):
    """One build site that forgets ``trace_enabled=env.trace`` fails the run even
    though the other cells recorded events."""

    def forgetful(env):
        graph = harness.rmat1_graph(env.scale, env.edge_factor)
        plan = harness.kstep_plan(env, 2)
        cells = [
            harness.run_cell(graph, plan, EngineKind.SYNC, 2, trace_enabled=env.trace),
            harness.run_cell(graph, plan, EngineKind.GRAPHTREK, 2),
        ]
        return ExperimentResult(cells, "stub", [])

    monkeypatch.setitem(EXPERIMENTS, "table1", forgetful)
    assert main(["table1", "--trace"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] trace: cell GraphTrekx2 recorded no trace events" in out
    assert "Sync-GTx2" not in out
    assert main(["table1"]) == 0
