"""Tests for the benchmark harness, report rendering, and experiment configs."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench import harness
from repro.bench.experiments import EXPERIMENTS, ExperimentResult, ShapeCheck
from repro.bench.harness import (
    BenchEnvironment,
    Cell,
    cell_lookup,
    cells_payload,
    kstep_plan,
    rmat1_graph,
    rmat1_source,
    run_cell,
    run_engine_comparison,
)
from repro.bench.report import (
    banner,
    engine_table,
    fmt_time,
    kv_table,
    speedup_table,
    visit_breakdown_table,
)
from repro.engine import EngineKind
from repro.obs.metrics import canonical_json

TINY = BenchEnvironment(scale=6, edge_factor=4, servers=(2, 3))

# The refactoring oracle of ``repro.bench``: sha256 of
# ``canonical_json({cells, checks, extra})`` per experiment at MANIFEST_ENV,
# keyed by CLI name (the hash excludes the name). Recorded at the commit
# before the one-evidence-path refactor, before any other edit, except
# ``columnar``: its parent payload carried wall-clock readings, so it is
# recorded after those keys (and the check gating them) were deleted — every
# key it shares with the parent's payload is equal. ``coordinator_recovery``
# was re-recorded when journal records were cut to the fields recovery reads
# (only its journal record and byte counts moved), and again when records
# took one fixed ``struct`` layout per kind in place of pickle (only its
# journal byte counts moved).
# A refactor must pass it unchanged; re-record a digest only when virtual
# behaviour or a shape check is meant to change, and say why in the PR.
# Tier-1 runs the entries under 1.5 s; CI runs all fifteen (``-m ""``) under
# PYTHONHASHSEED=0 and =random.
MANIFEST_ENV = BenchEnvironment(scale=8, edge_factor=16, servers=(2, 4), seed=1)
TIER1_MANIFEST = {
    "table1": "aff466fa0fac1b4158cf367ebf2993900ded0eb6c9c8d5d2a9d92664bb0a7f20",
    "fig7": "c71b32592a9a1cff056772544683e5da0ec55ba407518ce361d5fdefa68339e6",
    "fig8": "6caaea4f2c735e6d13d2b206d4136215a416e90193b2ec4ebd2ef955f8560dce",
    "fig9": "8edabb4d56317c1bcef8882fb0c824cddce224d732533e7376a7a17dce9bfdd2",
    "fig10": "000d2a1bd4d2b1635dd567ba072ce1fccaaccf68302d7f9815deb2ba574667b8",
    "fig11": "3ab7266d0d02993959c3c420723696cea5410a65505db72529ac7aa4c3656c4f",
    "concurrent": "91e8ab3856e1ef3dd742bc4534d7a57874096bf6cea6c024f8b01a3a27306f0b",
    "ablation_opts": "d1b1eae1e17817ae0ba6ff87a37880b71970f8aa0c138e4a96571d702940d25f",
    "ablation_partition": "8f840ebcb8f11b3d6af9a6cc033311564468df7342428e5983866acaed31993e",
}
SLOW_MANIFEST = {
    "table2": "f23ffbe3ceb8ce2d5c20969e03ea2c42306cd3976cba5cb701bc00bbe73cadc4",
    "table3": "c825f2ee1264b92b10bd9ea95a5e0d704142b717360a345bc74f6180d42fc16b",
    "ablation_layout": "fd8574805cc4c39005d6768c0bace261c7481c037eed3ef918dd472a6bb98838",
    "coordinator_recovery": "6ff4dcc3148a7539c1ad0b0ec49025bbef9074f1d9a8dbb31eae7ff933a6a033",
    "rebalance": "6365df438b583a50d59fcc0f78ec0d637a847eacae15413e418395f28498bfea",
    "columnar": "f8c68479725836684dc283d9aabf38b1950518727ed72015a7fc1eef79d7c678",
}


def test_env_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "9")
    monkeypatch.setenv("REPRO_BENCH_SERVERS", "2,4")
    monkeypatch.setenv("REPRO_BENCH_EDGE_FACTOR", "8")
    env = BenchEnvironment.from_env()
    assert env.scale == 9 and env.servers == (2, 4) and env.edge_factor == 8


def test_env_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_SERVERS", raising=False)
    env = BenchEnvironment.from_env()
    assert env.scale == 12 and len(env.servers) == 5


def test_graph_and_source_cached():
    g1 = rmat1_graph(TINY.scale, TINY.edge_factor)
    g2 = rmat1_graph(TINY.scale, TINY.edge_factor)
    assert g1 is g2
    src = rmat1_source(TINY.scale, TINY.edge_factor)
    assert g1.out_degree(src) >= 1


def test_run_cell_returns_stats():
    graph = rmat1_graph(TINY.scale, TINY.edge_factor)
    plan = kstep_plan(TINY, 3)
    cell = run_cell(graph, plan, EngineKind.GRAPHTREK, 2)
    assert cell.engine == "GraphTrek"
    assert cell.nservers == 2
    assert cell.elapsed > 0
    assert cell.real_io_visits > 0


def test_run_engine_comparison_covers_grid():
    graph = rmat1_graph(TINY.scale, TINY.edge_factor)
    plan = kstep_plan(TINY, 2)
    cells = run_engine_comparison(graph, plan, TINY.servers)
    assert len(cells) == len(TINY.servers) * 3
    lookup = cell_lookup(cells)
    assert ("Sync-GT", 2) in lookup and ("GraphTrek", 3) in lookup


def test_cells_payload_json_serializable():
    graph = rmat1_graph(TINY.scale, TINY.edge_factor)
    plan = kstep_plan(TINY, 2)
    cells = run_engine_comparison(graph, plan, (2,), engines=(EngineKind.SYNC,))
    payload = cells_payload(cells)
    text = json.dumps(payload)
    assert "Sync-GT" in text
    assert "per_server" not in text  # heavy field stripped


def test_fmt_time_units():
    assert fmt_time(2.5).strip() == "2.50 s"
    assert fmt_time(0.0123).strip() == "12.3 ms"


def test_engine_table_contains_rows_and_paper_refs():
    cells = [
        Cell("Sync-GT", 2, 1.0, 10, 0, 0, 5, 100, 3, 4),
        Cell("GraphTrek", 2, 0.8, 8, 1, 2, 6, 120, 0, 5),
    ]
    text = engine_table("T", cells, [2], ["Sync-GT", "GraphTrek"],
                        paper={("Sync-GT", 2): 47.8})
    assert "47.8s" in text and "1.00 s" in text and "800.0 ms" in text


def test_speedup_table_ratio():
    cells = [
        Cell("Sync-GT", 2, 2.0, 0, 0, 0, 0, 0, 0, 0),
        Cell("GraphTrek", 2, 1.0, 0, 0, 0, 0, 0, 0, 0),
    ]
    text = speedup_table("S", cells, [2], "Sync-GT", ["GraphTrek"])
    assert "0.500" in text


def test_visit_breakdown_table_totals():
    cell = Cell("GraphTrek", 2, 1.0, 3, 1, 2, 0, 0, 0, 0,
                per_server={0: {"real": 2, "combined": 1}, 1: {"real": 1, "redundant": 2}})
    text = visit_breakdown_table("V", cell)
    assert "TOTAL" in text
    assert "3" in text


def test_kv_table_and_banner():
    assert "a : 1" in kv_table("K", {"a": 1})
    assert "### hello ###" in banner("hello")


@pytest.mark.parametrize("name", ["table2", *TIER1_MANIFEST])
def test_cheap_experiments_run(name, monkeypatch, tmp_path):
    """Every cheap experiment runs at a tiny scale, traces every cell it
    reports and writes no file itself (saving is the reporter's job). Shape
    checks are scale-sensitive; only table2's fixed-size graph must pass
    them here."""
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    result = EXPERIMENTS[name](replace(TINY, trace=True))
    assert result.rendered and result.checks
    assert all(cell.trace["traceEvents"] for cell in result.cells)
    assert list(tmp_path.iterdir()) == []
    if name == "table2":
        assert result.all_passed, result.failed_checks()


def test_failed_checks_lists_only_the_failures():
    ok, bad = ShapeCheck("holds", True, ""), ShapeCheck("breaks", False, "why")
    result = ExperimentResult(checks=[ok, bad])
    assert not result.all_passed
    assert result.failed_checks() == [bad]


def test_every_registered_experiment_is_pinned():
    assert set(EXPERIMENTS) == set(TIER1_MANIFEST) | set(SLOW_MANIFEST)


@pytest.mark.parametrize(
    "name,digest",
    [
        *TIER1_MANIFEST.items(),
        *(
            pytest.param(name, digest, marks=pytest.mark.slow)
            for name, digest in SLOW_MANIFEST.items()
        ),
    ],
)
def test_artifact_manifest(name, digest, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    payload = EXPERIMENTS[name](MANIFEST_ENV).payload()
    assert set(payload) == {"cells", "checks", "extra"}
    got = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert got == digest, (
        f"{name}: payload digest drifted. Re-record it only when virtual "
        "behaviour or a shape check is meant to change, and state the "
        "reason in the PR."
    )
    assert list(tmp_path.iterdir()) == [], "experiments write no files"
