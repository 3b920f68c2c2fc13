"""Shared benchmark fixtures.

``pytest benchmarks/ --benchmark-only`` regenerates every table and figure of
the paper's evaluation section. Wall-clock time of each simulation run is
what pytest-benchmark reports; the paper's metric — simulated elapsed
traversal time — is printed in paper-style tables and saved as JSON under
``benchmarks/results/``.

Scale knobs: REPRO_BENCH_SCALE / REPRO_BENCH_EDGE_FACTOR / REPRO_BENCH_SERVERS.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchEnvironment, metrics_payload, save_results
from repro.obs.exporter import validate_snapshot


@pytest.fixture(scope="session")
def env() -> BenchEnvironment:
    return BenchEnvironment.from_env()


@pytest.fixture()
def report_experiment():
    """Fixture returning the report/assert helper (benchmarks/ is not a
    package, so the helper travels through a fixture instead of an import)."""
    return _report_experiment


def _report_experiment(result, benchmark=None) -> None:
    """Print the paper-style table, persist JSON, and assert shape checks."""
    print()
    print(result.rendered)
    print()
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    save_results(result.experiment, result.payload())
    snapshots = metrics_payload(result.cells)
    if snapshots:
        save_results(result.experiment + "_metrics", snapshots)
        # NaN/inf anywhere in a snapshot means broken instrumentation;
        # empty histograms are tolerated here (tiny cells may skip paths)
        # and caught strictly by the tier-1 smoke test instead.
        for cell_name, snap in snapshots.items():
            nan_problems = [
                p for p in validate_snapshot(snap) if "is empty" not in p
            ]
            assert not nan_problems, (
                f"metrics snapshot {cell_name}: " + "; ".join(nan_problems)
            )
    if benchmark is not None:
        for cell in result.cells:
            benchmark.extra_info.setdefault("cells", []).append(
                {"engine": cell.engine, "servers": cell.nservers, "elapsed_s": cell.elapsed}
            )
    failed = result.failed_checks()
    assert not failed, "shape checks failed: " + "; ".join(
        f"{c.name} ({c.detail})" for c in failed
    )
