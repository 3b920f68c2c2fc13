"""Deterministic fault injection: seeded fault plans, per-message decisions,
and the chaos harness that checks traversals survive them.

The chaos harness lives in :mod:`repro.faults.chaos` and is imported
explicitly (``from repro.faults.chaos import chaos_check``): one differential
check for one query or many, whose every run also audits the cluster for
leaked state (``leaked_state``). It sits *above* the cluster layer, so
pulling it into this package ``__init__`` would cycle the import graph
(chaos → cluster → faults)."""

from repro.faults.inject import CLEAN, FaultDecision, FaultInjector, payload_type_name
from repro.faults.plan import CrashEvent, FaultPlan, FaultSpec, sample_fault_plan

__all__ = [
    "CLEAN",
    "CrashEvent",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "payload_type_name",
    "sample_fault_plan",
]
