"""Compiling a fault plan into deterministic per-message decisions.

The injector is the single injection point the runtimes consult for every
wire delivery. Determinism contract: exactly four uniform draws per decided
message, in a fixed order, from one seeded stream — so the decision sequence
is a pure function of (plan seed, message stream), and on the simulated
runtime the message stream itself is a pure function of the experiment seed.
Adding a new fault dimension must keep the draw count fixed or derive a new
named stream (:func:`repro.sim.rng.derive_seed`). The draws come from a
:func:`~repro.sim.rng.uniform_stream`, the same doubles as one
``uniform(0, 1, size=4)`` call per message without a numpy call per message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.rng import derive_seed, uniform_stream

#: Decision for one wire delivery. ``extra_delay`` is added to the network
#: latency; ``duplicates`` extra copies are delivered ``dup_spacing`` apart.


@dataclass(frozen=True)
class FaultDecision:
    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0
    dup_spacing: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.drop and self.duplicates == 0 and self.extra_delay == 0.0


CLEAN = FaultDecision()


def payload_type_name(msg) -> str:
    """The fault-plan key for a message: the payload's class name for
    reliable-channel data frames, ``"Ack"`` for ack frames, else the
    message's own class name."""
    payload = getattr(msg, "payload", None)
    if payload is not None:
        return type(payload).__name__
    name = type(msg).__name__
    return "Ack" if name == "AckFrame" else name


class FaultInjector:
    """Deterministic per-message fault decisions for one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._uniforms = uniform_stream(derive_seed(plan.seed, "faults.wire"))
        self.decisions = 0

    def decide(self, src, dst, msg) -> FaultDecision:
        spec: FaultSpec = self.plan.spec_for(payload_type_name(msg))
        self.decisions += 1
        # Fixed draw order keeps the stream aligned across message types.
        u = self._uniforms
        u_drop, u_dup, u_delay, u_reorder = next(u), next(u), next(u), next(u)
        if u_drop < spec.drop:
            return FaultDecision(drop=True)
        duplicates = 1 if u_dup < spec.duplicate else 0
        extra = 0.0
        if u_delay < spec.delay:
            extra += spec.delay_seconds
        if u_reorder < spec.reorder:
            # Reuse the reorder draw to place the message inside the window:
            # deterministic, and no extra draw that would shift the stream.
            extra += spec.reorder_window * (u_reorder / max(spec.reorder, 1e-12))
        return FaultDecision(
            duplicates=duplicates,
            extra_delay=extra,
            dup_spacing=spec.reorder_window if duplicates else 0.0,
        )
