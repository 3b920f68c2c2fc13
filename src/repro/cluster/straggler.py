"""External-interference injection (paper §VII-C).

The paper emulates transient stragglers "by inserting fixed (50 ms) delay
into individual vertex data accesses. Each time, multiple delays (500 times
...) were created to emulate a straggler that lasts a certain period of
time", with three stragglers placed on three selected servers at steps 1, 3
and 7, chosen round-robin.

:class:`ExternalInterference` reproduces that: a budget of delayed accesses
per (server, traversal step). Being deterministic, both engines face exactly
the same injected delays, as the paper requires for fairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ids import ServerId


@dataclass
class StragglerSpec:
    """One transient straggler: ``count`` accesses on ``server`` during
    traversal step ``level`` are slowed by ``delay`` seconds each."""

    server: ServerId
    level: int
    delay: float = 0.050
    count: int = 500


class ExternalInterference:
    """An :class:`~repro.runtime.simulated.InterferencePolicy` built from specs."""

    def __init__(self, specs: Sequence[StragglerSpec]):
        self._budget: dict[tuple[ServerId, int], list] = {}
        self.specs = list(specs)
        for spec in specs:
            key = (spec.server, spec.level)
            entry = self._budget.setdefault(key, [0.0, 0])
            entry[0] = spec.delay
            entry[1] += spec.count
        self.injected = 0
        self._metrics = None

    def bind_metrics(self, metrics) -> None:
        """Report each injected delay to the cluster's metrics registry."""
        self._metrics = metrics

    def delay(self, server: ServerId, level: Optional[int]) -> float:
        if level is None:
            return 0.0
        entry = self._budget.get((server, level))
        if entry is None or entry[1] <= 0:
            return 0.0
        entry[1] -= 1
        self.injected += 1
        if self._metrics is not None:
            self._metrics.count(
                "straggler.injected_delays", server=server, level=level
            )
        return entry[0]

    def remaining(self) -> int:
        return sum(entry[1] for entry in self._budget.values())


def paper_interference(
    servers: Sequence[ServerId] = (0, 1, 2),
    levels: Sequence[int] = (1, 3, 7),
    delay: float = 0.050,
    count: int = 500,
) -> ExternalInterference:
    """The Fig. 11 configuration: three stragglers on three selected servers
    at steps 1, 3 and 7, one server per step, chosen round-robin."""
    specs = [
        StragglerSpec(server=servers[i % len(servers)], level=level, delay=delay, count=count)
        for i, level in enumerate(levels)
    ]
    return ExternalInterference(specs)
