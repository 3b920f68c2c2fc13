"""The execution runtime: the single-threaded virtual-time simulator."""

from repro.runtime.simulated import InterferencePolicy, SimRuntime, SimServerContext

__all__ = [
    "InterferencePolicy",
    "SimRuntime",
    "SimServerContext",
]
