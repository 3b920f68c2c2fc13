"""Multi-tenant traversal scheduling: admission control, fair queueing and
deadline cancellation (DESIGN.md §11)."""

from repro.sched.policy import (
    POLICY_NAMES,
    FifoPolicy,
    PriorityPolicy,
    SchedPolicy,
    WfqPolicy,
    make_policy,
)
from repro.sched.scheduler import QueuedTravel, SchedulerConfig, TraversalScheduler

__all__ = [
    "POLICY_NAMES",
    "FifoPolicy",
    "PriorityPolicy",
    "SchedPolicy",
    "WfqPolicy",
    "make_policy",
    "QueuedTravel",
    "SchedulerConfig",
    "TraversalScheduler",
]
