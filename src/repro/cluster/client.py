"""Client facade: the user-side entry point the paper's Fig. 2(b) shows.

A thin convenience over :class:`~repro.cluster.cluster.Cluster` that keeps a
submission history and exposes paper-style helpers. All heavy lifting is
server-side; the client only ships the GTravel instance and waits for the
reply (that asymmetry is the point of server-side traversal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cluster.cluster import Cluster
from repro.engine.base import TraversalOutcome
from repro.ids import TravelId
from repro.lang.gtravel import GTravel, union_results
from repro.lang.plan import TraversalPlan


@dataclass
class SubmissionRecord:
    travel_id: TravelId
    plan: TraversalPlan
    outcome: Optional[TraversalOutcome] = None


@dataclass
class GraphTrekClient:
    """A client session against one cluster."""

    cluster: Cluster
    history: list[SubmissionRecord] = field(default_factory=list)
    #: idempotency key -> (travel_id, completion event) of the attempt that
    #: owns the key; see :meth:`submit_idempotent`
    sessions: dict = field(default_factory=dict)

    def query(
        self,
        query: Union[GTravel, TraversalPlan],
        *,
        cold: bool = False,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> TraversalOutcome:
        """Submit a traversal and block until the result returns.

        ``cold=True`` drops every server's block cache first, as
        :meth:`Cluster.traverse` does. QoS attributes pass straight to the
        scheduler: ``tenant`` for fair queueing, ``priority`` for the
        priority policy, ``deadline`` (seconds) for cancellation — which
        surfaces here as :class:`~repro.errors.TraversalCancelled`."""
        plan = query.compile() if isinstance(query, GTravel) else query
        if cold:
            self.cluster.cold_start()
        travel_id, event = self.cluster.submit(
            plan, tenant=tenant, priority=priority, deadline=deadline
        )
        outcome = self.cluster.runtime.run_until_complete(event)
        self.history.append(
            SubmissionRecord(travel_id=travel_id, plan=plan, outcome=outcome)
        )
        return outcome

    def submit_idempotent(
        self,
        query: Union[GTravel, TraversalPlan],
        *,
        key: str,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> tuple[TravelId, object]:
        """Submit with at-most-once semantics per idempotency ``key``.

        A key always maps to its first submission: a repeat call returns
        the original ``(travel_id, event)``, whether it is still running or
        already finished. A submission is acknowledged only once its
        journal ``admit`` record is durable, and recovery resumes or
        readmits every acknowledged travel, so a client retrying across a
        coordinator crash joins the recovered travel instead of running it
        twice (DESIGN.md §13).
        """
        if key not in self.sessions:
            plan = query.compile() if isinstance(query, GTravel) else query
            self.sessions[key] = self.cluster.submit(
                plan, tenant=tenant, priority=priority, deadline=deadline
            )
        return self.sessions[key]

    def profile(
        self, query: Union[GTravel, TraversalPlan], *, cold: bool = False
    ):
        """Run a traversal with the flight recorder on and return its
        :class:`~repro.obs.explain.ProfileReport` (the Gremlin-style
        ``profile()`` step). The outcome joins the history as usual; a
        traversal that fails terminally still yields a report whose trace
        ends in the ``travel.failed`` event."""
        outcome, report = self.cluster.profile(query, cold=cold)
        if outcome is not None:
            plan = query.compile() if isinstance(query, GTravel) else query
            self.history.append(
                SubmissionRecord(
                    travel_id=outcome.result.travel_id, plan=plan, outcome=outcome
                )
            )
        return report

    def query_union(self, *queries: Union[GTravel, TraversalPlan]) -> tuple[int, ...]:
        """OR-composition helper: run each traversal, union returned vertices
        (the paper's workaround for the missing OR filter). Returns the
        canonical sorted tuple so reruns are byte-identical; prefer the
        server-side ``union(...)`` operator for new code."""
        outcomes = [self.query(q) for q in queries]
        return union_results(*(o.result.vertices for o in outcomes))

    def last_stats(self):
        if not self.history or self.history[-1].outcome is None:
            return None
        return self.history[-1].outcome.stats
