"""Elastic scale-out: online shard rebalancing under live traffic.

The partition layer assigns vertices to servers once, at build time; this
package makes ownership *mutable* while traversals run:

* :class:`~repro.rebalance.routing.RoutingTable` — the coordinator's
  versioned ownership map. Every routing decision in the cluster (engine
  forwards, coordinator dispatch, live ingest) goes through it; migrations
  mutate it in atomic, monotonically versioned steps.
* :class:`~repro.rebalance.migrate.ShardMigrator` — moves a vertex set (or
  key range) from one server to another in phases: snapshot-copy over the
  wire (paced through the admission scheduler as a low-priority tenant),
  a double-routing window where the coordinator dispatches to both owners,
  an atomic journaled cutover, and a drained source drop.
* :func:`~repro.rebalance.policy.select_migration` — a pure, deterministic
  choice of source, target and vertex set from
  ``Cluster.hot_shard_report()``, for :meth:`Cluster.rebalance` to run.

See DESIGN.md §15 for the migration protocol and its crash matrix.
"""

from repro.rebalance.migrate import MigrationConfig, MigrationState, ShardMigrator
from repro.rebalance.policy import MigrationChoice, select_migration
from repro.rebalance.routing import RoutingTable

__all__ = [
    "MigrationChoice",
    "MigrationConfig",
    "MigrationState",
    "RoutingTable",
    "ShardMigrator",
    "select_migration",
]
