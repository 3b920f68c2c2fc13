"""Tests for the telemetry-driven migration choice.

``select_migration`` is a pure function, pinned here against a hand-built
:class:`HotShardReport` fixture so the choice is exactly reproducible; the
live leg heats one server of a cluster, feeds its hot-shard report to
``select_migration`` and runs the choice with ``Cluster.rebalance`` — the
path the ``rebalance`` experiment takes — and checks that load moves off
the hot server without changing any answer.
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig
from repro.graph import GraphBuilder
from repro.lang import GTravel
from repro.obs.telemetry import HotShardReport
from repro.rebalance import MigrationConfig, select_migration


def pinned_report(hot=(0,)):
    """A fixed three-server report: server 0 hot, server 2 coolest."""
    return HotShardReport(
        clock=10.0,
        window_width=1.0,
        servers=[
            {"server": 0, "exec_rate": 12.0, "inflight": 4, "score": 5.25},
            {"server": 1, "exec_rate": 2.0, "inflight": 0, "score": 0.9},
            {"server": 2, "exec_rate": 1.0, "inflight": 0, "score": 0.4},
        ],
        ranked=[0, 1, 2],
        hot=list(hot),
    )


LOADS = {0: [0, 3, 6, 9, 12, 15], 1: [1, 4, 7], 2: [2, 5, 8]}


# -- select_migration: deterministic choice from a pinned fixture --------------


def test_selection_from_pinned_report_is_deterministic():
    choice = select_migration(pinned_report(), LOADS)
    assert choice is not None
    assert choice.src == 0
    assert choice.dst == 2, "target must be the coolest server, not next-hot"
    # fraction 0.5 of six vertices, lowest-keyed prefix
    assert choice.vids == (0, 3, 6)
    assert choice.key_range == (0, 7)
    # pure function: same inputs, same choice
    assert select_migration(pinned_report(), LOADS) == choice


def test_fraction_and_cap_bound_the_move():
    assert select_migration(pinned_report(), LOADS, fraction=0.99).vids == (
        0,
        3,
        6,
        9,
        12,
    )
    assert select_migration(
        pinned_report(), LOADS, fraction=0.99, max_vertices=2
    ).vids == (0, 3)
    # a tiny fraction still moves at least one vertex
    assert select_migration(pinned_report(), LOADS, fraction=0.01).vids == (0,)


def test_no_hot_server_means_no_move_unless_forced():
    report = pinned_report(hot=())
    assert select_migration(report, LOADS) is None
    forced = select_migration(report, LOADS, require_hot=False)
    assert forced is not None and forced.src == 0, (
        "require_hot=False falls back to the top-ranked server"
    )


def test_empty_or_missing_source_loads_are_skipped():
    # hot server has nothing local to move: fall through to the next one
    loads = {0: [], 1: [1, 4, 7], 2: [2, 5, 8]}
    choice = select_migration(pinned_report(hot=(0, 1)), loads)
    assert choice is not None and choice.src == 1
    # nothing anywhere: no move
    assert select_migration(pinned_report(), {0: []}) is None


def test_single_server_report_is_never_actionable():
    report = HotShardReport(
        clock=0.0,
        window_width=1.0,
        servers=[{"server": 0, "exec_rate": 5.0, "inflight": 1, "score": 9.0}],
        ranked=[0],
        hot=[0],
    )
    assert select_migration(report, {0: [1, 2, 3]}) is None


# -- select, then rebalance, on a live cluster -------------------------------------


def chain_graph():
    b = GraphBuilder()
    vids = [b.vertex("n") for _ in range(30)]
    for i in range(29):
        b.edge(vids[i], vids[i + 1], "link")
    return b.build(), vids


def skewed_cluster():
    graph, vids = chain_graph()
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            journal=True,
            migration=MigrationConfig(chunk_vertices=4, dual_window=0.01),
        ),
    )
    return cluster, vids


def heat(cluster, server, vids, n=8):
    """Pin real traversal work onto one server: starts it owns, a label
    that never matches, so no expansion leaves it."""
    mine = [v for v in vids if cluster.routing.owner(v) == server]
    for v in mine[:n]:
        cluster.traverse(GTravel.v(v).e("__no_such_label__"), cold=False)


def test_rebalancer_moves_load_off_the_hot_server():
    cluster, vids = skewed_cluster()
    hot = cluster.routing.owner(vids[0])
    heat(cluster, hot, vids)
    report = cluster.hot_shard_report()
    assert report.hottest == hot
    loads = {
        s.server_id: sorted(s.store.local_vertices()) for s in cluster.servers
    }
    before = len(loads[hot])

    choice = select_migration(report, loads, require_hot=False)
    assert choice is not None and choice.src == hot
    state = cluster.rebalance(choice.src, choice.dst, vids=choice.vids)
    assert state.phase == "done", state.abort_reason
    assert state.src == hot and state.vids == choice.vids
    after = len(cluster.servers[hot].store.local_vertices())
    assert after == before - len(state.vids) and len(state.vids) > 0
    # answers survive the move
    fresh = Cluster.build(chain_graph()[0], ClusterConfig(nservers=3))
    for v in vids[:6]:
        got = cluster.traverse(GTravel.v(v).e("link"), cold=False)
        want = fresh.traverse(GTravel.v(v).e("link"), cold=False)
        assert sorted(got.result.vertices) == sorted(want.result.vertices)
    assert cluster.migrator.active_count == 0
    assert cluster.migrator.leaked_state() == []
