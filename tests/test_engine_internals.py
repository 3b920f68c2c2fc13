"""Tests for engine internals: anchors, cache, tracing, registry, options."""

import pytest

from repro.engine import (
    EngineKind,
    TravelRegistry,
    TraversalAffiliateCache,
    analyze_sources,
    graphtrek_options,
    options_for,
    plain_async_options,
    sync_options,
)
from repro.engine.frontier import (
    EMPTY_ANCHORS,
    anchors_covered,
    anchors_union,
    extend_anchors,
    intermediate_rtn_levels,
    merge_entries,
    merge_entry,
)
from repro.engine.statistics import StatsBoard
from repro.engine.tracing import ExecTracker
from repro.errors import TraversalError
from repro.lang import EQ, GTravel
from repro.net.message import ExecStatus


# -- frontier / anchors ------------------------------------------------------

def test_anchor_union_and_extend():
    a = (frozenset({1}),)
    b = (frozenset({2}),)
    assert anchors_union(a, b) == (frozenset({1, 2}),)
    assert anchors_union(EMPTY_ANCHORS, a) == a
    assert extend_anchors(a, 7) == (frozenset({1}), frozenset({7}))


def test_anchors_covered_semantics():
    small = (frozenset({1}),)
    big = (frozenset({1, 2}),)
    assert anchors_covered(small, big)
    assert not anchors_covered(big, small)
    assert anchors_covered(EMPTY_ANCHORS, EMPTY_ANCHORS)
    assert not anchors_covered(small, EMPTY_ANCHORS)  # length mismatch


def test_merge_entry_unions_anchors():
    entries = {}
    merge_entry(entries, 5, (frozenset({1}),))
    merge_entry(entries, 5, (frozenset({2}),))
    assert entries[5] == (frozenset({1, 2}),)


def test_merge_entries_bulk():
    dst = {1: EMPTY_ANCHORS}
    merge_entries(dst, {2: EMPTY_ANCHORS, 1: EMPTY_ANCHORS})
    assert set(dst) == {1, 2}


def test_intermediate_rtn_levels():
    plan = GTravel.v(1).rtn().e("a").rtn().e("b").rtn().compile()
    assert intermediate_rtn_levels(plan) == (0, 1)  # final (2) excluded


# -- traversal-affiliate cache --------------------------------------------------

def test_cache_lookup_insert():
    cache = TraversalAffiliateCache(10)
    assert cache.lookup("t1", 0, 5) is None
    cache.insert("t1", 0, 5, EMPTY_ANCHORS)
    assert cache.lookup("t1", 0, 5) == EMPTY_ANCHORS
    assert cache.hits == 1 and cache.misses == 1


def test_cache_reinsert_merges_anchors():
    cache = TraversalAffiliateCache(10)
    cache.insert("t", 1, 5, (frozenset({1}),))
    cache.insert("t", 1, 5, (frozenset({2}),))
    assert cache.lookup("t", 1, 5) == (frozenset({1, 2}),)
    assert len(cache) == 1


def test_cache_evicts_smallest_step_first():
    """Time-based replacement (§V-A): smallest step ids go first."""
    cache = TraversalAffiliateCache(3)
    cache.insert("t", 1, 10, EMPTY_ANCHORS)
    cache.insert("t", 2, 20, EMPTY_ANCHORS)
    cache.insert("t", 3, 30, EMPTY_ANCHORS)
    cache.insert("t", 4, 40, EMPTY_ANCHORS)  # evicts the level-1 entry
    assert cache.lookup("t", 1, 10) is None
    assert cache.lookup("t", 4, 40) is not None
    assert cache.evictions == 1


def test_cache_evicts_other_travel_when_inserter_empty():
    cache = TraversalAffiliateCache(2)
    cache.insert("t1", 5, 1, EMPTY_ANCHORS)
    cache.insert("t1", 6, 2, EMPTY_ANCHORS)
    cache.insert("t2", 0, 3, EMPTY_ANCHORS)
    assert len(cache) == 2
    assert cache.lookup("t2", 0, 3) is not None


def test_cache_forget_travel():
    cache = TraversalAffiliateCache(10)
    cache.insert(("t", 0), 1, 1, EMPTY_ANCHORS)
    cache.insert(("t", 0), 2, 2, EMPTY_ANCHORS)
    cache.insert(("u", 0), 1, 3, EMPTY_ANCHORS)
    cache.forget_travel_prefix("t")
    assert len(cache) == 1
    assert cache.lookup(("u", 0), 1, 3) is not None


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        TraversalAffiliateCache(0)


# -- exec tracker ----------------------------------------------------------------

def status(eid, created=(), results=0, attempt=0):
    return ExecStatus(1, exec_id=eid, server=0, created=tuple(created),
                      results_sent=results, attempt=attempt)


def test_tracker_simple_lifecycle():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0)], now=0.0)
    assert not tr.complete
    tr.on_status(status(1, created=[(2, 1, 1)]), now=1.0)
    assert not tr.complete
    tr.on_status(status(2), now=2.0)
    assert tr.complete
    assert tr.created_total == 2 and tr.terminated_total == 2


def test_tracker_results_accounting():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0)], now=0.0)
    tr.on_status(status(1, results=2), now=1.0)
    assert not tr.complete  # two result messages still in flight
    tr.on_result(now=2.0)
    tr.on_result(now=2.5)
    assert tr.complete


def test_tracker_handles_termination_before_creation():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0)], now=0.0)
    tr.on_status(status(2), now=0.5)  # child reports before parent's status
    assert not tr.complete
    tr.on_status(status(1, created=[(2, 1, 1)]), now=1.0)
    assert tr.complete


def test_tracker_ignores_stale_attempt():
    tr = ExecTracker(attempt=1)
    tr.register_initial([(1, 0, 0)], now=0.0)
    tr.on_status(status(1, attempt=0), now=1.0)  # from failed attempt 0
    assert not tr.complete
    tr.on_status(status(1, attempt=1), now=2.0)
    assert tr.complete


def test_tracker_progress_by_level():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0), (2, 1, 0)], now=0.0)
    tr.on_status(status(1, created=[(3, 2, 1), (4, 3, 1)]), now=1.0)
    assert tr.progress() == {0: 1, 1: 2}


def test_tracker_idle_tracking():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0)], now=5.0)
    assert tr.idle_for(11.0) == 6.0
    tr.on_status(status(1), now=12.0)
    assert tr.idle_for(13.0) == 1.0


def test_tracker_snapshot():
    tr = ExecTracker()
    tr.register_initial([(1, 0, 0)], now=0.0)
    snap = tr.snapshot()
    assert snap["created"] == 1 and snap["pending"] == 1


# -- registry ------------------------------------------------------------------------

def test_registry_register_get_unregister():
    reg = TravelRegistry()
    plan = GTravel.v(1).e("a").compile()
    entry = reg.register(10, plan)
    assert reg.get(10) is entry
    assert entry.attempt == 0
    reg.unregister(10)
    assert reg.get(10) is None


def test_registry_duplicate_rejected():
    reg = TravelRegistry()
    plan = GTravel.v(1).compile()
    reg.register(1, plan)
    with pytest.raises(TraversalError):
        reg.register(1, plan)


def test_registry_bump_attempt():
    reg = TravelRegistry()
    reg.register(1, GTravel.v(1).compile())
    assert reg.bump_attempt(1) == 1
    assert reg.get(1).attempt == 1


def test_analyze_sources_type_index():
    plan = GTravel.v().va("type", EQ, "File").va("kind", EQ, "text").compile()
    info = analyze_sources(plan)
    assert info.index_type == "File"
    assert len(info.reduced_filters) == 1
    assert info.reduced_filters.filters[0].key == "kind"


def test_analyze_sources_no_type_filter():
    plan = GTravel.v().va("kind", EQ, "text").compile()
    info = analyze_sources(plan)
    assert info.index_type is None
    assert len(info.reduced_filters) == 1


# -- options ---------------------------------------------------------------------------

def test_option_presets():
    gt = graphtrek_options()
    assert gt.cache_enabled and gt.merge_enabled and gt.priority_schedule
    pa = plain_async_options()
    assert not (pa.cache_enabled or pa.merge_enabled or pa.priority_schedule)
    sy = sync_options()
    assert sy.kind is EngineKind.SYNC
    assert gt.kind is EngineKind.GRAPHTREK and pa.kind is EngineKind.ASYNC


def test_options_for_lookup_and_overrides():
    opts = options_for(EngineKind.GRAPHTREK, workers=2)
    assert opts.workers == 2 and opts.kind is EngineKind.GRAPHTREK
    with pytest.raises(ValueError):
        options_for(EngineKind.REFERENCE)


# -- stats board ---------------------------------------------------------------------------

def test_stats_board_accumulates():
    board = StatsBoard(EngineKind.GRAPHTREK)
    board.visit(1, server=0, kind="real", n=2)
    board.visit(1, server=1, kind="redundant")
    board.message(1, 100)
    st = board.stats(1)
    assert st.real_io_visits == 2 and st.redundant_visits == 1
    assert st.messages == 1 and st.bytes_sent == 100
    assert st.total_visits == 3
    assert st.per_server == {0: {"real": 2}, 1: {"redundant": 1}}


def test_stats_board_reset_keeps_restarts():
    board = StatsBoard(EngineKind.ASYNC)
    st = board.stats(1)
    st.restarts = 2
    board.visit(1, 0, "real")
    board.reset(1)
    st2 = board.stats(1)
    assert st2.real_io_visits == 0 and st2.restarts == 2


def test_stats_board_pop():
    board = StatsBoard(EngineKind.SYNC)
    board.visit(1, 0, "real")
    st = board.pop(1)
    assert st.real_io_visits == 1
    assert board.pop(1).real_io_visits == 0  # fresh default


def test_stats_invalid_visit_kind():
    board = StatsBoard(EngineKind.SYNC)
    with pytest.raises(ValueError):
        board.visit(1, 0, "bogus")
