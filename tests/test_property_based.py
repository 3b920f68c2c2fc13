"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.cache import TraversalAffiliateCache
from repro.engine.frontier import anchors_covered, anchors_union, merge_entry
from repro.lang import EQ, IN, RANGE, FilterSet, PropertyFilter
from repro.storage import (
    TOMBSTONE,
    BloomFilter,
    LSMConfig,
    LSMStore,
    SSTable,
    merge_runs,
)
from repro.storage import encoding as enc
from repro.storage.sstable import BLOOM_FP_RATE

# -- value / props codec ------------------------------------------------------

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)


@given(scalar)
def test_value_codec_roundtrip(value):
    packed = enc.pack_value(value)
    out, offset = enc.unpack_value(packed)
    assert out == value and offset == len(packed)


@given(st.dictionaries(st.text(min_size=1, max_size=12), scalar, max_size=8))
def test_props_codec_roundtrip(props):
    out, _ = enc.unpack_props(enc.pack_props(props))
    assert out == props


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.text(min_size=1, max_size=8).filter(lambda s: "\x00" not in s))
def test_attr_key_roundtrip(vid, prop):
    ns, vid2, prop2 = enc.parse_attr_key(enc.attr_key("T", vid, prop))
    assert (ns, vid2, prop2) == ("T", vid, prop)


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=2, max_size=20,
                unique=True))
def test_vertex_key_order_matches_id_order(vids):
    keys = [enc.vertex_prefix("T", v) for v in vids]
    assert sorted(keys) == [enc.vertex_prefix("T", v) for v in sorted(vids)]


@given(st.binary(min_size=1, max_size=16).filter(lambda b: b != b"\xff" * len(b)))
def test_prefix_end_is_tight_upper_bound(prefix):
    end = enc.prefix_end(prefix)
    assert prefix < end
    assert (prefix + b"\xff" * 4) < end


# -- LSM store: model-based against a dict ------------------------------------------

#: the storage properties run derandomized (the same examples every run) and
#: without the wall-clock deadline, as the columnar codec suite does
STORAGE_FIXED = settings(derandomize=True, deadline=None, max_examples=60)

keys_ = st.binary(min_size=1, max_size=2)  # a small key space: scans see the writes

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys_, st.binary(max_size=10)),
        st.tuples(st.just("del"), keys_),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("get"), keys_),
        st.tuples(st.just("scan"), st.binary(max_size=2), st.binary(max_size=2)),
    ),
    max_size=60,
)


@given(ops)
@STORAGE_FIXED
def test_lsm_matches_dict_model(operations):
    """Every get and scan agrees with a dict as the writes happen, so a
    memtable that keeps its key order across writes between scans, flushes
    and compactions is checked at each step, not only at the end."""
    store = LSMStore(LSMConfig(memtable_flush_bytes=256, max_sstables=3))
    model: dict[bytes, bytes] = {}
    for op in operations:
        if op[0] == "put":
            store.put(op[1], op[2])
            model[op[1]] = op[2]
        elif op[0] == "del":
            store.delete(op[1])
            model.pop(op[1], None)
        elif op[0] == "flush":
            store.flush()
        elif op[0] == "compact":
            store.compact()
        elif op[0] == "get":
            assert store.get(op[1])[0] == model.get(op[1])
        else:
            lo, hi = op[1], op[2]
            items, _ = store.scan(lo, hi)
            assert items == sorted((k, v) for k, v in model.items() if lo <= k < hi)
    for key, expected in model.items():
        assert store.get(key)[0] == expected
    items, _ = store.scan(b"", b"\xff" * 8)
    assert items == sorted(model.items())


#: runs of unique keys, values bytes or TOMBSTONE, each run sorted
runs_ = st.lists(
    st.dictionaries(
        st.binary(max_size=3), st.one_of(st.binary(max_size=4), st.just(TOMBSTONE)),
        max_size=12,
    ).map(lambda d: sorted(d.items())),
    max_size=5,
)


@given(runs_)
@STORAGE_FIXED
def test_merge_runs_matches_newest_wins_model(runs):
    newest: dict[bytes, object] = {}
    for run in runs:  # newest first: the first writer of a key wins
        for key, value in run:
            newest.setdefault(key, value)
    want = sorted(newest.items(), key=lambda kv: kv[0])
    assert merge_runs(runs, drop_tombstones=False) == want
    assert merge_runs(runs, drop_tombstones=True) == [
        (k, v) for k, v in want if v is not TOMBSTONE
    ]


@given(
    st.sets(st.binary(max_size=4), min_size=1, max_size=40),
    st.lists(st.binary(max_size=4), max_size=40),
)
@STORAGE_FIXED
def test_lazy_bloom_filter_answers_like_an_eager_one(keys, probes):
    """An SSTable's filter, built by its first in-range probe, answers and
    counts exactly like one built over the same keys up front."""
    keys = sorted(keys)
    table = SSTable([(k, b"") for k in keys])
    eager = BloomFilter(len(keys), BLOOM_FP_RATE)
    eager.update(keys)
    for key in probes:
        in_range = keys[0] <= key <= keys[-1]
        assert table.may_contain(key) == (in_range and key in eager)
    if table.bloom is None:
        assert eager.probes == 0
    else:
        assert (table.bloom.probes, table.bloom.negatives) == (
            eager.probes, eager.negatives,
        )
        assert table.bloom._bits == eager._bits


# -- filters ----------------------------------------------------------------------------

@given(st.integers(), st.integers(), st.integers())
def test_range_filter_agrees_with_python(lo, hi, x):
    lo, hi = min(lo, hi), max(lo, hi)
    f = PropertyFilter("k", RANGE, (lo, hi))
    assert f.matches({"k": x}) == (lo <= x <= hi)


@given(st.sets(st.integers(), max_size=10), st.integers())
def test_in_filter_agrees_with_python(values, x):
    f = PropertyFilter("k", IN, values)
    assert f.matches({"k": x}) == (x in values)


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
                max_size=5),
       st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 3), max_size=3))
def test_filterset_is_conjunction(filter_specs, props):
    filters = [PropertyFilter(k, EQ, v) for k, v in filter_specs]
    fs = FilterSet.of(filters)
    assert fs.matches(props) == all(f.matches(props) for f in filters)


# -- anchors -------------------------------------------------------------------------------

anchor_sets = st.lists(
    st.frozensets(st.integers(0, 20), max_size=5), min_size=0, max_size=3
).map(tuple)


@given(anchor_sets, anchor_sets)
def test_anchor_union_commutative_and_covering(a, b):
    if len(a) != len(b) and a and b:
        return  # unions only defined for same-shape anchors
    u = anchors_union(a, b)
    u2 = anchors_union(b, a)
    assert u == u2
    if len(a) == len(b):
        assert anchors_covered(a, u)
        assert anchors_covered(b, u)


@given(anchor_sets)
def test_anchor_covered_reflexive(a):
    assert anchors_covered(a, a)


@given(anchor_sets, anchor_sets, anchor_sets)
def test_anchor_covered_transitive(a, b, c):
    if anchors_covered(a, b) and anchors_covered(b, c):
        assert anchors_covered(a, c)


@given(st.lists(st.tuples(st.integers(0, 5), anchor_sets), max_size=20))
def test_merge_entry_idempotent_under_coverage(items):
    entries = {}
    for vid, anchors in items:
        merge_entry(entries, vid, anchors)
    # merging everything again must not change the result
    snapshot = dict(entries)
    for vid, anchors in items:
        merge_entry(entries, vid, anchors)
    assert entries == snapshot


# -- traversal-affiliate cache -----------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 10)),
                max_size=80),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_cache_size_invariants(inserts, capacity):
    cache = TraversalAffiliateCache(capacity)
    for travel, level, vid in inserts:
        cache.insert(travel, level, vid, ())
        assert len(cache) <= capacity
    # every cached triple is findable; lookups never crash
    for travel, level, vid in inserts:
        cache.lookup(travel, level, vid)


# -- traversal-operator reductions --------------------------------------------

from repro.lang.gtravel import union_results
from repro.lang.plan import AggregateSpec, canonical_groups, reduce_aggregate


@given(st.lists(st.lists(st.integers(0, 40), max_size=8), max_size=5))
def test_union_results_is_canonical_and_order_insensitive(parts):
    out = union_results(*parts)
    flat = set().union(*map(set, parts)) if parts else set()
    assert out == tuple(sorted(flat))
    assert union_results(*reversed(parts)) == out


@given(
    st.dictionaries(
        st.integers(0, 30),
        st.one_of(st.none(), st.integers(0, 3), st.text(max_size=4)),
        max_size=20,
    )
)
def test_reduce_aggregate_group_count_is_exact_and_idempotent(keys):
    spec = AggregateSpec(kind="group_count", by="color")
    final = frozenset(keys)
    agg = reduce_aggregate(spec, final, keys)
    assert agg.total == len(final)
    assert sum(n for _, n in agg.groups) == len(final)
    assert reduce_aggregate(spec, final, keys) == agg  # idempotent
    # groups are already in canonical order
    assert agg.groups == canonical_groups(dict(agg.groups).items())


@given(st.sets(st.integers(0, 50), max_size=25))
def test_reduce_aggregate_count_is_set_cardinality(final):
    agg = reduce_aggregate(AggregateSpec(kind="count"), frozenset(final), {})
    assert agg.total == len(final)
    assert agg.groups == ()


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 5), st.text(max_size=3)),
            st.integers(1, 9),
        ),
        max_size=10,
        unique_by=lambda kv: str(kv[0]) + repr(kv[0] is None),
    )
)
def test_canonical_groups_is_permutation_invariant(items):
    assert canonical_groups(items) == canonical_groups(list(reversed(items)))
    # None buckets sort last
    ordered = canonical_groups(items)
    if any(k is None for k, _ in ordered):
        assert ordered[-1][0] is None
