"""Grouped edge, ``~label`` and attribute reads build their scan range from
parts cached per (namespace, label): the range must be the one
``edges_prefix`` / ``attrs_prefix`` + ``prefix_end`` give, for any vertex id
(0 and 2^64-1 included), any label (multi-byte UTF-8, ``~label``) and any
namespace, including one first seen by a live insert. A NUL in a label still
raises :class:`~repro.errors.StorageError` on every read, and the range
functions reject a NUL in a namespace too.

Runs under a fixed, derandomized hypothesis profile.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import encoding as enc
from repro.storage.layout import GraphStore

RANGE_FIXED = settings(derandomize=True, deadline=None, max_examples=150)

MAX_ID = 2**64 - 1
names = st.text(min_size=1, max_size=12).filter(lambda s: "\x00" not in s)
vids = st.one_of(st.sampled_from((0, 1, 255, 2**63, MAX_ID)), st.integers(0, MAX_ID))


def _expected(prefix: bytes) -> tuple[bytes, bytes]:
    return prefix, enc.prefix_end(prefix)


@RANGE_FIXED
@given(ns=names, label=names, vid=vids, reverse=st.booleans())
def test_cached_parts_give_the_prefix_range(ns, label, vid, reverse):
    if reverse:
        ns, label = "~" + ns, "~" + label
    head, start, end = enc.edges_range(ns, label)
    vertex = head + enc.VID.pack(vid)
    assert (vertex + start, vertex + end) == _expected(enc.edges_prefix(ns, vid, label))
    head, start, end = enc.attrs_range(ns)
    vertex = head + enc.VID.pack(vid)
    assert (vertex + start, vertex + end) == _expected(enc.attrs_prefix(ns, vid))


def _recording(store: GraphStore) -> list[tuple[bytes, bytes]]:
    seen: list[tuple[bytes, bytes]] = []
    scan = store.kv.scan

    def recorded(start, end):
        seen.append((start, end))
        return scan(start, end)

    store.kv.scan = recorded
    return seen


@pytest.mark.parametrize("layout", ["grouped", "interleaved", "columnar"])
def test_reads_of_namespaces_first_seen_at_ingest_scan_the_prefix_range(layout):
    store = GraphStore(edge_layout=layout)
    ns, label = "Datei-ファイル", "liest-読む"
    store.insert_vertex(0, ns, {"név": "ü"})
    store.insert_vertex(MAX_ID, "User", {})
    store.insert_edge(0, MAX_ID, label, {"ts": 1.0})
    store.insert_edge(0, MAX_ID, label, {"ts": 2.0})
    store.insert_reverse_edge(MAX_ID, 0, label, {"ts": 1.0})
    seen = _recording(store)

    props, _ = store.vertex_props(0)
    assert props == {"type": ns, "név": "ü"}
    assert seen.pop() == _expected(enc.attrs_prefix(ns, 0))
    assert store.vertex_props(MAX_ID)[0] == {"type": "User"}
    assert seen.pop() == _expected(enc.attrs_prefix("User", MAX_ID))

    rev, _ = store.edges(MAX_ID, "~" + label)
    assert rev == [(0, {"ts": 1.0})]
    assert seen.pop() == _expected(enc.edges_prefix("~User", MAX_ID, "~" + label))

    fwd, _ = store.edges(0, label)
    assert sorted(p["ts"] for _, p in fwd) == [1.0, 2.0]
    if layout == "grouped":
        assert seen.pop() == _expected(enc.edges_prefix(ns, 0, label))
        # the next live insert numbers its record from the run's count and
        # charges the read of the same range, without scanning it
        charged = []
        charge = store.kv.charge_scan

        def recorded_charge(start, end, entries):
            charged.append((start, end, entries))
            return charge(start, end, entries)

        store.kv.charge_scan = recorded_charge
        store.insert_edge(0, MAX_ID, label, {"ts": 3.0})
        assert seen == []
        assert charged == [(*_expected(enc.edges_prefix(ns, 0, label)), 2)]
        assert len(store.edges(0, label)[0]) == 3


def test_a_nul_in_a_label_or_namespace_still_raises():
    store = GraphStore()
    store.insert_vertex(1, "T", {})
    for _ in range(2):  # a rejected label is never cached
        with pytest.raises(StorageError, match="NUL"):
            store.edges(1, "bad\x00label")
        with pytest.raises(StorageError, match="NUL"):
            store.edges(1, "~bad\x00label")
    with pytest.raises(StorageError, match="NUL"):
        store.insert_edge(1, 2, "bad\x00label", {})
    with pytest.raises(StorageError, match="NUL"):
        enc.edges_range("T", "a\x00b")
    with pytest.raises(StorageError, match="NUL"):
        enc.attrs_range("bad\x00ns")
