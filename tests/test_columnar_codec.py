"""Generative round-trip + corruption suite for the columnar adjacency codec.

The stored frame (:meth:`AdjacencyBlock.encode`) must round-trip exactly on
its domain — arbitrary id sequences, sorted or not, duplicates and all, with
or without an edge-property column — and every way a block can be damaged
(truncated varint, bit-flip anywhere, wrong magic, trailing bytes, a count
overrunning the payload, a short frame) must raise the typed
:class:`~repro.errors.CorruptAdjacencyBlock`, from the full decode and, for
the frame-level damage, from :func:`block_entry_count` too. Never silent
garbage: a decode either returns exactly what was encoded or raises.

Runs under a fixed, derandomized hypothesis profile so tier-1 stays
deterministic in CI.
"""

from __future__ import annotations

import struct
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import CorruptAdjacencyBlock
from repro.storage.columnar import (
    AdjacencyBlock,
    block_entry_count,
    zigzag_decode,
    zigzag_encode,
)

# Fixed profile: derandomized (same examples every run, so tier-1 stays
# deterministic in CI) and without the wall-clock deadline (CI machines jitter).
settings.register_profile(
    "columnar-fixed", settings(derandomize=True, deadline=None, max_examples=60)
)
settings.load_profile("columnar-fixed")

#: arbitrary id sequences: unsorted, duplicate-bearing, empty, negative
ids_lists = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), max_size=64
)
#: realistic neighbor columns: non-negative vertex ids
vid_lists = st.lists(st.integers(min_value=0, max_value=2**62), max_size=64)

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
props_dicts = st.dictionaries(st.text(min_size=1, max_size=8), scalar, max_size=4)


def frame(ids) -> bytes:
    """The stored frame of one block holding ``ids`` in the order given."""
    return AdjacencyBlock(1, "x", tuple(ids)).encode()


def decode_ids(buf: bytes) -> list[int]:
    return list(AdjacencyBlock.decode(1, "x", buf).targets)


def reframe(body: bytes) -> bytes:
    """Re-seal a (possibly damaged) body under a *valid* CRC, so decode
    failures exercise the framing checks rather than the checksum."""
    return body + struct.pack(">I", zlib.crc32(body))


def assert_rejected(buf: bytes, *, counted: bool = True) -> None:
    """Decode raises; so does the frame-only count unless the damage sits
    in the columns it does not read (``counted=False``)."""
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(1, "x", buf)
    if counted:
        with pytest.raises(CorruptAdjacencyBlock):
            block_entry_count(buf)


# -- round-trip properties ----------------------------------------------------


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_zigzag_roundtrip(n):
    assert zigzag_decode(zigzag_encode(n)) == n
    assert zigzag_encode(n) >= 0


@given(ids_lists)
def test_id_column_roundtrips_exactly(ids):
    """Arbitrary sequences — unsorted, duplicates, negatives, empty — come
    back exactly, in order."""
    assert decode_ids(frame(ids)) == list(ids)


@given(vid_lists)
def test_sorted_column_roundtrips_and_counts(vids):
    block = AdjacencyBlock.from_edges(1, "x", [(v, {}) for v in vids])
    buf = block.encode()
    assert decode_ids(buf) == sorted(vids)
    assert block_entry_count(buf) == len(vids)


def test_empty_block_roundtrip():
    buf = frame([])
    assert decode_ids(buf) == []
    assert block_entry_count(buf) == 0


def test_duplicates_and_inversions_roundtrip():
    ids = [7, 7, 3, 3, 3, 900, 1]
    assert decode_ids(frame(ids)) == ids


@given(vid_lists, st.data())
def test_adjacency_block_roundtrips(vids, data):
    """Full blocks (ids + per-edge property column) round-trip through
    encode/decode, both all-empty-props (elided column) and mixed."""
    props = tuple(data.draw(props_dicts) for _ in vids)
    if not any(props):
        props = ()
    block = AdjacencyBlock(5, "cites", tuple(vids), props)
    buf = block.encode()
    back = AdjacencyBlock.decode(5, "cites", buf)
    assert back.targets == tuple(vids)
    assert back.pairs() == block.pairs()
    assert block_entry_count(buf) == len(vids)


@given(vid_lists)
def test_from_edges_sorts_by_destination(vids):
    block = AdjacencyBlock.from_edges(1, "ref", [(v, {}) for v in vids])
    assert list(block.targets) == sorted(vids)


def test_sorted_dense_ids_compress():
    """The point of the layout: sorted neighbor columns take far fewer
    bytes than 8-byte-per-id storage."""
    ids = list(range(1000, 2000))
    assert len(frame(ids)) < 8 * len(ids) / 3


# -- corruption: every damage mode raises the typed error --------------------


@given(ids_lists.filter(lambda l: len(l) > 0), st.data())
def test_any_bitflip_raises_typed_error(ids, data):
    """CRC32 catches every single-bit flip; magic/frame checks catch the
    rest. No flip may ever decode (or count) silently."""
    buf = bytearray(frame(ids))
    i = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    buf[i] ^= 1 << bit
    assert_rejected(bytes(buf))


@given(ids_lists, st.data())
def test_any_truncation_raises_typed_error(ids, data):
    buf = frame(ids)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    assert_rejected(buf[:cut])


def test_truncated_varint_specifically():
    """Cut the delta column mid-varint under a *valid* CRC: the varint
    decoder itself must catch the truncation."""
    body = frame([1, 300, 70_000])[:-4]
    for cut in range(2, len(body)):
        assert_rejected(reframe(body[:cut]), counted=False)


def test_count_overrunning_payload():
    """A count claiming more ids than the payload holds is truncation, and
    the frame-only count refuses it as well."""
    body = bytearray(frame([4, 9])[:-4])
    body[1] = 7  # count varint says 7, only 2 deltas and the flag follow
    assert_rejected(reframe(bytes(body)))


def test_trailing_bytes_rejected():
    body = frame([4, 9])[:-4] + b"\x00\x00"
    assert_rejected(reframe(body), counted=False)


def test_wrong_magic_rejected():
    """Any magic but the stored frame's, the retired 0xC7 id-only frame
    included, is refused."""
    for magic in (0x00, 0xC7):
        body = bytearray(frame([1])[:-4])
        body[0] = magic
        assert_rejected(reframe(bytes(body)))


def test_short_frames_rejected():
    for n in range(6):
        assert_rejected(b"\xc8" + b"\x00" * n)


@given(vid_lists.filter(lambda l: len(l) > 0), st.data())
def test_adjacency_block_bitflip_raises(vids, data):
    block = AdjacencyBlock.from_edges(3, "link", [(v, {"w": 1}) for v in vids])
    buf = bytearray(block.encode())
    i = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    buf[i] ^= 1 << bit
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(3, "link", bytes(buf))


def test_adjacency_block_bad_props_flag():
    block = AdjacencyBlock(1, "x", (2, 3))
    body = bytearray(block.encode()[:-4])
    body[-1] = 9  # props flag must be 0 or 1
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock.decode(1, "x", reframe(bytes(body)))


def test_props_length_mismatch_rejected():
    with pytest.raises(CorruptAdjacencyBlock):
        AdjacencyBlock(1, "x", (2, 3), ({"a": 1},))
