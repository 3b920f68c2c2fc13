"""Compressed columnar adjacency blocks: delta + varint neighbor columns.

The entry-per-edge layouts pay one KV pair — key bytes, record framing,
per-entry decode — for every edge. The columnar layout stores one value per
``(vertex, edge label)`` holding *all* of that label's neighbors as a single
delta-encoded varint column (swh-graph compresses billion-edge graphs to a
few bits per edge with exactly this trick), so a whole adjacency list is one
point lookup plus one decode.

The one frame a store writes or accepts (:meth:`AdjacencyBlock.encode`)::

    0xC8                      magic byte
    varint(count)             number of neighbor ids
    zigzag-varint * count     first id, then deltas from the previous id
    0 | 1 + blob * count      props column (blob: varint(len) + pack_props)
    crc32:4 BE                over everything before it

Deltas are *zigzag*-encoded, so the id column round-trips any id sequence
exactly — unsorted and duplicate-bearing inputs included (a duplicate is a
zero delta, an inversion a negative one). Sorted lists, the layout's case,
get the small-positive-delta packing the compression relies on.

Every decode failure raises :class:`~repro.errors.CorruptAdjacencyBlock` —
a truncated varint, a count overrunning the payload, trailing bytes, a
bit-flip caught by the CRC. Never silent garbage. :func:`block_entry_count`
checks the frame (magic, length, CRC, a count the payload can hold) without
decoding the columns, so a block arriving from outside a store — a
migration chunk, a restored checkpoint — is rejected where it arrives.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import CorruptAdjacencyBlock
from repro.storage.encoding import pack_props, unpack_props

#: magic byte opening every AdjacencyBlock (ids + props columns)
ADJ_MAGIC = 0xC8

_CRC = struct.Struct(">I")


# -- varint / zigzag primitives ----------------------------------------------


def zigzag_encode(n: int) -> int:
    """Map signed → unsigned so small-magnitude deltas stay small."""
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def zigzag_decode(u: int) -> int:
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


def encode_varints(values: Sequence[int], out: bytearray) -> None:
    """Append LEB128 varints for non-negative ``values`` to ``out``."""
    append = out.append
    for v in values:
        while v >= 0x80:
            append((v & 0x7F) | 0x80)
            v >>= 7
        append(v)


def decode_varints(buf: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` varints starting at ``offset``; (values, next offset).

    Raises :class:`~repro.errors.CorruptAdjacencyBlock` when a varint runs
    past the end of ``buf``.
    """
    out: list[int] = []
    append = out.append
    end = len(buf)
    for _ in range(count):
        if offset >= end:
            raise CorruptAdjacencyBlock(
                f"truncated varint: column needs {count} values, "
                f"buffer ended after {len(out)}"
            )
        b = buf[offset]
        offset += 1
        if b < 0x80:  # single-byte fast path: the common small delta
            append(b)
            continue
        result = b & 0x7F
        shift = 7
        while True:
            if offset >= end:
                raise CorruptAdjacencyBlock(
                    "truncated varint: continuation bit set at end of buffer"
                )
            if shift > 70:
                raise CorruptAdjacencyBlock("varint wider than 10 bytes")
            b = buf[offset]
            offset += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
        append(result)
    return out, offset


def _decode_one_varint(buf: bytes, offset: int) -> tuple[int, int]:
    values, offset = decode_varints(buf, offset, 1)
    return values[0], offset


def _checked_body(buf: bytes) -> bytes:
    """The frame minus its CRC, once length, magic byte and CRC check out."""
    if len(buf) < 7:  # magic + count + props flag + crc: an empty block
        raise CorruptAdjacencyBlock(
            f"adjacency block of {len(buf)} bytes is shorter than the "
            "minimal frame"
        )
    if buf[0] != ADJ_MAGIC:
        raise CorruptAdjacencyBlock(
            f"bad adjacency magic {buf[0]:#04x}, expected {ADJ_MAGIC:#04x}"
        )
    body, crc_bytes = buf[:-4], buf[-4:]
    if zlib.crc32(body) != _CRC.unpack(crc_bytes)[0]:
        raise CorruptAdjacencyBlock("adjacency block CRC32 mismatch")
    return body


def block_entry_count(buf: bytes) -> int:
    """Edge count of an :meth:`AdjacencyBlock.encode` frame without decoding
    its columns, for the bytes/edge accounting when blocks move wholesale
    (migration import, restore, deletes). Any other frame, a damaged one, or
    a count its payload cannot hold (an id takes a byte at least, the props
    flag one more) raises :class:`~repro.errors.CorruptAdjacencyBlock`."""
    body = _checked_body(buf)
    count, offset = _decode_one_varint(body, 1)
    if count > len(body) - offset - 1:
        raise CorruptAdjacencyBlock(f"count {count} overruns the payload")
    return count


# -- full adjacency blocks (ids + edge-property column) -----------------------


@dataclass(frozen=True)
class AdjacencyBlock:
    """One ``(vertex, edge label)`` adjacency block: parallel columns of
    neighbor ids and edge-property dicts."""

    vertex: int
    label: str
    targets: tuple[int, ...]
    props: tuple[dict[str, Any], ...] = field(default=())

    def __post_init__(self):
        if self.props and len(self.props) != len(self.targets):
            raise CorruptAdjacencyBlock(
                f"props column has {len(self.props)} entries for "
                f"{len(self.targets)} targets"
            )

    @classmethod
    def from_edges(
        cls, vertex: int, label: str, edges: Sequence[tuple[int, dict[str, Any]]]
    ) -> "AdjacencyBlock":
        """Build a block from ``(dst, props)`` pairs, sorted by destination
        id (stable, so same-destination parallel edges keep their relative
        order). Sorting is what makes the deltas small."""
        ordered = sorted(edges, key=lambda e: e[0])
        targets = tuple(dst for dst, _ in ordered)
        if any(p for _, p in ordered):
            return cls(vertex, label, targets, tuple(dict(p) for _, p in ordered))
        return cls(vertex, label, targets)

    def pairs(self) -> list[tuple[int, dict[str, Any]]]:
        """Materialize ``(dst, props)`` pairs in stored order."""
        if self.props:
            return [(dst, dict(p)) for dst, p in zip(self.targets, self.props)]
        return [(dst, {}) for dst in self.targets]

    def encode(self) -> bytes:
        """Wire format: magic, id column, then a props column that is a
        single 0 byte when every edge has empty properties (the dominant
        case — the whole column costs one byte) or 1 followed by per-edge
        length-prefixed :func:`~repro.storage.encoding.pack_props` blobs."""
        out = bytearray([ADJ_MAGIC])
        encode_varints((len(self.targets),), out)
        deltas = []
        prev = 0
        for vid in self.targets:
            deltas.append(zigzag_encode(vid - prev))
            prev = vid
        encode_varints(deltas, out)
        if self.props:
            out.append(1)
            for p in self.props:
                blob = pack_props(p)
                encode_varints((len(blob),), out)
                out += blob
        else:
            out.append(0)
        out += _CRC.pack(zlib.crc32(out))
        return bytes(out)

    @classmethod
    def decode(cls, vertex: int, label: str, buf: bytes) -> "AdjacencyBlock":
        body = _checked_body(buf)
        count, offset = _decode_one_varint(body, 1)
        deltas, offset = decode_varints(body, offset, count)
        targets: list[int] = []
        append = targets.append
        prev = 0
        for d in deltas:
            prev += zigzag_decode(d)
            append(prev)
        if offset >= len(body):
            raise CorruptAdjacencyBlock("adjacency block missing props flag")
        flag = body[offset]
        offset += 1
        props: tuple[dict[str, Any], ...] = ()
        if flag == 1:
            decoded = []
            for _ in range(count):
                blen, offset = _decode_one_varint(body, offset)
                if offset + blen > len(body):
                    raise CorruptAdjacencyBlock(
                        "props blob runs past the end of the block"
                    )
                try:
                    p, used = unpack_props(body, offset)
                except Exception as exc:
                    raise CorruptAdjacencyBlock(
                        f"undecodable props blob: {exc}"
                    ) from exc
                if used != offset + blen:
                    raise CorruptAdjacencyBlock(
                        f"props blob length {blen} disagrees with its payload"
                    )
                decoded.append(p)
                offset += blen
            props = tuple(decoded)
        elif flag != 0:
            raise CorruptAdjacencyBlock(f"unknown props-column flag {flag}")
        if offset != len(body):
            raise CorruptAdjacencyBlock(
                f"{len(body) - offset} trailing bytes after props column"
            )
        return cls(vertex, label, tuple(targets), props)
