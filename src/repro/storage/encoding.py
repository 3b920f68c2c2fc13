"""Key and value codecs for the graph-on-KV layout.

Keys are designed so that everything the traversal engine scans together is
adjacent in key order (paper §VI): within a vertex, its attribute pairs come
first, then its edge pairs grouped by edge label. Different vertex *types*
live in separate namespaces.

Key layout (all fields fixed width except names, which are length-prefixed)::

    <ns> 0x00 'V' <vid:8 BE> 'A' <prop name>              -> property value
    <ns> 0x00 'V' <vid:8 BE> 'E' <label> 0x00 <seq:8 BE>  -> edge record

Values use a compact self-describing binary codec (ints, floats, strs,
bytes, bools, None) so the cost model sees realistic byte sizes.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.errors import StorageError

_SEP = b"\x00"
_VPREFIX = b"V"
_ATTR = b"A"
#: columnar adjacency blocks: one value per (vertex, label). 'A' < 'B' < 'E'
#: keeps the block region inside the vertex prefix (so whole-vertex scans,
#: deletes, and migration exports cover it) but disjoint from both the
#: attribute and the entry-per-edge regions.
_BLOCK = b"B"
_EDGE = b"E"

_Q = struct.Struct(">Q")
#: the fixed-width destination every edge record starts with: a keys-only
#: read decodes this and skips the property block
EDGE_DST = _Q
#: the fixed-width sequence number that ends an edge key: a bulk load
#: appends it to an :func:`edges_prefix` it encoded once per label
SEQ = _Q
#: the fixed-width vertex id inside every vertex key: a reader places it
#: between the cached parts of an :func:`edges_range` / :func:`attrs_range`
VID = _Q
_D = struct.Struct(">d")
_q = struct.Struct(">q")

# -- value codec -----------------------------------------------------------

_T_NONE = b"\x00"
_T_INT = b"\x01"
_T_FLOAT = b"\x02"
_T_STR = b"\x03"
_T_BYTES = b"\x04"
_T_BOOL = b"\x05"


def pack_value(value: Any) -> bytes:
    """Serialize one scalar property value."""
    if value is None:
        return _T_NONE
    if isinstance(value, bool):  # before int: bool is an int subclass
        return _T_BOOL + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _T_INT + _q.pack(value)
    if isinstance(value, float):
        return _T_FLOAT + _D.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _T_STR + _Q.pack(len(raw)) + raw
    if isinstance(value, bytes):
        return _T_BYTES + _Q.pack(len(value)) + value
    raise StorageError(f"unsupported property type: {type(value).__name__}")


def unpack_value(buf: bytes, offset: int = 0) -> tuple[Any, int]:
    """Deserialize one value; returns (value, next offset)."""
    tag = buf[offset : offset + 1]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_BOOL:
        return buf[offset] != 0, offset + 1
    if tag == _T_INT:
        return _q.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_FLOAT:
        return _D.unpack_from(buf, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES):
        (n,) = _Q.unpack_from(buf, offset)
        offset += 8
        raw = buf[offset : offset + n]
        offset += n
        return (raw.decode("utf-8") if tag == _T_STR else bytes(raw)), offset
    raise StorageError(f"corrupt value tag: {tag!r}")


def pack_props(props: dict[str, Any]) -> bytes:
    """Serialize a property dict (sorted keys → deterministic bytes)."""
    parts = [_Q.pack(len(props))]
    for key in sorted(props):
        raw_key = key.encode("utf-8")
        parts.append(_Q.pack(len(raw_key)))
        parts.append(raw_key)
        parts.append(pack_value(props[key]))
    return b"".join(parts)


def unpack_props(buf: bytes, offset: int = 0) -> tuple[dict[str, Any], int]:
    (n,) = _Q.unpack_from(buf, offset)
    offset += 8
    props: dict[str, Any] = {}
    for _ in range(n):
        (klen,) = _Q.unpack_from(buf, offset)
        offset += 8
        key = buf[offset : offset + klen].decode("utf-8")
        offset += klen
        value, offset = unpack_value(buf, offset)
        props[key] = value
    return props, offset


def pack_edge_record(dst: int, props: dict[str, Any]) -> bytes:
    """Serialize one edge: destination vertex id + edge properties."""
    return _Q.pack(dst) + pack_props(props)


def unpack_edge_record(buf: bytes) -> tuple[int, dict[str, Any]]:
    (dst,) = _Q.unpack_from(buf, 0)
    props, _ = unpack_props(buf, 8)
    return dst, props


# -- key codec ---------------------------------------------------------------


def _ns_bytes(namespace: str) -> bytes:
    raw = namespace.encode("utf-8")
    if _SEP in raw:
        raise StorageError(f"namespace may not contain NUL: {namespace!r}")
    return raw


def vertex_prefix(namespace: str, vid: int) -> bytes:
    """Prefix covering everything stored for one vertex."""
    return _ns_bytes(namespace) + _SEP + _VPREFIX + _Q.pack(vid)


def attr_key(namespace: str, vid: int, prop: str) -> bytes:
    return vertex_prefix(namespace, vid) + _ATTR + prop.encode("utf-8")


def attrs_prefix(namespace: str, vid: int) -> bytes:
    """Prefix covering all attribute pairs of one vertex."""
    return vertex_prefix(namespace, vid) + _ATTR


def edge_key(namespace: str, vid: int, label: str, seq: int) -> bytes:
    raw_label = label.encode("utf-8")
    if _SEP in raw_label:
        raise StorageError(f"edge label may not contain NUL: {label!r}")
    return vertex_prefix(namespace, vid) + _EDGE + raw_label + _SEP + _Q.pack(seq)


def edge_key_interleaved(namespace: str, vid: int, label: str, seq: int) -> bytes:
    """Insertion-order edge key (seq before label): edges of different labels
    interleave, as in generic column layouts that do not group by type. Used
    by the storage-layout ablation (paper §IV-B argues grouping by type wins).
    """
    raw_label = label.encode("utf-8")
    if _SEP in raw_label:
        raise StorageError(f"edge label may not contain NUL: {label!r}")
    return vertex_prefix(namespace, vid) + _EDGE + _Q.pack(seq) + _SEP + raw_label


def edges_prefix(namespace: str, vid: int, label: str) -> bytes:
    """Prefix covering all edges of one label out of one vertex.

    Edges of the same label are therefore contiguous in key order — the
    storage optimization the paper calls out for sequential edge iteration.
    """
    raw_label = label.encode("utf-8")
    if _SEP in raw_label:
        raise StorageError(f"edge label may not contain NUL: {label!r}")
    return vertex_prefix(namespace, vid) + _EDGE + raw_label + _SEP


def edge_block_key(namespace: str, vid: int, label: str) -> bytes:
    """Key of the columnar adjacency block for one (vertex, label)."""
    raw_label = label.encode("utf-8")
    if _SEP in raw_label:
        raise StorageError(f"edge label may not contain NUL: {label!r}")
    return vertex_prefix(namespace, vid) + _BLOCK + raw_label


def edge_blocks_prefix(namespace: str, vid: int) -> bytes:
    """Prefix covering every columnar adjacency block of one vertex."""
    return vertex_prefix(namespace, vid) + _BLOCK


def parse_edge_block_key(key: bytes) -> tuple[str, int, str]:
    """Inverse of :func:`edge_block_key`: (namespace, vid, label)."""
    ns, rest = key.split(_SEP, 1)
    if rest[:1] != _VPREFIX or rest[9:10] != _BLOCK:
        raise StorageError(f"not an adjacency-block key: {key!r}")
    (vid,) = _Q.unpack_from(rest, 1)
    return ns.decode("utf-8"), vid, rest[10:].decode("utf-8")


def vertex_key_tag(key: bytes) -> tuple[str, int, bytes]:
    """Classify any vertex-region key: (namespace, vid, region tag byte).

    The tag is one of ``b"A"`` (attribute), ``b"B"`` (columnar block), or
    ``b"E"`` (entry-per-edge record). Used to reject edge records of
    another layout arriving at (or restored into) a store.
    """
    ns, rest = key.split(_SEP, 1)
    if rest[:1] != _VPREFIX:
        raise StorageError(f"not a vertex key: {key!r}")
    (vid,) = _Q.unpack_from(rest, 1)
    return ns.decode("utf-8"), vid, rest[9:10]


def edges_range(namespace: str, label: str) -> tuple[bytes, bytes, bytes]:
    """``(head, start, end)`` such that, for every vertex id,
    ``head + VID.pack(vid) + start`` is :func:`edges_prefix` and
    ``head + VID.pack(vid) + end`` its :func:`prefix_end`: the scan range of
    one (vertex, label) run with the id left out, so a reader encodes and
    validates it once per (namespace, label). The prefix ends in the NUL
    separator, so its end is the same bytes with that NUL bumped to 0x01."""
    raw_label = label.encode("utf-8")
    if _SEP in raw_label:
        raise StorageError(f"edge label may not contain NUL: {label!r}")
    head = _ns_bytes(namespace) + _SEP + _VPREFIX
    return head, _EDGE + raw_label + _SEP, _EDGE + raw_label + b"\x01"


def attrs_range(namespace: str) -> tuple[bytes, bytes, bytes]:
    """:func:`edges_range` for :func:`attrs_prefix`: its last byte is the
    attribute tag ``A``, so the end is ``B``."""
    return _ns_bytes(namespace) + _SEP + _VPREFIX, _ATTR, _BLOCK


def all_edges_prefix(namespace: str, vid: int) -> bytes:
    """Prefix covering every edge pair of one vertex, all labels."""
    return vertex_prefix(namespace, vid) + _EDGE


def prefix_end(prefix: bytes) -> bytes:
    """Smallest byte string greater than every key with ``prefix``.

    Standard trick: increment the last non-0xFF byte and truncate.
    """
    buf = bytearray(prefix)
    while buf:
        if buf[-1] != 0xFF:
            buf[-1] += 1
            return bytes(buf)
        buf.pop()
    return b"\xff" * 16  # prefix was all 0xFF; practically unreachable


def parse_attr_key(key: bytes) -> tuple[str, int, str]:
    """Inverse of :func:`attr_key`: (namespace, vid, prop name)."""
    ns, rest = key.split(_SEP, 1)
    if rest[:1] != _VPREFIX:
        raise StorageError(f"not a vertex key: {key!r}")
    (vid,) = _Q.unpack_from(rest, 1)
    if rest[9:10] != _ATTR:
        raise StorageError(f"not an attribute key: {key!r}")
    return ns.decode("utf-8"), vid, rest[10:].decode("utf-8")


def parse_edge_key(key: bytes) -> tuple[str, int, str, int]:
    """Inverse of :func:`edge_key`: (namespace, vid, label, seq)."""
    ns, rest = key.split(_SEP, 1)
    if rest[:1] != _VPREFIX or rest[9:10] != _EDGE:
        raise StorageError(f"not an edge key: {key!r}")
    (vid,) = _Q.unpack_from(rest, 1)
    label_raw, tail = rest[10:].split(_SEP, 1)
    (seq,) = _Q.unpack_from(tail, 0)
    return ns.decode("utf-8"), vid, label_raw.decode("utf-8"), seq


def iter_props_pairs(props: dict[str, Any]) -> Iterator[tuple[str, bytes]]:
    """(prop name, packed value) pairs in deterministic order."""
    for key in sorted(props):
        yield key, pack_value(props[key])
