"""File-backed persistence: checkpoint and restore a server's store.

The paper runs RocksDB either on local disks (fast) or on GPFS "for fault
tolerance against server failures" (§VII) — the store's files surviving the
server is what makes a failed backend recoverable. This module provides that
durability for the pure-Python store: an :class:`~repro.storage.lsm.LSMStore`
checkpoints to a directory (one file per SSTable plus a manifest; the
memtable is flushed first, so a checkpoint is always a consistent frozen
state) and restores from it.

File format (version 2)::

    MANIFEST          json: version, table file names, counts, per-file
                      crc32s, and the manifest's own checksum over those
                      fields
    000001.sst ...    per table:  [u32 entry count] then per entry
                      [u32 key len][key][u8 tombstone][u32 value len][value]
                      followed by a [u32 crc32] footer over everything
                      before it

Every integrity failure on restore — truncation, a CRC mismatch, a table
whose shape disagrees with the manifest — raises the typed
:class:`~repro.errors.CorruptCheckpoint` instead of silently truncating.

The module also exposes the framed-record primitives
(:func:`pack_record` / :func:`iter_records`) shared with the coordinator's
traversal journal (:mod:`repro.cluster.journal`): every record is
``[u32 len][u32 crc32][payload]`` so a reader can detect both torn and
bit-rotted records with a typed error.

:class:`~repro.storage.layout.GraphStore` checkpoints add the vertex
location/type index alongside.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Iterator, Type, Union

from repro.errors import CorruptCheckpoint, StorageError
from repro.storage.layout import GraphStore, validate_edge_layout
from repro.storage.lsm import LSMConfig, LSMStore
from repro.storage.memtable import TOMBSTONE
from repro.storage.sstable import SSTable

_U32 = struct.Struct("<I")
_VERSION = 2
_MANIFEST = "MANIFEST"

# -- shared framed-record primitives (checkpoint tables + traversal journal) --


def pack_record(payload: bytes) -> bytes:
    """Frame ``payload`` as ``[u32 len][u32 crc32][payload]``."""
    return _U32.pack(len(payload)) + _U32.pack(zlib.crc32(payload)) + payload


def iter_records(
    data: bytes, error_cls: Type[StorageError] = CorruptCheckpoint
) -> Iterator[bytes]:
    """Yield the payloads of consecutive framed records in ``data``.

    Raises ``error_cls`` on a torn record (length prefix runs past the end
    of the buffer) or a CRC32 mismatch.
    """
    offset = 0
    end = len(data)
    while offset < end:
        if offset + 8 > end:
            raise error_cls(
                f"torn record header at byte {offset} ({end - offset} bytes left)"
            )
        (length,) = _U32.unpack_from(data, offset)
        (crc,) = _U32.unpack_from(data, offset + 4)
        start = offset + 8
        if start + length > end:
            raise error_cls(
                f"torn record at byte {offset}: length {length} runs past "
                f"end of buffer"
            )
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise error_cls(f"crc mismatch for record at byte {offset}")
        yield payload
        offset = start + length


def _manifest_checksum(manifest: dict) -> int:
    """CRC32 over the manifest's integrity-bearing fields, in a canonical
    serialization so a round trip through json is stable."""
    body = {k: v for k, v in sorted(manifest.items()) if k != "checksum"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _write_table(path: Path, table: SSTable) -> int:
    """Write one SSTable file and return the CRC32 of its body (the same
    value stored in the file's footer and the manifest)."""
    crc = 0
    with path.open("wb") as fh:
        def emit(chunk: bytes) -> None:
            nonlocal crc
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)

        emit(_U32.pack(len(table)))
        for key, value in zip(table.keys, table.values):
            emit(_U32.pack(len(key)))
            emit(key)
            if value is TOMBSTONE:
                emit(b"\x01")
                emit(_U32.pack(0))
            else:
                emit(b"\x00")
                emit(_U32.pack(len(value)))  # type: ignore[arg-type]
                emit(value)  # type: ignore[arg-type]
        fh.write(_U32.pack(crc))
    return crc


def _read_exact(fh, n: int, path: Path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptCheckpoint(f"truncated SSTable file {path.name}")
    return data


def _read_table(path: Path) -> tuple[list[tuple[bytes, object]], int]:
    """Read one SSTable file, verifying its CRC32 footer. Returns the
    entries and the body CRC (for cross-checking against the manifest)."""
    entries: list[tuple[bytes, object]] = []
    crc = 0
    with path.open("rb") as fh:
        def take(n: int) -> bytes:
            nonlocal crc
            chunk = _read_exact(fh, n, path)
            crc = zlib.crc32(chunk, crc)
            return chunk

        (count,) = _U32.unpack(take(4))
        for _ in range(count):
            (klen,) = _U32.unpack(take(4))
            key = take(klen)
            tombstone = take(1) == b"\x01"
            (vlen,) = _U32.unpack(take(4))
            value: object = TOMBSTONE if tombstone else take(vlen)
            entries.append((key, value))
        (stored,) = _U32.unpack(_read_exact(fh, 4, path))
        if stored != crc:
            raise CorruptCheckpoint(
                f"crc mismatch in SSTable file {path.name}: "
                f"footer {stored:#010x}, computed {crc:#010x}"
            )
    return entries, crc


def checkpoint_store(store: LSMStore, directory: Union[str, Path]) -> Path:
    """Write a consistent checkpoint of ``store`` into ``directory``.

    Flushes the memtable first, so the checkpoint captures every write that
    returned before the call. Overwrites any previous checkpoint there.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store.flush()
    names = []
    crcs = []
    for i, table in enumerate(store.sstables):  # newest first
        name = f"{i:06d}.sst"
        crcs.append(_write_table(directory / name, table))
        names.append(name)
    manifest = {
        "version": _VERSION,
        "tables": names,  # order: newest first
        "entries": [len(t) for t in store.sstables],
        "crcs": crcs,
    }
    manifest["checksum"] = _manifest_checksum(manifest)
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    return directory


def restore_store(
    directory: Union[str, Path], config: Union[LSMConfig, None] = None
) -> LSMStore:
    """Rebuild an :class:`LSMStore` from a checkpoint directory.

    Raises :class:`~repro.errors.CorruptCheckpoint` when any table file or
    the manifest fails its integrity check.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"no checkpoint manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint manifest: {exc}") from exc
    if manifest.get("version") != _VERSION:
        raise StorageError(f"unsupported checkpoint version {manifest.get('version')}")
    if manifest.get("checksum") != _manifest_checksum(manifest):
        raise CorruptCheckpoint("checkpoint manifest failed its checksum")
    store = LSMStore(config)
    for name, expected, want_crc in zip(
        manifest["tables"], manifest["entries"], manifest["crcs"]
    ):
        path = directory / name
        if not path.exists():
            raise CorruptCheckpoint(f"checkpoint table {name} is missing")
        entries, crc = _read_table(path)
        if crc != want_crc:
            raise CorruptCheckpoint(
                f"checkpoint table {name} crc {crc:#010x} does not match "
                f"manifest {want_crc:#010x}"
            )
        if len(entries) != expected:
            raise CorruptCheckpoint(
                f"checkpoint table {name} has {len(entries)} entries, "
                f"expected {expected}"
            )
        store.add_table(SSTable(entries), newest=False)
    return store


def checkpoint_graph_store(gstore: GraphStore, directory: Union[str, Path]) -> Path:
    """Checkpoint a server's graph store: KV data, vertex index, layout."""
    directory = Path(directory)
    checkpoint_store(gstore.kv, directory)
    payload = {
        "layout": gstore.edge_layout,
        "index": {str(vid): ns for vid, ns in gstore._ns_of.items()},
    }
    (directory / "vertex_index.json").write_text(json.dumps(payload))
    return directory


def restore_graph_store(
    directory: Union[str, Path], config: Union[LSMConfig, None] = None
) -> GraphStore:
    """Rebuild a server's :class:`GraphStore` from a checkpoint.

    The recorded layout name is validated: a manifest naming a layout this
    build does not know raises the typed
    :class:`~repro.errors.UnknownEdgeLayout` instead of silently restoring
    under the default. A pre-layout checkpoint (no ``layout`` field) keeps
    the historical ``"grouped"`` default.
    """
    directory = Path(directory)
    index_path = directory / "vertex_index.json"
    if not index_path.exists():
        raise StorageError(f"no vertex index in {directory}")
    payload = json.loads(index_path.read_text())
    layout = validate_edge_layout(payload.get("layout", "grouped"))
    gstore = GraphStore(config, edge_layout=layout)
    gstore.kv = restore_store(directory, config or gstore.kv.config)
    for vid_str, ns in payload["index"].items():
        gstore._index_vertex(int(vid_str), ns)
    gstore.rebuild_edge_accounting()
    return gstore
