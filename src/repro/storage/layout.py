"""Graph-on-KV layout: one server's slice of the property graph.

:class:`GraphStore` owns an :class:`~repro.storage.lsm.LSMStore` and maps a
partition of the property graph onto it using the paper's layout (§VI):

* each vertex attribute is one KV pair, all attributes of a vertex adjacent;
* each edge is one KV pair; edges of the same label are contiguous, so
  iterating one label is a single seek plus sequential blocks;
* different vertex types live in separate key namespaces.

A small in-memory index maps vertex id -> namespace (vertex type). This
plays the role of the underlying graph database's location/lookup service —
the paper notes the storage layer "mainly includes the location of a given
vertex and edges".

All read methods return ``(result, IOCost)``.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import EdgeLayoutMismatch, GraphError, KeyNotFound, UnknownEdgeLayout
from repro.graph.builder import PropertyGraph
from repro.graph.vertex import Vertex
from repro.ids import VertexId
from repro.storage import columnar, encoding as enc
from repro.storage.costmodel import IOCost
from repro.storage.lsm import LSMConfig, LSMStore


#: reserved edge property carrying the label in the interleaved layout
_LABEL_PROP = "__label"

_pack_vid = enc.VID.pack

#: the memo entry of a run whose scan found and charged nothing
_NO_RUN: tuple[tuple, tuple] = ((), ())

#: registered edge layouts — the single source of truth for validation
EDGE_LAYOUTS = ("grouped", "interleaved", "columnar")


def validate_edge_layout(name: str) -> str:
    """Return ``name`` if it is a registered layout, else raise the typed
    :class:`~repro.errors.UnknownEdgeLayout` configuration error."""
    if name not in EDGE_LAYOUTS:
        raise UnknownEdgeLayout(name, EDGE_LAYOUTS)
    return name


def load_partitions(
    graph: PropertyGraph,
    stores: Sequence["GraphStore"],
    parts: Sequence[Iterable[VertexId]],
    *,
    reverse: bool = False,
    observers: Optional[Sequence[Callable[[Vertex, Mapping], None]]] = None,
) -> list[int]:
    """Bulk-load ``stores[i]`` with the vertices ``parts[i]`` of ``graph``,
    walking each partition once; returns the vertices loaded per store.

    The walk reads each vertex's label-grouped adjacency
    (:meth:`~repro.graph.builder.PropertyGraph.adjacency`) as the graph
    holds it, indexes the vertex, encodes its attributes and out-edges in
    the store's layout, and calls ``observers[i](vertex, adjacency)`` (the
    cluster build feeds its planner statistics this way).

    ``reverse`` additionally materializes reverse adjacency as ``~label``
    edge records, so the cost-based planner can evaluate a chain
    backwards. A reverse record shares the forward edge's properties,
    packed once for both. Reverse records live in a disjoint ``~<ns>``
    namespace (always label-grouped, whatever ``edge_layout`` is): the
    forward key region packs into exactly the same blocks whether or not
    they are built, so plans that never go backwards pay nothing for them.
    Only edges whose source is in ``parts`` are reversed.

    A vertex's reverse records come from every partition, so each store
    builds its one SSTable after every partition has been walked. Until
    then a store's pairs wait as two flat lists, keys and values: pairing
    them up one store at a time keeps the peak memory close to that of
    loading one partition at a time.
    """
    inbound: Optional[dict[VertexId, list]] = {} if reverse else None
    staged = [
        store._stage(graph, vids, inbound, observers[i] if observers else None)
        for i, (store, vids) in enumerate(zip(stores, parts))
    ]
    for store, (vids, keys, values) in zip(stores, staged):
        if inbound is not None:
            store._stage_reverse(vids, inbound, keys, values)
        if keys:
            store.kv.bulk_load(sorted(zip(keys, values), key=itemgetter(0)))
        keys.clear()  # the table holds the bytes now
        values.clear()
    return [len(vids) for vids, _, _ in staged]


class GraphStore:
    """One backend server's graph storage.

    ``edge_layout`` selects how a vertex's edges map to keys:

    * ``"grouped"`` (default, the paper's design): one KV pair per edge,
      sorted by label, so a single-label scan touches only that label's
      contiguous run;
    * ``"interleaved"`` (ablation baseline, generic column layouts): one
      KV pair per edge, sorted by insertion order, so any label-selective
      scan reads the vertex's whole edge block;
    * ``"columnar"``: one KV pair per ``(vertex, label)`` holding every
      neighbor as a delta/varint-compressed
      :class:`~repro.storage.columnar.AdjacencyBlock` — a whole adjacency
      list is one point lookup plus one decode, and bytes/edge drops to the
      delta-packed column size.

    A store reads only its own layout's forward-edge records: every server
    of a cluster shares one layout and a checkpoint restores under the
    layout it recorded, so a chunk or checkpoint carrying the other record
    kind is rejected with :class:`~repro.errors.EdgeLayoutMismatch`.
    """

    def __init__(self, config: Optional[LSMConfig] = None, edge_layout: str = "grouped"):
        self.kv = LSMStore(config)
        self.edge_layout = validate_edge_layout(edge_layout)
        self._ns_of: dict[VertexId, str] = {}  # vertex location/type index
        self._by_type: dict[str, list[VertexId]] = {}
        #: forward-edge storage footprint (keys + values) and edge count,
        #: surfaced as the ``storage.bytes_per_edge`` gauge
        self._edge_bytes = 0
        self._edge_count = 0
        #: columnar decode counters (block decode throughput attribution)
        self.decoded_blocks = 0
        self.decoded_edges = 0
        #: decode-once memo, content-addressed (bytes → decoded pairs): a
        #: re-read of an unchanged block skips the varint/props decode
        #: entirely. Simulated I/O is charged before decode, so this only
        #: removes repeated in-process work, never accounted disk cost.
        self._decode_memo: dict[bytes, tuple] = {}
        #: (namespace, label or None for attributes) -> the key range parts
        #: of :func:`~repro.storage.encoding.edges_range` /
        #: :func:`~repro.storage.encoding.attrs_range`, encoded on first read
        self._ranges: dict[tuple[str, Optional[str]], tuple[bytes, bytes, bytes]] = {}
        #: vertex -> {(namespace, label): live records in that run}, the
        #: sequence number of the run's next live insert. The label is None
        #: for an interleaved vertex's one edge sequence. A run gets its count
        #: from one scan the first time an insert touches it, except on
        #: vertices in ``_born``, whose runs all start empty. Writes that
        #: bypass the count (delete, import) drop the vertex's entry, so its
        #: next insert counts by scan again; a restored store starts empty.
        self._run_len: dict[VertexId, dict[tuple[str, Optional[str]], int]] = {}
        #: vertices created by :meth:`insert_vertex`
        self._born: set[VertexId] = set()
        #: label -> vertex -> (records, extents) of each keys-only edge run
        #: read (see :meth:`edges`; a ``~label`` names the reverse region),
        #: valid while ``kv`` is the store it was filled from, at the write
        #: version it was filled at
        self._run_memo: dict[str, dict[VertexId, tuple[tuple, tuple]]] = {}
        self._run_memo_kv: Optional[LSMStore] = None
        self._run_memo_version = -1

    # -- loading ---------------------------------------------------------

    def load_partition(self, graph: PropertyGraph, vids: Iterable[VertexId]) -> int:
        """Bulk-load the given vertices (attributes + out-edges) from ``graph``
        into this store; :func:`load_partitions` with one partition.

        Returns the number of vertices loaded. Uses SSTable ingestion, so the
        data starts compact and cold, as in the paper's cold-start runs.
        """
        return load_partitions(graph, [self], [vids])[0]

    def _stage(
        self,
        graph: PropertyGraph,
        vids: Iterable[VertexId],
        inbound: Optional[dict[VertexId, list]],
        observe: Optional[Callable[[Vertex, Mapping], None]],
    ) -> tuple[list[VertexId], list[bytes], list[bytes]]:
        """Walk ``vids`` once: index each vertex, encode its attributes and
        out-edges as unsorted keys and values, hand the vertex and its
        adjacency to ``observe``, and append ``(label, src, record)`` to
        ``inbound[dst]`` for every edge, where ``record`` is the edge's
        destination and packed properties (a grouped store's forward
        value). Returns ``(vids, keys, values)``."""
        loaded: list[VertexId] = []
        keys: list[bytes] = []
        values: list[bytes] = []
        add_key, add_value = keys.append, values.append
        layout = self.edge_layout
        pack_seq, seq_size, pack_record = enc.SEQ.pack, enc.SEQ.size, enc.pack_edge_record
        edge_bytes = edge_count = 0
        for vid in vids:
            vertex = graph.vertex(vid)
            adjacency = graph.adjacency(vid)
            ns = vertex.vtype
            self._index_vertex(vid, ns)
            loaded.append(vid)
            if observe is not None:
                observe(vertex, adjacency)
            # Key prefixes are encoded once per vertex (and label), not once
            # per KV pair. The reserved attribute makes the vertex
            # discoverable even when it has no user properties.
            attrs = enc.attrs_prefix(ns, vid)
            add_key(attrs + b"__type")
            add_value(enc.pack_value(ns))
            for prop, packed in enc.iter_props_pairs(vertex.props):
                add_key(attrs + prop.encode("utf-8"))
                add_value(packed)
            seq_all = 0  # interleaved: one sequence across the vertex's labels
            for label, pairs in adjacency.items():
                edge_count += len(pairs)
                records = None
                if inbound is not None or layout == "grouped":
                    records = [pack_record(dst, eprops) for dst, eprops in pairs]
                if inbound is not None:
                    for (dst, _), record in zip(pairs, records):
                        entries = inbound.get(dst)
                        if entries is None:
                            inbound[dst] = [(label, vid, record)]
                        else:
                            entries.append((label, vid, record))
                if layout == "grouped":
                    run = enc.edges_prefix(ns, vid, label)
                    keys.extend([run + pack_seq(seq) for seq in range(len(records))])
                    values.extend(records)
                    edge_bytes += (len(run) + seq_size) * len(records)
                    edge_bytes += sum(map(len, records))
                elif layout == "interleaved":
                    for dst, eprops in pairs:
                        key = enc.edge_key_interleaved(ns, vid, label, seq_all)
                        value = pack_record(dst, {**eprops, _LABEL_PROP: label})
                        edge_bytes += len(key) + len(value)
                        add_key(key)
                        add_value(value)
                        seq_all += 1
                else:  # columnar: one delta/varint block per (vertex, label)
                    key = enc.edge_block_key(ns, vid, label)
                    value = columnar.AdjacencyBlock.from_edges(vid, label, pairs).encode()
                    edge_bytes += len(key) + len(value)
                    add_key(key)
                    add_value(value)
        self._edge_bytes += edge_bytes
        self._edge_count += edge_count
        return loaded, keys, values

    def _stage_reverse(
        self,
        vids: list[VertexId],
        inbound: dict[VertexId, list],
        keys: list[bytes],
        values: list[bytes],
    ) -> None:
        """Append the ``~label`` records of every edge into ``vids``, taking
        their entries out of ``inbound``. Per ``(vertex, label)``, sequence
        numbers follow ascending source id, and a source's parallel edges
        keep their adjacency order."""
        pack_seq, pack_dst, dst_size = enc.SEQ.pack, enc.EDGE_DST.pack, enc.EDGE_DST.size
        for vid in vids:
            entries = inbound.pop(vid, None)
            if entries is None:
                continue
            # stable: a source's entries stay in the order its walk added them
            entries.sort(key=itemgetter(0, 1))
            rns = "~" + self._ns_of[vid]
            for label, run in groupby(entries, key=itemgetter(0)):
                prefix = enc.edges_prefix(rns, vid, "~" + label)
                for seq, (_, src, record) in enumerate(run):
                    keys.append(prefix + pack_seq(seq))
                    values.append(pack_dst(src) + record[dst_size:])

    def _index_vertex(self, vid: VertexId, ns: str) -> None:
        self._ns_of[vid] = ns
        self._by_type.setdefault(ns, []).append(vid)

    def _account_edges(
        self, key: bytes, value: bytes, n_edges: int, sign: int = 1
    ) -> None:
        """Track the forward-edge footprint for the bytes/edge gauge."""
        self._edge_bytes += sign * (len(key) + len(value))
        self._edge_count += sign * n_edges

    def _edge_record_count(self, vid: VertexId, tag: bytes, value: bytes) -> int:
        """Edges held by one forward-edge record arriving from outside this
        store; a record of the other layout's kind is rejected."""
        columnar_store = self.edge_layout == "columnar"
        if (tag == b"B") != columnar_store:
            raise EdgeLayoutMismatch(self.edge_layout, vid, tag)
        return columnar.block_entry_count(value) if columnar_store else 1

    # -- live updates -----------------------------------------------------

    def insert_vertex(self, vid: VertexId, vtype: str, props: dict[str, Any]) -> None:
        """Live insert of a vertex (memtable path). A new vertex's edge runs
        start empty, so its edge inserts are numbered without a scan.

        Re-inserting a held vertex under its own type overwrites the given
        attributes; under another type it raises
        :class:`~repro.errors.GraphError`, since the vertex's keys live in
        its type's namespace."""
        ns = self._ns_of.get(vid)
        if ns is None:
            self._born.add(vid)
            self._index_vertex(vid, vtype)
        elif ns != vtype:
            raise GraphError(f"vertex {vid} is held as {ns!r}, not {vtype!r}")
        else:
            self._forget_runs(vid)
        self.kv.put(enc.attr_key(vtype, vid, "__type"), enc.pack_value(vtype))
        for prop, packed in enc.iter_props_pairs(props):
            self.kv.put(enc.attr_key(vtype, vid, prop), packed)

    def insert_edge(
        self, src: VertexId, dst: VertexId, label: str, props: dict[str, Any]
    ) -> None:
        """Live insert of an out-edge of a locally stored vertex."""
        ns = self._require_ns(src)
        if self.edge_layout == "grouped":
            key = self._next_key(ns, src, label)
            value = enc.pack_edge_record(dst, props)
            self._account_edges(key, value, 1)
            self.kv.put(key, value)
        elif self.edge_layout == "interleaved":
            prefix = enc.all_edges_prefix(ns, src)
            seq = self._next_seq(src, (ns, None), prefix, enc.prefix_end(prefix))
            tagged = {**props, _LABEL_PROP: label}
            key = enc.edge_key_interleaved(ns, src, label, seq)
            value = enc.pack_edge_record(dst, tagged)
            self._account_edges(key, value, 1)
            self.kv.put(key, value)
        else:  # columnar: read-modify-write the (vertex, label) block
            key = enc.edge_block_key(ns, src, label)
            old, _ = self.kv.get(key)
            pairs = self._decode_block(src, label, old) if old is not None else []
            pairs.append((dst, props))
            value = columnar.AdjacencyBlock.from_edges(src, label, pairs).encode()
            self._edge_count += 1
            self._edge_bytes += len(value) - (
                len(old) if old is not None else -len(key)
            )
            self.kv.put(key, value)

    def insert_reverse_edge(
        self, dst: VertexId, src: VertexId, label: str, props: dict[str, Any]
    ) -> None:
        """Live insert of the ``~label`` reverse-adjacency record of the edge
        ``src -> dst``, on the store holding ``dst`` (see
        :meth:`load_partition`: the region is label-grouped in every layout)."""
        rns = "~" + self._require_ns(dst)
        self.kv.put(
            self._next_key(rns, dst, "~" + label), enc.pack_edge_record(src, props)
        )

    def _next_key(self, ns: str, vid: VertexId, label: str) -> bytes:
        """Key of the next record of one grouped edge run: the run's prefix
        plus :meth:`_next_seq`."""
        start, end = self._run_bounds(ns, vid, label)
        return start + enc.SEQ.pack(self._next_seq(vid, (ns, label), start, end))

    def _next_seq(
        self, vid: VertexId, run: tuple[str, Optional[str]], start: bytes, end: bytes
    ) -> int:
        """Number the next live insert into the run [start, end) of ``vid``
        from the run's count, and charge the read that numbering by scan
        would make.

        The count equals the run's live record count, the length a scan of
        [start, end) returns (``tests/test_run_counts.py`` checks this after
        every kind of write). The read stays charged on purpose: it warms
        the block cache exactly as the scan did, so counters and virtual
        time are unchanged. A run with no count yet is scanned once."""
        runs = self._run_len.get(vid)
        if runs is None:
            runs = self._run_len[vid] = {}
        n = runs.get(run)
        if n is None and vid in self._born:
            n = 0
        if n is None:
            n = len(self.kv.scan(start, end)[0])
        else:
            self.kv.charge_scan(start, end, n)
        runs[run] = n + 1
        return n

    def _forget_runs(self, vid: VertexId) -> None:
        """Drop ``vid``'s run counts: its next insert into a run counts the
        run by scan."""
        self._run_len.pop(vid, None)
        self._born.discard(vid)

    def set_vertex_prop(self, vid: VertexId, prop: str, value: Any) -> None:
        ns = self._require_ns(vid)
        self.kv.put(enc.attr_key(ns, vid, prop), enc.pack_value(value))

    def delete_vertex(self, vid: VertexId) -> None:
        """Remove a vertex, its attributes, and its out-edges."""
        ns = self._require_ns(vid)
        pairs, _ = self.kv.scan_prefix(enc.vertex_prefix(ns, vid))
        rpairs, _ = self.kv.scan_prefix(enc.vertex_prefix("~" + ns, vid))
        for key, value in pairs:
            tag = enc.vertex_key_tag(key)[2]
            if tag == b"E":
                self._account_edges(key, value, 1, sign=-1)
            elif tag == b"B":
                self._account_edges(
                    key, value, columnar.block_entry_count(value), sign=-1
                )
            self.kv.delete(key)
        for key, _ in rpairs:
            self.kv.delete(key)
        self._forget_runs(vid)
        del self._ns_of[vid]
        self._by_type[ns].remove(vid)

    # -- shard migration (repro.rebalance) ---------------------------------

    def export_vertices(
        self, vids: Iterable[VertexId]
    ) -> tuple[tuple[tuple[bytes, bytes], ...], tuple[tuple[VertexId, str], ...]]:
        """Snapshot every KV pair belonging to ``vids`` for migration.

        Returns ``(pairs, meta)``: the raw key/value pairs (attributes,
        edges in whatever layout this store uses, and the ``~label``
        reverse-adjacency region) plus the ``(vid, namespace)`` entries the
        importing store needs for its location index. Raises
        :class:`~repro.errors.KeyNotFound` for a vertex this store does not
        own — the migrator validates ownership before exporting.
        """
        pairs: list[tuple[bytes, bytes]] = []
        meta: list[tuple[VertexId, str]] = []
        for vid in vids:
            ns = self._require_ns(vid)
            fwd, _ = self.kv.scan_prefix(enc.vertex_prefix(ns, vid))
            rev, _ = self.kv.scan_prefix(enc.vertex_prefix("~" + ns, vid))
            pairs.extend(fwd)
            pairs.extend(rev)
            meta.append((vid, ns))
        return tuple(pairs), tuple(meta)

    def import_vertices(
        self,
        pairs: Iterable[tuple[bytes, bytes]],
        meta: Iterable[tuple[VertexId, str]],
    ) -> int:
        """Apply an exported chunk (memtable path). Idempotent: re-importing
        puts identical values under identical keys, and already-indexed
        vertices are not double-indexed. Returns newly indexed vertices.

        A chunk exported from a store of the other record kind raises
        :class:`~repro.errors.EdgeLayoutMismatch` at its first edge record.
        """
        fresh = {vid for vid, _ in meta if vid not in self._ns_of}
        for key, value in pairs:
            kns, vid, tag = enc.vertex_key_tag(key)
            if not kns.startswith("~") and tag != b"A":
                n_edges = self._edge_record_count(vid, tag, value)
                if vid in fresh:
                    self._account_edges(key, value, n_edges)
            self._forget_runs(vid)
            self.kv.put(key, value)
        added = 0
        for vid, ns in meta:
            if vid not in self._ns_of:
                self._index_vertex(vid, ns)
                added += 1
        return added

    def drop_vertices(self, vids: Iterable[VertexId]) -> int:
        """Remove migrated vertices (attributes, edges, reverse region).
        Vertices this store does not hold are skipped, so the post-cutover
        source drop is idempotent. Returns how many were dropped."""
        dropped = 0
        for vid in vids:
            if vid in self._ns_of:
                self.delete_vertex(vid)
                dropped += 1
        return dropped

    # -- reads -------------------------------------------------------------

    def has_vertex(self, vid: VertexId) -> bool:
        return vid in self._ns_of

    def namespace_of(self, vid: VertexId) -> Optional[str]:
        return self._ns_of.get(vid)

    def _require_ns(self, vid: VertexId) -> str:
        ns = self._ns_of.get(vid)
        if ns is None:
            raise KeyNotFound(f"vertex {vid} is not stored on this server")
        return ns

    def vertex_props(self, vid: VertexId) -> tuple[dict[str, Any], IOCost]:
        """All properties of a local vertex (one sequential attribute scan).

        The reserved ``type`` property is included, mirroring
        :meth:`repro.graph.vertex.Vertex.effective_props`.
        """
        ns = self._require_ns(vid)
        pairs, cost = self._scan_run(ns, vid)
        props: dict[str, Any] = {}
        for key, value in pairs:
            _, _, prop = enc.parse_attr_key(key)
            decoded, _ = enc.unpack_value(value)
            if prop == "__type":
                props.setdefault("type", decoded)
            else:
                props[prop] = decoded
        if not props:
            raise KeyNotFound(f"vertex {vid} vanished from the store")
        return props, cost

    def edges(
        self, vid: VertexId, label: str, pred=None, props: bool = True
    ) -> tuple[Sequence[tuple[VertexId, Optional[dict[str, Any]]]], IOCost]:
        """Out-edges of ``vid`` with ``label``.

        Grouped layout: one sequential scan of exactly that label's run.
        Interleaved layout: the whole edge block must be scanned and
        filtered — the extra I/O the paper's grouping avoids.

        ``pred`` (edge-props dict → bool) is evaluated *inside* the storage
        scan: rejected edges never surface to the engine (the planner's
        predicate pushdown). The scan cost is unchanged — the same blocks
        are read — but the surfaced record count shrinks.

        A ``~label`` reads the materialized reverse-adjacency region, which
        is always label-grouped regardless of ``edge_layout``.

        Columnar layout: one point lookup fetches the whole
        ``(vertex, label)`` block, decoded once; ``pred`` is applied to the
        decoded column (the rejected count still lands in
        ``entries_filtered``, mirroring the scan-pushdown contract).

        ``props=False`` is the keys-only projection: with no ``pred`` to
        feed, a label-grouped read decodes just each record's 8-byte
        destination and returns ``None`` for the properties. Interleaved
        (its label lives in the props) and columnar (the block decodes as a
        whole) return full records regardless. A keys-only read of a
        label-grouped or ``~label`` run is memoized until the store's next
        write: a re-read returns the same records as a tuple and replays
        the first read's charge (:meth:`~repro.storage.lsm.LSMStore.replay_scan`:
        same counters, same block-cache accesses, same cost) without
        scanning.
        """
        ns = self._require_ns(vid)
        if label.startswith("~"):
            ns = "~" + ns
        elif self.edge_layout == "columnar":
            return self._edges_columnar(ns, vid, label, pred)
        if self.edge_layout == "grouped" or label.startswith("~"):
            if props or pred is not None:
                pairs, cost = self._scan_run(ns, vid, label)
                decoded = [enc.unpack_edge_record(value) for _, value in pairs]
                return self._filter_decoded(decoded, pred), cost
            return self._keys_only_run(ns, vid, label)
        preds = {label: pred} if pred is not None else None
        all_edges, cost = self.all_edges(vid, preds)
        return [(dst, eprops) for lbl, dst, eprops in all_edges if lbl == label], cost

    def _keys_only_run(
        self, ns: str, vid: VertexId, label: str
    ) -> tuple[tuple[tuple[VertexId, None], ...], IOCost]:
        """One grouped edge run's destinations, scanned on the first read
        after a write to the store and replayed from the memo after that."""
        kv = self.kv
        memo = self._run_memo
        if self._run_memo_version != kv.version or self._run_memo_kv is not kv:
            memo.clear()
            self._run_memo_kv, self._run_memo_version = kv, kv.version
        runs = memo.get(label)
        if runs is None:
            runs = memo[label] = {}
        hit = runs.get(vid)
        if hit is not None:
            records, extents = hit
            return records, kv.replay_scan(extents, len(records))
        extents: list[tuple[int, int, int]] = []
        pairs, cost = kv.scan(*self._run_bounds(ns, vid, label), extents)
        dst_of = enc.EDGE_DST.unpack_from
        records = tuple([(dst_of(value)[0], None) for _, value in pairs])
        runs[vid] = (records, tuple(extents)) if records or extents else _NO_RUN
        return records, cost

    def _scan_run(
        self, ns: str, vid: VertexId, label: Optional[str] = None
    ) -> tuple[list[tuple[bytes, bytes]], IOCost]:
        """Scan one vertex's attributes (``label`` None) or one label's
        grouped edge run (see :meth:`_run_bounds`)."""
        return self.kv.scan(*self._run_bounds(ns, vid, label))

    def _run_bounds(
        self, ns: str, vid: VertexId, label: Optional[str] = None
    ) -> tuple[bytes, bytes]:
        """The range of one vertex's attributes (``label`` None) or of one
        label's grouped edge run: the ``scan_prefix`` range of
        :func:`~repro.storage.encoding.attrs_prefix` /
        :func:`~repro.storage.encoding.edges_prefix`, built from parts
        cached per (namespace, label)."""
        parts = self._ranges.get((ns, label))
        if parts is None:
            parts = enc.attrs_range(ns) if label is None else enc.edges_range(ns, label)
            self._ranges[(ns, label)] = parts
        head, start, end = parts
        vertex = head + _pack_vid(vid)
        return vertex + start, vertex + end

    def _decode_block(
        self, vid: VertexId, label: str, value: bytes
    ) -> list[tuple[VertexId, dict[str, Any]]]:
        """Decode one adjacency block, tracking decode-throughput counters.

        Returns a fresh list every call (callers may append before
        re-encoding); the decoded column itself is memoized per block
        content, so only the first read of a given byte string pays the
        varint decode.
        """
        cached = self._decode_memo.get(value)
        if cached is not None:
            return list(cached)
        block = columnar.AdjacencyBlock.decode(vid, label, value)
        self.decoded_blocks += 1
        self.decoded_edges += len(block.targets)
        pairs = block.pairs()
        if len(self._decode_memo) >= 65536:
            self._decode_memo.clear()
        self._decode_memo[value] = tuple(pairs)
        return pairs

    def _filter_decoded(
        self, pairs: list[tuple[VertexId, dict[str, Any]]], pred
    ) -> list[tuple[VertexId, dict[str, Any]]]:
        """Post-decode predicate pushdown: same rejected-entry accounting as
        the scan-level filter, applied to a decoded column."""
        if pred is None:
            return pairs
        kept = [(dst, p) for dst, p in pairs if pred(p)]
        self.kv.stats.entries_filtered += len(pairs) - len(kept)
        return kept

    def _edges_columnar(
        self, ns: str, vid: VertexId, label: str, pred
    ) -> tuple[list[tuple[VertexId, dict[str, Any]]], IOCost]:
        value, cost = self.kv.get(enc.edge_block_key(ns, vid, label))
        out: list[tuple[VertexId, dict[str, Any]]] = []
        if value is not None:
            out = self._filter_decoded(self._decode_block(vid, label, value), pred)
        return out, cost

    def all_edges(
        self,
        vid: VertexId,
        preds: Optional[dict[str, Any]] = None,
        props: bool = True,
    ) -> tuple[list[tuple[str, VertexId, Optional[dict[str, Any]]]], IOCost]:
        """Every out-edge of ``vid`` across labels (label, dst, props).

        ``preds`` maps label → (edge-props dict → bool); edges whose label
        has a predicate that rejects them are dropped inside the scan (each
        record is decoded once; rejections land in ``entries_filtered``).
        Labels without a predicate always pass. ``props=False`` projects the
        properties away as in :meth:`edges`.
        """
        ns = self._require_ns(vid)
        if self.edge_layout == "columnar":
            return self._all_edges_columnar(ns, vid, preds)
        pairs, cost = self.kv.scan_prefix(enc.all_edges_prefix(ns, vid))
        grouped = self.edge_layout == "grouped"
        full = props or bool(preds) or not grouped
        dst_of = enc.EDGE_DST.unpack_from
        out = []
        for key, value in pairs:
            if full:
                dst, eprops = enc.unpack_edge_record(value)
            else:
                dst, eprops = dst_of(value)[0], None
            label = enc.parse_edge_key(key)[2] if grouped else eprops.pop(_LABEL_PROP)
            if preds:
                pred = preds.get(label)
                if pred is not None and not pred(eprops):
                    self.kv.stats.entries_filtered += 1
                    continue
            out.append((label, dst, eprops))
        return out, cost

    def _all_edges_columnar(
        self, ns: str, vid: VertexId, preds: Optional[dict[str, Any]] = None
    ) -> tuple[list[tuple[str, VertexId, dict[str, Any]]], IOCost]:
        blocks, cost = self.kv.scan_prefix(enc.edge_blocks_prefix(ns, vid))
        out: list[tuple[str, VertexId, dict[str, Any]]] = []
        for key, value in blocks:
            _, _, label = enc.parse_edge_block_key(key)
            decoded = self._filter_decoded(
                self._decode_block(vid, label, value),
                preds.get(label) if preds else None,
            )
            out.extend((label, dst, p) for dst, p in decoded)
        return out, cost

    # -- index queries (served from the in-memory location index) ----------

    def local_vertices(self) -> list[VertexId]:
        return list(self._ns_of.keys())

    def local_vertices_of_type(self, vtype: str) -> list[VertexId]:
        return list(self._by_type.get(vtype, []))

    def vertex_count(self) -> int:
        return len(self._ns_of)

    # -- maintenance ---------------------------------------------------------

    def cold_start(self) -> None:
        """Drop the block cache, as the paper does before each measured run."""
        self.kv.cache.clear()

    def rebuild_edge_accounting(self) -> None:
        """Recompute the bytes/edge gauge from the store's live contents.

        A checkpoint restore brings back raw SSTables without replaying the
        writes that maintain the incremental accounting, so
        :func:`~repro.storage.persist.restore_graph_store` calls this once
        after loading. Restored edge records of the other layout's kind
        raise :class:`~repro.errors.EdgeLayoutMismatch`.
        """
        from repro.storage.sstable import merge_runs

        self._edge_bytes = 0
        self._edge_count = 0
        runs: list = [self.kv.memtable.items_sorted()]
        runs.extend(zip(t.keys, t.values) for t in self.kv.sstables)
        for key, value in merge_runs(runs, drop_tombstones=True):
            if key.split(b"\x00", 1)[0].startswith(b"~"):
                continue
            _, vid, tag = enc.vertex_key_tag(key)
            if tag != b"A":
                self._account_edges(
                    key, value, self._edge_record_count(vid, tag, value)
                )

    def metrics_snapshot(self) -> dict[str, float]:
        """Storage counters (LSM ops, block cache, bloom filters) plus the
        columnar decode counters and the bytes/edge gauge.

        Every key is published per server as a ``storage.<name>`` gauge by
        the cluster's telemetry collector — ``storage.bytes_per_edge`` is
        the figure the columnar bench ablation reports.
        """
        snap: dict[str, float] = dict(self.kv.metrics_snapshot())
        snap["decoded_blocks"] = self.decoded_blocks
        snap["decoded_edges"] = self.decoded_edges
        snap["edge_count"] = self._edge_count
        snap["edge_bytes"] = self._edge_bytes
        if self._edge_count > 0:
            snap["bytes_per_edge"] = round(self._edge_bytes / self._edge_count, 3)
        return snap
