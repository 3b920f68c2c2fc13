"""Probes: direct calls into each layer's public functions, as ops/s.

Inputs are captured from the ``kstep8_rmat`` cell (same generator, scale and
seed: its keys, edge records, adjacency lists and partitions), so a probe
moves when the layer's cost on the benchmark's own data moves. Probes do not
depend on the workload being traced; every traced run reports all of them.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro import Cluster, ClusterConfig, EngineKind, ReferenceEngine
from repro.cluster.journal import TraversalJournal
from repro.engine.cache import TraversalAffiliateCache
from repro.engine.frontier import merge_entry
from repro.engine.visit import ExpandSinks, expand_vertex, read_vertex
from repro.graph.stats import GraphSummary
from repro.lang import RANGE, GTravel
from repro.lang.optimizer import QueryPlanner
from repro.net.message import TraverseRequest
from repro.obs.metrics import MetricsRegistry
from repro.partition.edge_cut import HashEdgeCut
from repro.rebalance.routing import RoutingTable
from repro.sim.core import Simulator
from repro.storage import encoding as enc
from repro.storage.bloom import BloomFilter
from repro.storage.columnar import AdjacencyBlock
from repro.storage.layout import GraphStore
from repro.storage.lsm import LSMConfig, LSMStore
from repro.workloads import paper_rmat1, rmat_graph, rmat_kstep_query, suspicious_user_query

from perfbench.workloads import kstep_starts

#: seconds each probe runs at full size
PROBE_SECONDS = 0.5

LABEL = "link"
NSERVERS = 8


def rate(work: Callable[..., int], seconds: float, prepare=None) -> float:
    """Call ``work`` (which returns the units it processed) for at least
    ``seconds`` of its own time; units per second. ``prepare`` builds the
    argument of each call outside the timer. One untimed warm-up."""
    units = 0
    spent = 0.0
    warm = False
    while spent < seconds:
        args = () if prepare is None else (prepare(),)
        start = time.perf_counter()
        done = work(*args)
        elapsed = time.perf_counter() - start
        if warm:
            units += done
            spent += elapsed
        warm = True
    return units / spent


def run_all(seed: int, scale: int, seconds: float) -> tuple[dict[str, float], int, int]:
    """Every probe plus the Sync-GT comparison cell -> (metrics, checked,
    failed)."""
    rng = random.Random(seed)
    cfg = paper_rmat1(scale=scale, edge_factor=16, seed=seed)
    graph = rmat_graph(cfg)
    cluster = Cluster.build(graph, ClusterConfig(nservers=NSERVERS, engine=EngineKind.GRAPHTREK))
    sync = Cluster.build(graph, ClusterConfig(nservers=NSERVERS, engine=EngineKind.SYNC))
    out: dict[str, float] = {}

    # -- the paper's comparison: Sync-GT vs GraphTrek on shared starts ----
    oracle = ReferenceEngine(graph)
    ratios = []
    checked = failed = 0
    for src in kstep_starts(graph, seed)[:3]:
        query = rmat_kstep_query(src, 8)
        want = oracle.run(query.compile())
        ours = cluster.traverse(query, cold=True)
        theirs = sync.traverse(query, cold=True)
        checked += 2
        failed += (not ours.result.same_result(want)) + (
            not theirs.result.same_result(want)
        )
        ratios.append(theirs.stats.elapsed / ours.stats.elapsed)
    out["engine.virtual_speedup_vs_sync"] = sum(ratios) / len(ratios)

    # -- captured inputs ---------------------------------------------------
    partition = HashEdgeCut(NSERVERS).assign(graph)[0]
    store = cluster.servers[0].store
    table = store.kv.sstables[0]
    items = list(zip(table.keys, table.values))[:4096]
    keys = [k for k, _ in items]
    absent = [k + b"\x00" for k in keys[:512]]
    adjacency = [
        (vid, [(dst, props) for _, dst, props in graph.out_edges(vid, LABEL)])
        for vid in partition[:128]
    ]
    adjacency = [(vid, pairs) for vid, pairs in adjacency if pairs]
    n_adjacent = sum(len(pairs) for _, pairs in adjacency)
    edge_props = [props for _, pairs in adjacency for _, props in pairs][:1024]
    records = [enc.pack_edge_record(7, props) for props in edge_props]
    blocks = [
        (vid, AdjacencyBlock.from_edges(vid, LABEL, pairs).encode())
        for vid, pairs in adjacency
    ]
    vids = list(range(cfg.num_vertices))

    # -- storage.encoding / storage.columnar --------------------------------
    def pack_props() -> int:
        for props in edge_props:
            enc.pack_props(props)
        return len(edge_props)

    def unpack_edge_record() -> int:
        for record in records:
            enc.unpack_edge_record(record)
        return len(records)

    def columnar_encode() -> int:
        for vid, pairs in adjacency:
            AdjacencyBlock.from_edges(vid, LABEL, pairs).encode()
        return n_adjacent

    def columnar_decode() -> int:
        for vid, buf in blocks:
            AdjacencyBlock.decode(vid, LABEL, buf)
        return n_adjacent

    out["storage.encoding.pack_props_per_s"] = rate(pack_props, seconds)
    out["storage.encoding.unpack_edge_record_per_s"] = rate(unpack_edge_record, seconds)
    out["storage.columnar.encode_edges_per_s"] = rate(columnar_encode, seconds)
    out["storage.columnar.decode_edges_per_s"] = rate(columnar_decode, seconds)

    # -- storage.lsm / storage.bloom ----------------------------------------
    loaded = LSMStore(LSMConfig(block_cache_blocks=4096))
    loaded.bulk_load(items)
    prefixes = [enc.edges_prefix("Node", vid, LABEL) for vid, _ in adjacency]

    def lsm_put() -> int:
        fresh = LSMStore()
        for key, value in items:
            fresh.put(key, value)
        return len(items)

    def lsm_get() -> int:
        for key in keys[:1024]:
            loaded.get(key)
        return 1024

    def lsm_scan() -> int:
        return sum(len(loaded.scan_prefix(prefix)[0]) for prefix in prefixes)

    def fragmented() -> LSMStore:
        """Four overlapping runs, as after four memtable flushes."""
        lsm = LSMStore()
        for i in range(4):
            lsm.bulk_load(items[i::4])
        return lsm

    def lsm_compact(lsm: LSMStore) -> int:
        lsm.compact()
        return len(items)

    def bloom_add() -> int:
        BloomFilter(len(keys)).update(keys)
        return len(keys)

    bloom = BloomFilter(len(keys))
    bloom.update(keys)

    def bloom_probe() -> int:
        hits = 0
        for key in keys[:512]:
            hits += key in bloom
        for key in absent:
            hits += key in bloom
        return 1024

    out["storage.lsm.put_per_s"] = rate(lsm_put, seconds)
    out["storage.lsm.get_per_s"] = rate(lsm_get, seconds)
    out["storage.lsm.scan_entries_per_s"] = rate(lsm_scan, seconds)
    out["storage.lsm.compact_entries_per_s"] = rate(
        lsm_compact, seconds / 2, prepare=fragmented
    )
    out["storage.bloom.add_per_s"] = rate(bloom_add, seconds)
    out["storage.bloom.probe_per_s"] = rate(bloom_probe, seconds)

    # -- storage.layout -----------------------------------------------------
    n_partition_edges = sum(graph.out_degree(vid) for vid in partition)
    local = [vid for vid, _ in adjacency]

    def layout_load() -> int:
        GraphStore(LSMConfig()).load_partition(graph, partition)
        return n_partition_edges

    def layout_read() -> int:
        return sum(len(store.edges(vid, LABEL)[0]) for vid in local)

    def layout_insert() -> int:
        fresh = GraphStore(LSMConfig())
        for vid in range(64):
            fresh.insert_vertex(vid, "Node", {"w": vid})
        for i in range(1024):
            fresh.insert_edge(i % 64, i, LABEL, {"w": i})
        return 1024

    out["storage.layout.load_edges_per_s"] = rate(layout_load, seconds)
    out["storage.layout.read_edges_per_s"] = rate(layout_read, seconds)
    out["storage.layout.insert_edges_per_s"] = rate(layout_insert, seconds)

    # -- sim / routing / net ------------------------------------------------
    def sim_null() -> int:
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-6, _noop)
        sim.run()
        return 10_000

    routing = RoutingTable(HashEdgeCut(NSERVERS).owner, NSERVERS)

    def routing_owner() -> int:
        owner = routing.owner
        for vid in vids:
            owner(vid)
        return len(vids)

    entries = {vid: () for vid in vids[:256]}

    def message_size() -> int:
        for i in range(256):
            TraverseRequest(travel_id=i, level=1, entries=entries).nbytes
        return 256

    out["sim.null_events_per_s"] = rate(sim_null, seconds)
    out["routing.owner_per_s"] = rate(routing_owner, seconds)
    out["net.message.size_per_s"] = rate(message_size, seconds)

    # -- engine -------------------------------------------------------------
    frontier = [rng.randrange(cfg.num_vertices) for _ in range(10_000)]

    def frontier_merge() -> int:
        bucket: dict = {}
        for vid in frontier:
            merge_entry(bucket, vid, ())
        return len(frontier)

    cache = TraversalAffiliateCache(1 << 20)
    for vid in vids[::2]:
        cache.insert((1, 0), 3, vid, ())

    def cache_lookup() -> int:
        lookup = cache.lookup
        for vid in frontier:
            lookup((1, 0), 3, vid)
        return len(frontier)

    plan = rmat_kstep_query(local[0], 8).compile()
    visits = [(vid, read_vertex(store, vid, {LABEL}, False)) for vid in local]

    def expand() -> int:
        sinks = ExpandSinks()
        for vid, data in visits:
            expand_vertex(plan, 1, vid, (), data, routing.owner, sinks, (), "Node")
        return len(visits)

    out["engine.frontier.merge_entry_per_s"] = rate(frontier_merge, seconds)
    out["engine.cache.lookup_per_s"] = rate(cache_lookup, seconds)
    out["engine.visit.expand_vertex_per_s"] = rate(expand, seconds)

    # -- lang ---------------------------------------------------------------
    summary = GraphSummary.from_graph(graph)
    planner = QueryPlanner(mode="cost", summary=summary, reverse_available=True)
    filtered = (
        GTravel.v(local[0]).e(LABEL).ea("w", RANGE, (0, 1 << 15)).e(LABEL).compile()
    )

    def lang_compile() -> int:
        for vid in local:
            rmat_kstep_query(vid, 8).compile()
            suspicious_user_query(vid).compile()
        return 2 * len(local)

    def lang_plan() -> int:
        for _ in range(32):
            planner.plan(plan)
            planner.plan(filtered)
        return 64

    out["lang.compile_per_s"] = rate(lang_compile, seconds)
    out["lang.optimizer.plan_per_s"] = rate(lang_plan, seconds)

    # -- cluster.journal ------------------------------------------------------
    def journal_fill(journal: TraversalJournal) -> int:
        """The records 64 traversals leave behind."""
        for tid in range(64):
            journal.append("admit", tid=tid, plan=plan, tenant="interactive",
                           priority=1, deadline=None, admit_time=0.0, seq=tid)
            journal.append("dispatch", tid=tid, plan=plan, attempt=0, epoch=0,
                           composite=False, child_of=None, submit_time=0.0)
            for _ in range(4):
                journal.append("progress", tid=tid, statuses=32, results=8)
            journal.append("terminal", tid=tid, status="ok")
        return 64 * 7

    # replay cost per record needs the records still there: no compaction
    written = TraversalJournal(checkpoint_interval=1 << 30)
    n_written = journal_fill(written)

    def journal_replay() -> int:
        written.replay()
        return n_written

    out["cluster.journal.append_per_s"] = rate(lambda: journal_fill(TraversalJournal()), seconds)
    out["cluster.journal.replay_per_s"] = rate(journal_replay, seconds)

    # -- obs ------------------------------------------------------------------
    def metrics_count() -> int:
        registry = MetricsRegistry()
        count = registry.count
        for i in range(10_000):
            count("engine.requests", server=i & 7)
        return 10_000

    out["obs.metrics.count_per_s"] = rate(metrics_count, seconds)

    def openmetrics() -> int:
        cluster.openmetrics()
        return 1

    out["obs.exporter.openmetrics_ms"] = 1e3 / rate(openmetrics, seconds)

    # -- set-up path: partition, statistics, generator -------------------------
    def partition_assign() -> int:
        HashEdgeCut(NSERVERS).assign(graph)
        return cfg.num_vertices

    def stats_summary() -> int:
        GraphSummary.from_graph(graph, partition)
        return len(partition)

    small = paper_rmat1(scale=max(4, scale - 3), edge_factor=16, seed=seed)

    def rmat_generate() -> int:
        rmat_graph(small)
        return small.num_edges

    out["partition.assign_vertices_per_s"] = rate(partition_assign, seconds)
    out["graph.stats.summary_vertices_per_s"] = rate(stats_summary, seconds)
    out["workloads.rmat_edges_per_s"] = rate(rmat_generate, seconds)
    return out, checked, failed


def _noop() -> None:
    pass
