"""The four workloads: seeded inputs, the options each passes, and its ops.

A workload hands the program *only* the options written in its ``setup``;
everything else is the library default, so a later change of a default is
measured the way users get it. Every op carries its own oracle check, which
the harness runs outside the timer.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro import (
    Cluster,
    ClusterConfig,
    EngineKind,
    MetadataGraphConfig,
    ReferenceEngine,
    generate_metadata_graph,
    graphtrek_options,
    paper_rmat1,
    rmat_graph,
)
from repro.obs.trace import SamplingPolicy
from repro.sched.scheduler import SchedulerConfig
from repro.storage.persist import checkpoint_graph_store, restore_graph_store
from repro.workloads import (
    YEAR,
    agent_exploration,
    audit_scan_query,
    data_audit_query,
    k_hop_lineage,
    provenance_query,
    qos_mixed_workload,
    rmat_kstep_query,
    suspicious_user_query,
)

from perfbench import spec


@dataclass
class Op:
    """One timed operation and its untimed correctness check."""

    kind: str
    #: the timed call; returns the traversal outcomes it produced
    run: Callable[[], list]
    #: oracle comparison of those outcomes -> (checked, failed)
    check: Callable[[list], tuple[int, int]]
    #: which outcomes are primary traversals (virtual-latency samples);
    #: None = all of them
    sampled: Optional[Sequence[int]] = None


def scaled(counts: dict[str, int], seconds: float) -> dict[str, int]:
    """Op counts for a run of ``seconds``: the table is sized for
    ``spec.RUN_SECONDS`` and scales linearly, never below one op a kind."""
    factor = seconds / spec.RUN_SECONDS
    return {kind: max(1, round(n * factor)) for kind, n in counts.items()}


class Workload:
    """Shared plumbing: static-graph oracle with a per-plan memo."""

    name: str
    #: primary op kind; its wall-clock feeds ``op_wall_ms_*``
    primary: str
    #: op counts of one untraced run at ``spec.RUN_SECONDS``
    counts: dict[str, int]
    #: the fixed subset a traced run profiles
    trace_counts: dict[str, int]

    def __init__(self, seed: int, scale: int):
        self.seed = seed
        self.scale = scale
        self.cluster: Optional[Cluster] = None
        self.graph = None
        self._oracle_memo: dict = {}

    def setup(self) -> None:
        """Generate the inputs and build the cluster (timed as ``setup_s``)."""
        raise NotImplementedError

    def ops(self, counts: dict[str, int]) -> Iterator[Op]:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Untimed, after set-up: whatever only the checks need."""

    def finish(self) -> tuple[int, int]:
        """Untimed end-of-run checks -> (checked, failed)."""
        return 0, 0

    # -- oracle ---------------------------------------------------------

    def expected(self, query):
        """ReferenceEngine's answer, computed once per distinct plan."""
        plan = query.compile()
        if plan not in self._oracle_memo:
            self._oracle_memo[plan] = ReferenceEngine(self.graph).run(plan)
        return self._oracle_memo[plan]

    def check_all(self, queries: Sequence, outcomes: list) -> tuple[int, int]:
        failed = sum(
            not out.result.same_result(self.expected(q))
            for q, out in zip(queries, outcomes)
        )
        return len(queries), failed + (len(queries) - len(outcomes))

    def cold_op(self, kind: str, query) -> Op:
        """One cold-cache traversal, checked against the oracle."""
        return Op(
            kind,
            run=lambda: [self.cluster.traverse(query, cold=True)],
            check=lambda outs: self.check_all([query], outs),
        )


def kstep_starts(graph, seed: int) -> list[int]:
    """Seeded start vertices with at least one out-edge, in draw order."""
    candidates = [v for v in sorted(graph.vertex_ids()) if graph.out_degree(v)]
    random.Random(seed).shuffle(candidates)
    return candidates


def _take(items: list, n: int) -> list:
    """First ``n`` of ``items``, cycling when there are fewer."""
    return [items[i % len(items)] for i in range(n)]


class KStep8Rmat(Workload):
    name = "kstep8_rmat"
    primary = "kstep8"
    counts = {"kstep8": 14}
    trace_counts = {"kstep8": 4}

    def setup(self) -> None:
        cfg = paper_rmat1(scale=self.scale, edge_factor=16, seed=self.seed)
        self.graph = rmat_graph(cfg)
        self.cluster = Cluster.build(
            self.graph, ClusterConfig(nservers=8, engine=EngineKind.GRAPHTREK)
        )

    def ops(self, counts: dict[str, int]) -> Iterator[Op]:
        for src in _take(kstep_starts(self.graph, self.seed), counts["kstep8"]):
            yield self.cold_op("kstep8", rmat_kstep_query(src, 8))


class AuditDarshan(Workload):
    name = "audit_darshan"
    primary = "suspicious_user"
    counts = {
        "suspicious_user": 20,
        "audit_scan": 3,
        "provenance": 1,
        "agent_exploration": 8,
        "k_hop_lineage": 3,
        "data_audit": 16,
    }
    trace_counts = {
        "suspicious_user": 3,
        "audit_scan": 1,
        "provenance": 1,
        "agent_exploration": 1,
        "k_hop_lineage": 1,
        "data_audit": 1,
    }

    def setup(self) -> None:
        users = max(4, 1 << (self.scale - 5))  # scale 12 -> the issue's 128
        self.meta = generate_metadata_graph(
            MetadataGraphConfig(
                users=users,
                mean_jobs_per_user=16.0,
                mean_execs_per_job=10.0,
                files=users * 64,
                mean_reads_per_exec=1.6,
                mean_writes_per_exec=1.0,
                seed=self.seed,
            )
        )
        self.graph = self.meta.graph
        self.cluster = Cluster.build(
            self.graph,
            ClusterConfig(nservers=8, engine=graphtrek_options(planner="cost")),
        )

    def ops(self, counts: dict[str, int]) -> Iterator[Op]:
        rng = random.Random(self.seed)
        users = list(self.meta.user_ids)
        rng.shuffle(users)
        # lineage from a file nobody read is the empty traversal
        read_files = [
            f for f in self.meta.file_ids if self.graph.out_degree(f, "readBy")
        ]
        rng.shuffle(read_files)
        for user in _take(users, counts["suspicious_user"]):
            yield self.cold_op("suspicious_user", suspicious_user_query(user))
        for i in range(counts["audit_scan"]):
            window = (i % 4) * 0.25 * YEAR
            yield self.cold_op(
                "audit_scan", audit_scan_query(window, window + 0.25 * YEAR)
            )
        for i in range(counts["provenance"]):
            yield self.cold_op("provenance", provenance_query(model="ABCD"[i % 4]))
        for user in _take(users, counts["agent_exploration"]):
            yield self.cold_op("agent_exploration", agent_exploration(user))
        for file in _take(read_files, counts["k_hop_lineage"]):
            yield self.cold_op("k_hop_lineage", k_hop_lineage(file, 2))
        for user in _take(users, counts["data_audit"]):
            t_start = rng.uniform(0.0, 0.5 * YEAR)
            yield self.cold_op(
                "data_audit", data_audit_query(user, t_start, t_start + 0.5 * YEAR)
            )


class TenantsOps(Workload):
    name = "tenants_ops"
    primary = "round"
    counts = {"round": 18}
    trace_counts = {"round": 4}
    WARMUP_ROUNDS = 2

    def setup(self) -> None:
        cfg = paper_rmat1(scale=self.scale, edge_factor=16, seed=self.seed)
        self.graph = rmat_graph(cfg)
        self.cluster = Cluster.build(
            self.graph,
            ClusterConfig(
                nservers=16,
                engine=graphtrek_options(scheduler="wfq"),
                scheduler_config=SchedulerConfig(
                    max_inflight=4,
                    tenant_weights={"interactive": 4.0, "batch": 1.0},
                ),
                journal=True,
                reliable=True,
                trace_enabled=True,
                trace_sampling=SamplingPolicy(sample_every_n=8, seed=self.seed),
            ),
        )
        for r in range(self.WARMUP_ROUNDS):
            self._submit(self._round(r))

    def _round(self, r: int) -> list[dict]:
        """Round ``r``'s query mix. The same for every ``--seed`` (common
        random numbers): the seed changes the graph under it. A scan's cost
        varies threefold with its start vertex, so 18 seed-drawn scans made
        every metric of this workload swing 16 % from seed to seed."""
        return qos_mixed_workload(
            1000 + r,
            1 << self.scale,
            nscans=1,
            nsmall=16,
            scan_steps=4,
        )

    def _submit(self, items: list[dict]) -> list:
        return self.cluster.traverse_many(
            [it["query"] for it in items],
            cold=False,
            qos=[it["qos"] for it in items],
        )

    def ops(self, counts: dict[str, int]) -> Iterator[Op]:
        for r in range(self.WARMUP_ROUNDS, self.WARMUP_ROUNDS + counts["round"]):
            items = self._round(r)
            queries = [it["query"] for it in items]
            yield Op(
                "round",
                run=lambda items=items: self._submit(items),
                check=lambda outs, queries=queries: self.check_all(queries, outs),
                sampled=[i for i, it in enumerate(items) if it["kind"] == "small"],
            )


class IngestMixed(Workload):
    name = "ingest_mixed"
    primary = "batch"
    counts = {"batch": 960}
    trace_counts = {"batch": 40}
    VERTICES_PER_BATCH = 8
    EDGES_PER_BATCH = 128
    FLUSH_EVERY = 10

    def setup(self) -> None:
        cfg = paper_rmat1(scale=self.scale, edge_factor=16, seed=self.seed)
        self.cluster = Cluster.build(
            rmat_graph(cfg), ClusterConfig(nservers=8, engine=EngineKind.GRAPHTREK)
        )
        self._cfg = cfg
        self.ingested: dict[int, int] = {}  # source -> edges ingested on it

    def prepare_oracle(self) -> None:
        """The mirror: the oracle's copy of the graph as ingested so far.
        Separate from the graph the cluster was built from, which the
        cluster still holds."""
        self.graph = rmat_graph(self._cfg)

    def ops(self, counts: dict[str, int]) -> Iterator[Op]:
        rng = random.Random(self.seed)
        next_vid = 1 << self.scale
        for b in range(counts["batch"]):
            new = list(range(next_vid, next_vid + self.VERTICES_PER_BATCH))
            next_vid += self.VERTICES_PER_BATCH
            vertices = [(v, {"w": rng.random()}) for v in new]
            edges = []
            for i in range(self.EDGES_PER_BATCH):
                # half the sources are this batch's new vertices
                src = rng.choice(new) if i % 2 == 0 else rng.randrange(1 << self.scale)
                edges.append((src, rng.randrange(next_vid), {"w": rng.random()}))
            query = rmat_kstep_query(edges[0][0], 2)
            flush = b % self.FLUSH_EVERY == self.FLUSH_EVERY - 1
            yield Op(
                "batch",
                run=lambda v=vertices, e=edges, q=query, f=flush: self._ingest(v, e, q, f),
                check=lambda outs, v=vertices, e=edges, q=query: self._check(v, e, q, outs),
            )

    def _ingest(self, vertices, edges, query, flush: bool) -> list:
        cluster = self.cluster
        for vid, props in vertices:
            cluster.ingest_vertex(vid, "Node", props)
        for src, dst, props in edges:
            cluster.ingest_edge(src, dst, "link", props)
        outcome = cluster.traverse(query, cold=False)
        if flush:
            for server in cluster.servers:
                server.store.kv.flush()
        return [outcome]

    def _check(self, vertices, edges, query, outcomes) -> tuple[int, int]:
        mirror = self.graph
        for vid, props in vertices:
            mirror.add_vertex(vid, "Node", props)
        for src, dst, props in edges:
            mirror.add_edge(src, dst, "link", props)
            self.ingested[src] = self.ingested.get(src, 0) + 1
        if not outcomes:
            return 1, 1
        expected = ReferenceEngine(mirror).run(query.compile())
        return 1, int(not outcomes[0].result.same_result(expected))

    def finish(self) -> tuple[int, int]:
        """Checkpoint -> restore every server, then re-read every ingested
        edge from the restored stores."""
        mirror = self.graph
        spec.OUT_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="ckpt-", dir=spec.OUT_DIR)
        try:
            restored = []
            for server in self.cluster.servers:
                directory = f"{tmp}/{server.server_id}"
                checkpoint_graph_store(server.store, directory)
                restored.append(restore_graph_store(directory))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        def canon(pairs):
            return sorted((dst, sorted(props.items())) for dst, props in pairs)

        checked = failed = 0
        for src, n_edges in self.ingested.items():
            store = restored[self.cluster.routing.owner(src)]
            got, _ = store.edges(src, "link")
            want = [(dst, props) for _, dst, props in mirror.out_edges(src, "link")]
            checked += n_edges
            if canon(got) != canon(want):
                failed += n_edges
        return checked, failed


WORKLOADS = {w.name: w for w in (KStep8Rmat, AuditDarshan, TenantsOps, IngestMixed)}
