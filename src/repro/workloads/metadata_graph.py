"""Synthetic Darshan-flavoured HPC rich-metadata graph.

The paper's real workload imports one year of Darshan I/O characterization
logs from the Intrepid supercomputer into a property graph (Table II:
177 users, 47.6k jobs, 123.4M executions, 34.6M files, 239.8M edges), a
small-world graph with power-law degree distributions.

The Darshan data at that scale is not available offline, so this generator
produces a graph with the same *shape*:

* the entity chain User --run--> Job --hasExecutions--> Execution
  --exe/read/write--> File, plus File --readBy--> Execution reverse edges
  (the Table III audit query traverses them);
* per-user job counts and file popularity follow Zipf laws, yielding the
  power-law in-degrees the paper reports;
* timestamps spread over a simulated year so RANGE filters select real
  subsets;
* entity-count *ratios* follow Table II at a configurable scale.

See DESIGN.md ("What we cannot have, and what we substitute").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.graph.builder import GraphBuilder, PropertyGraph
from repro.graph.schema import hpc_metadata_schema

#: Seconds in the simulated year of logs.
YEAR = 365 * 86400

#: Table II of the paper, for ratio preservation and reporting.
PAPER_TABLE2 = {
    "users": 177,
    "jobs": 47_600,
    "executions": 123_400_000,
    "files": 34_600_000,
    "edges": 239_800_000,
}


@dataclass(frozen=True)
class MetadataGraphConfig:
    """Generator knobs. Defaults give a laptop-sized graph (~15k vertices)."""

    users: int = 48
    mean_jobs_per_user: float = 12.0
    mean_execs_per_job: float = 8.0
    files: int = 4096
    mean_reads_per_exec: float = 1.2
    mean_writes_per_exec: float = 0.8
    executable_pool: int = 64
    zipf_alpha: float = 1.8  # file-popularity skew (power-law driver)
    models: tuple[str, ...] = ("A", "B", "C", "D")
    annotations: tuple[str, ...] = ("raw", "calibrated", "B", "derived")
    file_kinds: tuple[str, ...] = ("text", "binary", "data")
    seed: int = 42


@dataclass
class MetadataGraphStats:
    """Entity counts of a generated graph, Table II style."""

    users: int = 0
    jobs: int = 0
    executions: int = 0
    files: int = 0
    edges: int = 0
    by_label: dict[str, int] = field(default_factory=dict)

    def row(self) -> dict[str, int]:
        return {
            "users": self.users,
            "jobs": self.jobs,
            "executions": self.executions,
            "files": self.files,
            "edges": self.edges,
        }

    def ratios(self) -> dict[str, float]:
        """Entity counts normalized by user count (comparable across scales)."""
        u = max(1, self.users)
        return {k: v / u for k, v in self.row().items()}


@dataclass
class MetadataGraph:
    """The generated graph plus the ids needed to phrase paper queries."""

    graph: PropertyGraph
    stats: MetadataGraphStats
    user_ids: list[int]
    job_ids: list[int]
    execution_ids: list[int]
    file_ids: list[int]


@lru_cache(maxsize=8)
def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """The cumulative rank-frequency distribution over [0, n), normalised the
    way ``Generator.choice(p=)`` normalises it: a generation draws from the
    same two or three distributions thousands of times, so each is built
    once per ``(n, alpha)`` and shared read-only."""
    probs = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def _zipf_choice(
    rng: np.random.Generator, n: int, size: int, alpha: float
) -> np.ndarray:
    """Zipf-distributed indices over [0, n) (rank-frequency power law).

    The same draws, and the same generator state after them, as
    ``rng.choice(n, size=size, p=probs)``, without re-validating ``probs``
    on every call."""
    return _zipf_cdf(n, alpha).searchsorted(rng.random(size), side="right")


def generate_metadata_graph(config: MetadataGraphConfig) -> MetadataGraph:
    """Build the synthetic rich-metadata property graph."""
    rng = np.random.default_rng(config.seed)
    builder = GraphBuilder(schema=hpc_metadata_schema())
    stats = MetadataGraphStats()
    by_label: dict[str, int] = {}

    def edge(src: int, dst: int, label: str, **props) -> None:
        builder.edge(src, dst, label, **props)
        by_label[label] = by_label.get(label, 0) + 1
        stats.edges += 1

    # Files first: a shared pool with Zipf popularity.
    file_ids = [
        builder.vertex(
            "File",
            name=f"/projects/data/f{i:06d}",
            kind=config.file_kinds[int(rng.integers(len(config.file_kinds)))],
            annotation=config.annotations[int(rng.integers(len(config.annotations)))],
            size=int(rng.lognormal(14, 2)),
        )
        for i in range(config.files)
    ]
    executable_ids = file_ids[: config.executable_pool]

    user_ids: list[int] = []
    job_ids: list[int] = []
    execution_ids: list[int] = []

    # Per-user job counts follow a Zipf-like skew: a few power users own
    # most of the jobs, as in production facilities.
    user_weights = (np.arange(1, config.users + 1, dtype=np.float64)) ** (-1.1)
    user_weights /= user_weights.sum()
    total_jobs = max(config.users, int(config.users * config.mean_jobs_per_user))
    jobs_per_user = rng.multinomial(total_jobs, user_weights)

    for u in range(config.users):
        uid = builder.vertex("User", name=f"user{u:04d}", uid=1000 + u, group="science")
        user_ids.append(uid)
        stats.users += 1
        for _ in range(int(jobs_per_user[u])):
            ts = float(rng.uniform(0, YEAR))
            jid = builder.vertex(
                "Job",
                jobid=len(job_ids) + 1,
                queue=("prod" if rng.random() < 0.8 else "debug"),
                ts=ts,
            )
            job_ids.append(jid)
            stats.jobs += 1
            edge(uid, jid, "run", ts=ts)

            n_execs = max(1, int(rng.poisson(config.mean_execs_per_job)))
            exe_file = executable_ids[
                int(_zipf_choice(rng, len(executable_ids), 1, 1.2)[0])
            ]
            for rank in range(n_execs):
                ets = ts + float(rng.uniform(0, 3600))
                eid = builder.vertex(
                    "Execution",
                    model=config.models[int(rng.integers(len(config.models)))],
                    params=f"-n {int(rng.integers(1, 4096))}",
                    ts=ets,
                    rank=rank,
                )
                execution_ids.append(eid)
                stats.executions += 1
                edge(jid, eid, "hasExecutions", ts=ets)
                edge(eid, exe_file, "exe", ts=ets)

                n_reads = int(rng.poisson(config.mean_reads_per_exec))
                if n_reads:
                    targets = _zipf_choice(rng, config.files, n_reads, config.zipf_alpha)
                    for t in np.unique(targets):
                        fid = file_ids[int(t)]
                        edge(eid, fid, "read", ts=ets, readSize=int(rng.lognormal(12, 2)))
                        edge(fid, eid, "readBy", ts=ets)
                n_writes = int(rng.poisson(config.mean_writes_per_exec))
                if n_writes:
                    targets = _zipf_choice(rng, config.files, n_writes, config.zipf_alpha)
                    for t in np.unique(targets):
                        fid = file_ids[int(t)]
                        edge(eid, fid, "write", ts=ets, writeSize=int(rng.lognormal(13, 2)))
                        edge(fid, eid, "writtenBy", ts=ets)

    stats.files = config.files
    stats.by_label = by_label
    graph = builder.build()
    return MetadataGraph(
        graph=graph,
        stats=stats,
        user_ids=user_ids,
        job_ids=job_ids,
        execution_ids=execution_ids,
        file_ids=file_ids,
    )


def paper_scaled_config(scale: float = 1.0, seed: int = 42) -> MetadataGraphConfig:
    """A config whose entity ratios follow Table II, shrunk by ``scale``.

    ``scale=1.0`` yields roughly 50 users / 15k vertices; raising it grows
    every population proportionally (the paper's graph corresponds to a
    scale far beyond laptop reach — see EXPERIMENTS.md for the ratio check).
    """
    users = max(8, int(48 * scale))
    return MetadataGraphConfig(
        users=users,
        mean_jobs_per_user=12.0,
        mean_execs_per_job=8.0,
        files=max(512, int(4096 * scale)),
        seed=seed,
    )
