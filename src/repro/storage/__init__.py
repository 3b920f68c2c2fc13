"""Storage substrate: an LSM key-value store and the graph-on-KV layout.

This package stands in for the paper's per-server RocksDB instances plus its
GraphMeta layout (attributes and same-label edges stored as adjacent KV
pairs). All reads report an :class:`~repro.storage.costmodel.IOCost` that the
simulated runtime converts to virtual disk time.
"""

from repro.storage.blockcache import BlockCache
from repro.storage.bloom import BloomFilter
from repro.storage.columnar import AdjacencyBlock
from repro.storage.costmodel import GPFS, LOCAL_DISK, DiskCostModel, IOCost
from repro.storage.layout import EDGE_LAYOUTS, GraphStore, validate_edge_layout
from repro.storage.lsm import LSMConfig, LSMStats, LSMStore
from repro.storage.memtable import Memtable, TOMBSTONE
from repro.storage.persist import (
    checkpoint_graph_store,
    checkpoint_store,
    restore_graph_store,
    restore_store,
)
from repro.storage.sstable import SSTable, merge_runs

__all__ = [
    "AdjacencyBlock",
    "BlockCache",
    "BloomFilter",
    "EDGE_LAYOUTS",
    "validate_edge_layout",
    "DiskCostModel",
    "GPFS",
    "LOCAL_DISK",
    "IOCost",
    "GraphStore",
    "LSMConfig",
    "LSMStats",
    "LSMStore",
    "Memtable",
    "TOMBSTONE",
    "SSTable",
    "merge_runs",
    "checkpoint_graph_store",
    "checkpoint_store",
    "restore_graph_store",
    "restore_store",
]
