"""Disk I/O cost accounting.

The storage layer is *functionally* real (it stores and returns actual
bytes), but it runs on a simulated disk: every operation reports an
:class:`IOCost` (seeks, blocks, bytes, cache hits) which the simulated
runtime converts into virtual time via a :class:`DiskCostModel`.

The model captures what the paper's storage design relies on: edges of one
type are stored contiguously, so scanning them is one seek plus sequential
block reads, which "could obtain the best performance on block-based storage
devices" (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOCost:
    """Additive I/O cost of one or more storage operations.

    ``seeks`` is fractional: batch-sorted access patterns amortize head
    movement, which engines express by scaling the seek count (see
    ``EngineOptions.batch_seek_factor``).
    """

    seeks: float = 0
    blocks: int = 0
    bytes: int = 0
    cache_hits: int = 0

    def __add__(self, other: "IOCost") -> "IOCost":
        return IOCost(
            seeks=self.seeks + other.seeks,
            blocks=self.blocks + other.blocks,
            bytes=self.bytes + other.bytes,
            cache_hits=self.cache_hits + other.cache_hits,
        )

    def __iadd__(self, other: "IOCost") -> "IOCost":
        self.seeks += other.seeks
        self.blocks += other.blocks
        self.bytes += other.bytes
        self.cache_hits += other.cache_hits
        return self

    @property
    def is_zero(self) -> bool:
        return self.seeks == 0 and self.blocks == 0 and self.cache_hits == 0


@dataclass(frozen=True)
class DiskCostModel:
    """Converts :class:`IOCost` into virtual seconds.

    Defaults approximate the paper's environment: RocksDB files on GPFS
    (parallel filesystem — higher per-request latency than a local disk, the
    paper measured local disks ~10% faster). A "seek" stands for any
    first-byte latency (metadata + head movement / network hop to the FS),
    a "block" for streaming one 4 KiB block.
    """

    seek_time: float = 2.0e-3  # seconds per random access
    block_time: float = 5.0e-5  # seconds per sequential 4 KiB block
    block_size: int = 4096  # bytes
    #: per-block cost of a page-cache-resident read: no device access, but
    #: the storage engine still locates and decodes the block (RocksDB-style
    #: read amplification). Calibrated so warm visits land in the tens of
    #: microseconds, the regime the paper's throughput numbers imply.
    cache_hit_time: float = 25e-6

    def time(self, cost: IOCost) -> float:
        """Virtual seconds this cost takes on the modelled device."""
        return (
            cost.seeks * self.seek_time
            + cost.blocks * self.block_time
            + cost.cache_hits * self.cache_hit_time
        )


#: A model for local hard disks (paper: ~10% faster than GPFS end-to-end).
LOCAL_DISK = DiskCostModel(seek_time=1.6e-3, block_time=4.0e-5, cache_hit_time=20e-6)

#: A model for a parallel filesystem (GPFS); the evaluation default.
GPFS = DiskCostModel(seek_time=2.0e-3, block_time=5.0e-5)
