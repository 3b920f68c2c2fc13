"""Messaging layer: typed RPC messages and the network latency model."""

from repro.net.message import (
    Anchors,
    Entries,
    ExecStatus,
    Message,
    ResultReport,
    SuccessReport,
    SyncBatch,
    SyncStartStep,
    SyncStepDone,
    TraverseRequest,
    entries_nbytes,
)
from repro.net.reliable import AckFrame, DataFrame, ReliableChannel
from repro.net.topology import ETHERNET_10G, INFINIBAND_QDR, NetworkModel

__all__ = [
    "AckFrame",
    "DataFrame",
    "ReliableChannel",
    "Anchors",
    "Entries",
    "ExecStatus",
    "Message",
    "ResultReport",
    "SuccessReport",
    "SyncBatch",
    "SyncStartStep",
    "SyncStepDone",
    "TraverseRequest",
    "entries_nbytes",
    "ETHERNET_10G",
    "INFINIBAND_QDR",
    "NetworkModel",
]
