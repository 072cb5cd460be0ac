"""Disk substrate: block devices, I/O accounting, page and object stores.

Everything above this package treats storage through these abstractions so
the paper's disk-access metrics (random vs. sequential block accesses,
object accesses, structure sizes) are measured, not estimated.
"""

from repro.storage.allocator import ExtentAllocator
from repro.storage.block import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    FileBlockDevice,
    InMemoryBlockDevice,
)
from repro.storage.faults import (
    CrashTimer,
    FaultInjectingDevice,
    FaultPlan,
    SimulatedCrash,
    inject_engine_faults,
    retry_transient,
)
from repro.storage.intern import Intern
from repro.storage.iostats import IOCounts, IOStats, collecting_io
from repro.storage.sharedread import (
    SharedReadSession,
    activate_session,
    current_session,
    shared_read_session,
)
from repro.storage.objectstore import OBJECT_CATEGORY, ObjectStore, decode_row, encode_row
from repro.storage.pagestore import PageStore
from repro.storage.serialization import (
    HEADER_SIZE,
    blocks_per_node,
    decode_node,
    encode_node,
    entry_size,
    node_byte_size,
    node_capacity,
)
from repro.storage.timing import DEFAULT_DRIVE, DriveModel

__all__ = [
    "BlockDevice",
    "CrashTimer",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_DRIVE",
    "DriveModel",
    "ExtentAllocator",
    "FaultInjectingDevice",
    "FaultPlan",
    "FileBlockDevice",
    "HEADER_SIZE",
    "IOCounts",
    "IOStats",
    "InMemoryBlockDevice",
    "Intern",
    "SimulatedCrash",
    "OBJECT_CATEGORY",
    "ObjectStore",
    "PageStore",
    "SharedReadSession",
    "activate_session",
    "blocks_per_node",
    "collecting_io",
    "current_session",
    "shared_read_session",
    "decode_node",
    "decode_row",
    "encode_node",
    "encode_row",
    "entry_size",
    "inject_engine_faults",
    "node_byte_size",
    "node_capacity",
    "retry_transient",
]
