"""Shared-memory substrate: memzones, rings and mempools.

These model the DPDK objects the prototype is built from:

* :class:`~repro.mem.memzone.MemzoneRegistry` — named shared-memory
  segments (DPDK memzones on hugepages; exposed to VMs as ivshmem BARs).
* :class:`~repro.mem.ring.Ring` — fixed-capacity single-producer,
  single-consumer FIFO with bulk/burst enqueue/dequeue, mirroring
  ``rte_ring`` semantics.
* :class:`~repro.mem.mempool.Mempool` — mbuf allocator with per-consumer
  caching, mirroring ``rte_mempool``.
"""

from repro.mem.memzone import Memzone, MemzoneError, MemzoneRegistry
from repro.mem.mempool import (
    Mempool,
    MempoolDoubleFreeError,
    MempoolEmptyError,
    ReclaimReport,
)
from repro.mem.ring import Ring, RingFullError, RingEmptyError

__all__ = [
    "Mempool",
    "MempoolDoubleFreeError",
    "MempoolEmptyError",
    "ReclaimReport",
    "Memzone",
    "MemzoneError",
    "MemzoneRegistry",
    "Ring",
    "RingEmptyError",
    "RingFullError",
]
