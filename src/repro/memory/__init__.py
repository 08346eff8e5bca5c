"""Data memory subsystem: caches, TLB, load/store queues.

These components are shared by all clusters (paper Figure 1): the store
buffer, load queue, D-TLB and the D-cache hierarchy sit outside the
clusters, and memory instructions reach them through each cluster's memory
functional unit.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.memory.cache": ("Cache", "MainMemory"),
    "repro.memory.tlb": ("TLB",),
    "repro.memory.hierarchy": ("MemoryHierarchy",),
    "repro.memory.lsq": ("LoadQueue", "StoreBuffer"),
})
