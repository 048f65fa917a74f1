"""Linux page cache simulation model (the paper's primary contribution).

The model follows Section III of the paper:

* :class:`~repro.pagecache.extents.ExtentRun` — the storage unit of the
  LRU lists: one file's fragments in one state, packed as numbers in one
  row and coalesced losslessly (fragments keep their exact sizes; joining
  runs performs no byte arithmetic).  A fragment — four doubles of its
  run's row: size, entry time, last access and stamp, with the file name,
  dirty flag and storage kept once per run — is the paper's *data block*,
  a set of file pages cached by a single I/O operation (Figure 2).
* :class:`~repro.pagecache.lru.LRUList` and
  :class:`~repro.pagecache.lru.PageCacheLists` — the kernel's two-list
  (active/inactive) LRU structure, balanced so that the active list never
  exceeds twice the inactive list.
* :class:`~repro.pagecache.policy.EvictionPolicy` — pluggable victim
  selection over the extent runs: LRU (the bit-identical default), ARC,
  2Q, CLOCK-Pro and a priority-weighted policy fed by scheduler events;
  selected through ``PageCacheConfig(eviction_policy=...)``.
* :class:`~repro.pagecache.memory_manager.MemoryManager` — flushing,
  eviction, cached I/O accounting, anonymous memory, and the periodical
  flush background thread (Algorithm 1).
* :class:`~repro.pagecache.io_controller.IOController` — chunk-by-chunk
  file reads (Algorithm 2) and writes (Algorithm 3) in writeback mode,
  plus the writethrough write path.
"""

from repro.pagecache.config import PageCacheConfig
from repro.pagecache.extents import ExtentRun
from repro.pagecache.lru import LRUList, PageCacheLists
from repro.pagecache.memory_manager import MemoryManager
from repro.pagecache.io_controller import IOController
from repro.pagecache.policy import (
    ARCPolicy,
    ClockProPolicy,
    EvictionPolicy,
    LRUPolicy,
    POLICIES,
    PriorityWeightedPolicy,
    TwoQPolicy,
    make_eviction_policy,
)
from repro.pagecache.stats import (
    CacheStatistics,
    EvictionPolicyStats,
    ExtentOccupancy,
    StatsSource,
)

__all__ = [
    "ExtentRun",
    "PageCacheConfig",
    "LRUList",
    "PageCacheLists",
    "MemoryManager",
    "IOController",
    "CacheStatistics",
    "ExtentOccupancy",
    "EvictionPolicyStats",
    "StatsSource",
    "EvictionPolicy",
    "LRUPolicy",
    "ARCPolicy",
    "TwoQPolicy",
    "ClockProPolicy",
    "PriorityWeightedPolicy",
    "POLICIES",
    "make_eviction_policy",
]
