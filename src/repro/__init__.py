"""pagecache-sim: simulation of the Linux page cache for data-intensive applications.

This package is a from-scratch Python reproduction of the simulation model
described in:

    H.-D. Do, V. Hayot-Sasson, R. Ferreira da Silva, C. Steele, H. Casanova,
    T. Glatard, "Modeling the Linux page cache for accurate simulation of
    data-intensive applications", IEEE CLUSTER 2021 (arXiv:2101.01335).

The package is organised in layers:

``repro.des``
    A discrete-event simulation kernel (environment, events, processes,
    resources) playing the role SimGrid/SimPy play in the original work.
``repro.platform``
    Hardware models: disks, memory devices and network links with
    fair-sharing bandwidth models, grouped into hosts and platforms.
``repro.pagecache``
    The paper's primary contribution: data blocks (each one a fragment
    row of an extent run), two-list LRU, the Memory Manager and the I/O
    Controller (Algorithms 1-3).
``repro.filesystem``
    Files and the registry of their locations.
``repro.simulator``
    A WRENCH-like workflow simulation facade: storage services (local,
    cacheless and NFS), workflows, a workflow management system whose
    tasks compute on their host's CPU, and execution tracing.
``repro.scheduler``
    A cluster batch-scheduler subsystem: job queues with seeded arrival
    generators, pluggable scheduling policies (FIFO, SJF, EASY
    backfilling) and placement strategies (round-robin, least-loaded,
    cache-locality-aware).
``repro.apps``
    The applications evaluated in the paper (synthetic pipeline, Nighres).
``repro.experiments``
    The evaluation harness regenerating every table and figure.
``repro.snapshot``
    Snapshot/restore of full simulator state: versioned snapshot
    files (recipe + replay-to-T + verified state fingerprint) and
    warm-start branching of scheduler variants off one restore.
"""

from repro.version import __version__

from repro.des import Environment
from repro.units import B, KB, MB, GB, KiB, MiB, GiB
from repro.simulator import (
    File,
    Task,
    Workflow,
    Simulation,
    SimulationConfig,
)
from repro.pagecache import (
    LRUList,
    PageCacheConfig,
    MemoryManager,
    IOController,
)
from repro.rng import DeterministicRNG
from repro.scheduler import (
    ClusterScheduler,
    Job,
    SchedulerMetrics,
)

__all__ = [
    "__version__",
    "Environment",
    "B",
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GiB",
    "File",
    "Task",
    "Workflow",
    "Simulation",
    "SimulationConfig",
    "LRUList",
    "PageCacheConfig",
    "MemoryManager",
    "IOController",
    "DeterministicRNG",
    "ClusterScheduler",
    "Job",
    "SchedulerMetrics",
]
