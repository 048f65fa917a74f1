"""WRENCH-like workflow simulation layer.

This package provides the high-level abstractions a simulator author works
with, mirroring the WRENCH framework the paper extends:

* :class:`~repro.simulator.workflow.Task` and
  :class:`~repro.simulator.workflow.Workflow` — application descriptions
  (tasks with injected CPU times, input and output files);
* storage services (:mod:`repro.simulator.storage_service`) — cacheless
  (original WRENCH), page-cached (WRENCH-cache, writeback or writethrough)
  and NFS (remote server with its own page cache), reading and writing in
  chunks of :class:`~repro.pagecache.config.PageCacheConfig`'s chunk size;
* the workflow executor (:mod:`repro.simulator.wms`), whose tasks compute
  on their host's CPU (:class:`~repro.platform.cpu.CPU`);
* execution tracing (:mod:`repro.simulator.tracing`) — per-operation times,
  memory profiles and per-file cache contents, i.e. everything plotted in
  Figures 4-7 of the paper;
* the :class:`~repro.simulator.simulation.Simulation` facade tying it all
  together.
"""

from repro.filesystem.file import File
from repro.simulator.workflow import Task, Workflow
from repro.simulator.storage_service import (
    StorageService,
    PageCachedStorageService,
    NFSStorageService,
)
from repro.simulator.cacheless import SimpleStorageService
from repro.simulator.tracing import OperationRecord, Tracer
from repro.simulator.wms import WorkflowExecutor
from repro.simulator.simulation import Simulation, SimulationConfig, SimulationResult

__all__ = [
    "File",
    "Task",
    "Workflow",
    "StorageService",
    "SimpleStorageService",
    "PageCachedStorageService",
    "NFSStorageService",
    "OperationRecord",
    "Tracer",
    "WorkflowExecutor",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
]
