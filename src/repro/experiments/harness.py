"""Common experiment harness.

The evaluation compares four "simulators", all built from the same library
but configured differently:

``"wrench"``
    The original cacheless WRENCH simulator: symmetric averaged bandwidths
    (Table III), all I/O at disk bandwidth, no page cache.
``"wrench-cache"``
    The paper's contribution: same symmetric bandwidths, page cache model
    enabled (writeback locally, writethrough NFS server remotely).
``"pysim"``
    The standalone Python prototype: identical page cache algorithms but a
    contention-oblivious storage model (no bandwidth sharing), only
    meaningful for single-threaded scenarios (Exp 1).
``"real"``
    The calibrated reference standing in for the real cluster executions
    (see DESIGN.md §4): the same page-cache engine at higher fidelity —
    measured asymmetric bandwidths, eviction protection of files being
    written, dirty threshold computed against available memory.

:func:`build_simulation` returns a ready-to-use
:class:`~repro.simulator.simulation.Simulation` plus its storage service
for any of these simulators, for local-disk or NFS scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.calibration import TABLE3_BANDWIDTHS
from repro.pagecache.config import PageCacheConfig
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.storage_service import StorageService
from repro.units import GiB, MB

#: Simulator kinds accepted by the harness.
SIMULATORS = ("wrench", "wrench-cache", "pysim", "real")

#: Total memory of a compute node (250 GiB in the paper's cluster).
NODE_MEMORY = 250 * GiB

#: Capacity used for simulated disks.  The paper's nodes have 450 GB SSDs,
#: but Exp 1 writes up to 3 x 100 GB on one disk; we keep the experiments
#: focused on I/O time rather than capacity management.
DISK_CAPACITY = float("inf")


@dataclass
class ScenarioConfig:
    """Where the application's data lives and how the simulation observes it.

    Attributes
    ----------
    nfs:
        If true, the data is on an NFS-mounted remote disk (Exp 3);
        otherwise on the local SSD of the compute node (Exp 1, 2, 4).
    chunk_size:
        I/O granularity used by the page-cache simulators (their
        :class:`PageCacheConfig` chunk size).
    trace_interval:
        Memory-profile sampling period (``None`` disables sampling, which
        speeds up large concurrency sweeps).
    compute_nodes:
        Number of compute nodes in the platform (the experiments use one).
    cores_per_node:
        CPU cores per compute node (32 on the paper's cluster).
    eviction_policy:
        Victim-selection policy of the page caches (a registered name or
        spec, see :mod:`repro.pagecache.policy`); the default LRU is the
        paper-faithful, parity-pinned behaviour.
    """

    nfs: bool = False
    chunk_size: float = 100 * MB
    trace_interval: Optional[float] = None
    compute_nodes: int = 1
    cores_per_node: int = 32
    eviction_policy: object = "lru"


def _page_cache_config(simulator: str, chunk_size: float,
                       eviction_policy: object = "lru") -> PageCacheConfig:
    if simulator == "real":
        return PageCacheConfig.reference().with_updates(
            chunk_size=chunk_size, eviction_policy=eviction_policy
        )
    return PageCacheConfig(chunk_size=chunk_size,
                           eviction_policy=eviction_policy)


def build_simulation(simulator: str,
                     scenario: Optional[ScenarioConfig] = None,
                     ) -> Tuple[Simulation, StorageService]:
    """Build a simulation and its storage service for one simulator kind.

    Returns ``(simulation, storage_service)``; the caller stages input
    files, submits workflows and calls ``simulation.run()``.
    """
    if simulator not in SIMULATORS:
        raise ConfigurationError(
            f"unknown simulator {simulator!r}; expected one of {SIMULATORS}"
        )
    scenario = scenario or ScenarioConfig()
    table = TABLE3_BANDWIDTHS

    cache_mode = "none" if simulator == "wrench" else "writeback"
    config = SimulationConfig(
        cache_mode=cache_mode,
        page_cache=_page_cache_config(simulator, scenario.chunk_size,
                                      scenario.eviction_policy),
        trace_interval=scenario.trace_interval,
    )
    simulation = Simulation(config=config)

    platform_kwargs = dict(
        compute_nodes=scenario.compute_nodes,
        cores_per_node=scenario.cores_per_node,
        memory_size=NODE_MEMORY,
        local_disk_capacity=DISK_CAPACITY,
        remote_disk_capacity=DISK_CAPACITY,
        with_nfs_server=scenario.nfs,
        sharing=(simulator != "pysim"),
    )
    if simulator == "real":
        # Calibrated reference: measured, asymmetric bandwidths.
        platform_kwargs.update(
            memory_read_bandwidth=table.memory.real_read,
            memory_write_bandwidth=table.memory.real_write,
            memory_bandwidth=table.memory.real_read,
            local_disk_read_bandwidth=table.local_disk.real_read,
            local_disk_write_bandwidth=table.local_disk.real_write,
            local_disk_bandwidth=table.local_disk.real_read,
            remote_disk_read_bandwidth=table.remote_disk.real_read,
            remote_disk_write_bandwidth=table.remote_disk.real_write,
            remote_disk_bandwidth=table.remote_disk.real_read,
            network_bandwidth=table.network.real_read,
        )
    else:
        # Paper-faithful simulators: symmetric averaged bandwidths.
        platform_kwargs.update(
            memory_bandwidth=table.memory.simulated,
            local_disk_bandwidth=table.local_disk.simulated,
            remote_disk_bandwidth=table.remote_disk.simulated,
            network_bandwidth=table.network.simulated,
        )
    simulation.create_cluster_platform(**platform_kwargs)

    if scenario.nfs:
        service = simulation.create_nfs_storage_service(
            "storage1",
            "/export",
            cache_mode=("none" if simulator == "wrench" else "writethrough"),
        )
    else:
        service = simulation.create_storage_service(
            "node1",
            "/local",
            cache_mode=cache_mode,
        )
    return simulation, service
