"""The service's base simulation: an empty streaming cluster.

``build_service_cluster``/``finish_service_cluster`` are a registered
experiment (name ``"service-cluster"``), so service snapshots restore
through the exact same recipe machinery as every batch experiment.  Unlike
the batch builders it submits **no** workload — jobs stream in over the
service's lifetime and are reconstructed from the submission log on
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.units import MB

DEFAULT_N_NODES = 4
DEFAULT_CORES_PER_NODE = 8
DEFAULT_N_DATASETS = 8
DEFAULT_INPUT_SIZE = 256 * MB
DEFAULT_CHUNK_SIZE = 100 * MB


@dataclass
class ServiceSummary:
    """End-of-drain metrics of one service lifetime."""

    n_jobs: int
    makespan: float
    cache_hit_ratio: float
    mean_wait_time: float
    utilization: float


def build_service_cluster(*, n_nodes: int = DEFAULT_N_NODES,
                          cores_per_node: int = DEFAULT_CORES_PER_NODE,
                          n_datasets: int = DEFAULT_N_DATASETS,
                          input_size: float = DEFAULT_INPUT_SIZE,
                          chunk_size: float = DEFAULT_CHUNK_SIZE,
                          policy: str = "fifo",
                          placement: str = "cache",
                          eviction_policy: object = "lru",
                          fault_plan=None) -> Simulation:
    """Build the empty streaming cluster the service feeds (unstarted).

    Stages ``n_datasets`` shared input datasets replicated on every
    node's local disk (clients reference them by index) and attaches the
    pool as ``sim.service_datasets`` for the injection path.
    """
    simulation = Simulation(
        config=SimulationConfig(
            cache_mode="writeback",
            trace_interval=None,
            page_cache=PageCacheConfig(chunk_size=chunk_size,
                                       eviction_policy=eviction_policy),
        ),
        fault_plan=fault_plan,
    )
    simulation.create_cluster_platform(
        n_nodes, cores_per_node=cores_per_node, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(
        policy=policy, placement=placement, streaming=True
    )
    datasets: List[File] = [
        File(f"dataset{d}", input_size) for d in range(n_datasets)
    ]
    for dataset in datasets:
        simulation.stage_file_replicated(dataset)
    simulation.service_datasets = datasets
    return simulation


def finish_service_cluster(result, **_params) -> Optional[ServiceSummary]:
    """Reduce a drained service run to its summary metrics."""
    metrics = result.scheduler
    if metrics is None:
        return None
    return ServiceSummary(
        n_jobs=metrics.n_jobs,
        makespan=metrics.makespan,
        cache_hit_ratio=result.read_cache_hit_ratio(),
        mean_wait_time=metrics.mean_wait_time,
        utilization=metrics.utilization,
    )
