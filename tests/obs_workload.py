"""Shared workload for the telemetry tests (golden export + parity).

A small Exp 6-style cluster run: a few seeded batch jobs over two cached
nodes, with both the memory-profile tracer and the DES sampler active.
Small enough to run in well under a second, rich enough to exercise every
span category the exporter pins (jobs, operations, file I/O, flows, DES
processes) plus the sampled counter tracks.

Bump ``WORKLOAD_VERSION`` whenever the workload itself changes, and
regenerate the golden with ``tests/record_obs_golden.py``.
"""

from __future__ import annotations

from repro.experiments.exp6_cluster import build_cluster_workload
from repro.pagecache.config import PageCacheConfig
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.units import MB

WORKLOAD_VERSION = 1


def build_small_exp6(observe=False) -> Simulation:
    """A 6-job / 2-node cluster simulation (not yet run)."""
    simulation = Simulation(
        config=SimulationConfig(
            cache_mode="writeback",
            page_cache=PageCacheConfig(chunk_size=4 * MB),
            trace_interval=1.0,
        ),
        observe=observe,
    )
    simulation.create_cluster_platform(
        2, cores_per_node=4, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(policy="fifo", placement="cache")
    build_cluster_workload(
        simulation,
        n_jobs=6,
        n_datasets=3,
        input_size=64 * MB,
        output_size=16 * MB,
        arrival_rate=1.0,
        seed=7,
    )
    return simulation


def run_observed_exp6():
    """Run the small workload with telemetry on; returns (result, observer)."""
    simulation = build_small_exp6(observe=True)
    result = simulation.run()
    return result, result.observer


def result_fingerprint(result) -> dict:
    """Everything simulated (no wall-clock) as a canonical structure.

    Used by the parity test: two runs are considered identical when this
    structure serializes to the same JSON bytes.  ``wallclock_time`` and
    the observer are deliberately excluded — they are the only fields a
    telemetry toggle is allowed to change.
    """
    return {
        "makespan": result.makespan,
        "operations": [record.as_dict() for record in result.operations],
        "memory_trace": [snap.as_dict() for snap in result.memory_trace],
        "cache_stats": {
            host: stats.as_dict() for host, stats in result.cache_stats.items()
        },
        "app_makespans": result.app_makespans,
        "scheduler": (
            result.scheduler.as_dict() if result.scheduler is not None else None
        ),
    }
