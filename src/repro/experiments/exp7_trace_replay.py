"""Exp 7 — real-workload replay with preemptive priority scheduling.

Exp 6 validated cache-locality-aware placement on a synthetic Poisson
workload; Exp 7 replays a *recorded* cluster log in the Standard Workload
Format (the community trace format of the Parallel Workloads Archive)
against the same simulated cluster.  The bundled anonymized sample trace
(``benchmarks/data/sample.swf``) carries three priority classes encoded as
SWF queues: long low-priority batch jobs that saturate the cluster, medium
normal jobs, and short high-priority interactive jobs arriving throughout.

The experiment compares scheduling policies on the replayed trace.  Under
FIFO, short high-priority jobs queue behind wide batch jobs and their
bounded slowdown explodes; the preemptive priority policy suspends
lower-priority jobs (checkpoint-and-requeue with a configurable lost-work
penalty) and starts urgent jobs almost immediately, trading a bounded
amount of redone work for an order-of-magnitude cut in high-priority
slowdown.  Cache-locality-aware placement keeps its page-cache hit-ratio
edge over round-robin on the replayed workload, showing the two mechanisms
compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.runner import run_named_sweep
from repro.pagecache.config import PageCacheConfig
from repro.scheduler.metrics import PriorityClassMetrics
from repro.scheduler.swf import SWFTrace, load_swf
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.units import GB, MB

#: Policies compared in the experiment.
EXP7_POLICIES: Tuple[str, ...] = ("fifo", "preemptive-priority")

#: Default experiment scale.
DEFAULT_N_NODES = 8
DEFAULT_CORES_PER_NODE = 8
#: Trace-scaling knobs: compress arrivals 40x and runtimes 50x so the
#: ~20-minute sample trace replays in a few simulated minutes at a load
#: that keeps the cluster saturated (where policy choice matters).
DEFAULT_LOAD_FACTOR = 40.0
DEFAULT_RUNTIME_SCALE = 0.02
DEFAULT_DATASET_SIZE = 1 * GB
DEFAULT_OUTPUT_SIZE = 128 * MB
DEFAULT_CHUNK_SIZE = 100 * MB
#: Compute seconds redone after each preemption (checkpoint restore cost).
DEFAULT_LOST_WORK_PENALTY = 0.5


def default_trace_path() -> Path:
    """Location of the bundled anonymized sample trace."""
    return (
        Path(__file__).resolve().parents[3] / "benchmarks" / "data" / "sample.swf"
    )


@dataclass
class TracePoint:
    """Metrics of one (policy, placement) replay of the trace."""

    policy: str
    placement: str
    n_jobs: int
    n_nodes: int
    makespan: float
    cache_hit_ratio: float
    mean_wait_time: float
    mean_bounded_slowdown: float
    utilization: float
    n_preemptions: int
    #: Per-priority-class summaries, keyed by priority (descending).
    classes: Dict[int, PriorityClassMetrics]
    wallclock_time: float
    #: Fault-injection outcomes (all zero in fault-free replays).
    n_node_failures: int = 0
    n_job_restarts: int = 0
    lost_work_seconds: float = 0.0

    @property
    def high_priority(self) -> PriorityClassMetrics:
        """Summary of the highest priority class."""
        return self.classes[max(self.classes)]

    def as_row(self) -> Tuple[object, ...]:
        """Row of the Exp 7 report table."""
        high = self.high_priority
        return (
            self.policy,
            self.placement,
            100.0 * self.cache_hit_ratio,
            self.makespan,
            self.mean_bounded_slowdown,
            high.mean_wait_time,
            high.mean_bounded_slowdown,
            self.n_preemptions,
        )


def build_exp7(policy: str = "preemptive-priority", *,
               placement: str = "cache",
               trace: Union[None, str, Path, SWFTrace] = None,
               n_nodes: int = DEFAULT_N_NODES,
               cores_per_node: int = DEFAULT_CORES_PER_NODE,
               max_jobs: Optional[int] = None,
               load_factor: float = DEFAULT_LOAD_FACTOR,
               runtime_scale: float = DEFAULT_RUNTIME_SCALE,
               dataset_size: float = DEFAULT_DATASET_SIZE,
               output_size: float = DEFAULT_OUTPUT_SIZE,
               chunk_size: float = DEFAULT_CHUNK_SIZE,
               lost_work_penalty: float = DEFAULT_LOST_WORK_PENALTY,
               eviction_policy: object = "lru",
               fault_plan=None) -> Simulation:
    """Build the Exp 7 replay simulation (unstarted).

    ``trace`` is a path (default: the bundled sample) or an in-memory
    :class:`SWFTrace`; only a path can be snapshotted.
    ``eviction_policy`` and ``fault_plan`` work as in
    :func:`~repro.experiments.exp6_cluster.build_exp6`.
    """
    if trace is None:
        trace = default_trace_path()
    if not isinstance(trace, SWFTrace):
        trace_path = Path(trace)
        if not trace_path.exists():
            raise ConfigurationError(
                f"SWF trace {trace_path} not found; pass trace= explicitly"
            )
        trace = load_swf(trace_path)

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
        policy=policy,
        placement=placement,
        lost_work_penalty=lost_work_penalty,
    )
    simulation.submit_trace(
        trace,
        max_jobs=max_jobs,
        load_factor=load_factor,
        runtime_scale=runtime_scale,
        dataset_size=dataset_size,
        output_size=output_size,
    )
    return simulation


def finish_exp7(result, policy: str = "preemptive-priority", *,
                placement: str = "cache",
                n_nodes: int = DEFAULT_N_NODES, **_params) -> TracePoint:
    """Reduce a finished Exp 7 ``SimulationResult`` to its point metrics."""
    metrics = result.scheduler
    return TracePoint(
        policy=policy,
        placement=placement,
        n_jobs=metrics.n_jobs,
        n_nodes=n_nodes,
        makespan=metrics.makespan,
        cache_hit_ratio=result.read_cache_hit_ratio(),
        mean_wait_time=metrics.mean_wait_time,
        mean_bounded_slowdown=metrics.mean_bounded_slowdown(),
        utilization=metrics.utilization,
        n_preemptions=metrics.n_preemptions,
        classes=metrics.priority_class_metrics(),
        wallclock_time=result.wallclock_time,
        n_node_failures=metrics.n_node_failures,
        n_job_restarts=metrics.n_job_restarts,
        lost_work_seconds=metrics.lost_work_seconds,
    )


def exp7_series(policies: Sequence[str] = EXP7_POLICIES, *,
                placement: str = "cache",
                workers: Union[None, int, str] = None,
                progress=None,
                **kwargs) -> Dict[str, TracePoint]:
    """Replay the same trace under every policy.

    One sweep point per policy (the trace travels in the spec — an
    :class:`~repro.scheduler.swf.SWFTrace` pickles as plain dataclasses,
    a path is loaded inside the worker), fanned out across ``workers``
    processes via :func:`~repro.experiments.runner.run_named_sweep`.
    """
    return run_named_sweep(
        "exp7",
        {
            policy: dict(policy=policy, placement=placement, **kwargs)
            for policy in policies
        },
        workers=workers,
        progress=progress,
    )


def exp7_placement_series(placements: Sequence[str] = ("round-robin", "cache"), *,
                          policy: str = "preemptive-priority",
                          workers: Union[None, int, str] = None,
                          progress=None,
                          **kwargs) -> Dict[str, TracePoint]:
    """Replay the same trace under every placement strategy."""
    return run_named_sweep(
        "exp7",
        {
            placement: dict(policy=policy, placement=placement, **kwargs)
            for placement in placements
        },
        workers=workers,
        progress=progress,
    )


def exp7_report(points: Dict[str, TracePoint],
                title: Optional[str] = None) -> str:
    """Render the Exp 7 comparison as a plain-text table."""
    first = next(iter(points.values()))
    header = title or (
        f"Exp 7 — SWF trace replay: {first.n_jobs} jobs over "
        f"{first.n_nodes} nodes (placement: {first.placement})"
    )
    return format_table(
        [
            "Policy",
            "Placement",
            "Cache hit (%)",
            "Makespan (s)",
            "Slowdown (all)",
            "High-prio wait (s)",
            "High-prio slowdown",
            "Preemptions",
        ],
        [point.as_row() for point in points.values()],
        title=header,
        precision=2,
    )
