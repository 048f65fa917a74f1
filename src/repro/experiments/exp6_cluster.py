"""Exp 6 — batch scheduling over a multi-node cluster.

The paper's experiments (Exps 1-4) exercise one workflow per host; Exp 6
opens the multi-tenant scenario space: a stream of batch jobs arrives at a
cluster of compute nodes, each node holding a full replica of a shared pool
of input datasets on its local SSD, and a batch scheduler decides when
(policy: FIFO, SJF, EASY backfilling) and where (placement: round-robin,
least-loaded, cache-locality-aware) each job runs.

Because the simulator models every node's page cache, placement decisions
have a measurable data-locality effect: sending a job to the node that
already holds its input bytes in memory turns a disk-bandwidth read into a
memory-bandwidth read.  The experiment compares placement strategies on the
cluster-level metrics — page-cache hit ratio, makespan, mean wait time,
bounded slowdown, utilization and throughput — over a seeded random
workload (Poisson arrivals, datasets and job sizes drawn from a
:class:`~repro.rng.DeterministicRNG`), so every run is reproducible by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.experiments.runner import run_named_sweep
from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.rng import DeterministicRNG
from repro.scheduler.arrivals import PoissonArrivalProcess
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.units import GB, MB

#: Placement strategies compared in the experiment.
EXP6_PLACEMENTS: Tuple[str, ...] = ("round-robin", "least-loaded", "cache")

#: Default experiment scale (kept ≥ the acceptance floor of 100 jobs / 8 nodes).
DEFAULT_N_JOBS = 120
DEFAULT_N_NODES = 8
DEFAULT_N_DATASETS = 16
DEFAULT_CORES_PER_NODE = 8
DEFAULT_INPUT_SIZE = 1 * GB
DEFAULT_OUTPUT_SIZE = 256 * MB
DEFAULT_ARRIVAL_RATE = 3.0  # jobs per simulated second
DEFAULT_CHUNK_SIZE = 100 * MB
DEFAULT_SEED = 42


@dataclass
class ClusterPoint:
    """Cluster-level metrics of one (policy, placement) run."""

    policy: str
    placement: str
    n_jobs: int
    n_nodes: int
    makespan: float
    cache_hit_ratio: float
    mean_wait_time: float
    mean_bounded_slowdown: float
    utilization: float
    throughput: float
    wallclock_time: float
    #: Fault-injection outcomes (all zero in fault-free runs).
    n_node_failures: int = 0
    n_job_restarts: int = 0
    lost_work_seconds: float = 0.0

    def as_row(self) -> Tuple[object, ...]:
        """Row of the Exp 6 report table."""
        return (
            self.placement,
            self.policy,
            100.0 * self.cache_hit_ratio,
            self.makespan,
            self.mean_wait_time,
            self.mean_bounded_slowdown,
            100.0 * self.utilization,
            self.throughput,
        )


def build_cluster_workload(simulation: Simulation, *,
                           n_jobs: int = DEFAULT_N_JOBS,
                           n_datasets: int = DEFAULT_N_DATASETS,
                           input_size: float = DEFAULT_INPUT_SIZE,
                           output_size: float = DEFAULT_OUTPUT_SIZE,
                           arrival_rate: float = DEFAULT_ARRIVAL_RATE,
                           seed: int = DEFAULT_SEED,
                           min_cores: int = 1,
                           max_cores: int = 4,
                           cpu_time_range: Tuple[float, float] = (2.0, 6.0),
                           ) -> None:
    """Stage the shared datasets and submit the seeded random job stream.

    Each job reads one of ``n_datasets`` shared input datasets (replicated
    on every node's local disk), computes for a few seconds and writes a
    private output file.  Arrival times follow a Poisson process; dataset,
    core count and CPU time are drawn from independent child streams of
    the same seed, so changing one draw never perturbs the others.
    """
    rng = DeterministicRNG(seed)
    datasets = [File(f"dataset{d}", input_size) for d in range(n_datasets)]
    for dataset in datasets:
        simulation.stage_file_replicated(dataset)

    arrivals = PoissonArrivalProcess(arrival_rate, rng.spawn("arrivals"))
    dataset_rng = rng.spawn("datasets")
    cores_rng = rng.spawn("cores")
    cpu_rng = rng.spawn("cpu-times")
    for index, arrival_time in enumerate(arrivals.generate(n_jobs)):
        dataset = dataset_rng.choice(datasets)
        cores = cores_rng.integer(min_cores, max_cores)
        cpu_time = cpu_rng.uniform(*cpu_time_range)
        label = f"job{index}"
        workflow = Workflow(label)
        workflow.add_task(
            Task.from_cpu_time(
                "process",
                cpu_time,
                inputs=[dataset],
                outputs=[File(f"{label}_out", output_size)],
            )
        )
        simulation.submit_job(
            workflow,
            cores=cores,
            arrival_time=arrival_time,
            label=label,
        )


def build_exp6(placement: str = "cache", *, policy: str = "fifo",
               n_jobs: int = DEFAULT_N_JOBS,
               n_nodes: int = DEFAULT_N_NODES,
               n_datasets: int = DEFAULT_N_DATASETS,
               cores_per_node: int = DEFAULT_CORES_PER_NODE,
               input_size: float = DEFAULT_INPUT_SIZE,
               output_size: float = DEFAULT_OUTPUT_SIZE,
               arrival_rate: float = DEFAULT_ARRIVAL_RATE,
               chunk_size: float = DEFAULT_CHUNK_SIZE,
               seed: int = DEFAULT_SEED,
               eviction_policy: object = "lru",
               fault_plan=None) -> Simulation:
    """Build the Exp 6 simulation (unstarted).

    ``eviction_policy`` selects every node cache's victim-selection policy
    (swept by the exp8 ablation); ``fault_plan`` injects seeded node
    crashes, stragglers and elasticity (exp9).  The defaults (LRU, no
    plan) leave the run bit-identical to the paper-faithful simulator.
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
    simulation.create_cluster_scheduler(policy=policy, placement=placement)
    build_cluster_workload(
        simulation,
        n_jobs=n_jobs,
        n_datasets=n_datasets,
        input_size=input_size,
        output_size=output_size,
        arrival_rate=arrival_rate,
        seed=seed,
    )
    return simulation


def finish_exp6(result, placement: str = "cache", *, policy: str = "fifo",
                n_nodes: int = DEFAULT_N_NODES, **_params) -> ClusterPoint:
    """Reduce a finished Exp 6 ``SimulationResult`` to its point metrics."""
    metrics = result.scheduler
    return ClusterPoint(
        policy=policy,
        placement=placement,
        n_jobs=metrics.n_jobs,
        n_nodes=n_nodes,
        makespan=metrics.makespan,
        cache_hit_ratio=result.read_cache_hit_ratio(),
        mean_wait_time=metrics.mean_wait_time,
        mean_bounded_slowdown=metrics.mean_bounded_slowdown(),
        utilization=metrics.utilization,
        throughput=metrics.throughput,
        wallclock_time=result.wallclock_time,
        n_node_failures=metrics.n_node_failures,
        n_job_restarts=metrics.n_job_restarts,
        lost_work_seconds=metrics.lost_work_seconds,
    )


def exp6_series(placements: Sequence[str] = EXP6_PLACEMENTS, *,
                policy: str = "fifo",
                workers: Union[None, int, str] = None,
                progress=None,
                **kwargs) -> Dict[str, ClusterPoint]:
    """Run the same seeded workload under every placement strategy.

    One sweep point per placement, fanned out across ``workers``
    processes (:func:`~repro.experiments.runner.run_named_sweep`); each
    point replays the identical seeded workload (the seed travels in the
    spec), so the comparison is workload-controlled by construction and
    the result dict is worker-count independent.
    """
    return run_named_sweep(
        "exp6",
        {
            placement: dict(placement=placement, policy=policy, **kwargs)
            for placement in placements
        },
        workers=workers,
        progress=progress,
    )


def exp6_policy_series(policies: Sequence[str] = ("fifo", "sjf", "easy"), *,
                       placement: str = "cache",
                       workers: Union[None, int, str] = None,
                       progress=None,
                       **kwargs) -> Dict[str, ClusterPoint]:
    """Run the same seeded workload under every scheduling policy."""
    return run_named_sweep(
        "exp6",
        {
            policy: dict(placement=placement, policy=policy, **kwargs)
            for policy in policies
        },
        workers=workers,
        progress=progress,
    )


def exp6_grid(policies: Sequence[str], placements: Sequence[str], *,
              workers: Union[None, int, str] = None,
              progress=None,
              **kwargs) -> Dict[Tuple[str, str], ClusterPoint]:
    """The full policy × placement comparison as one flat sweep.

    Returns ``{(policy, placement): ClusterPoint}`` in grid order.
    """
    return run_named_sweep(
        "exp6",
        {
            (policy, placement): dict(placement=placement, policy=policy,
                                      **kwargs)
            for policy in policies
            for placement in placements
        },
        workers=workers,
        progress=progress,
    )


def exp6_report(points: Dict[str, ClusterPoint],
                title: Optional[str] = None) -> str:
    """Render the Exp 6 comparison as a plain-text table."""
    first = next(iter(points.values()))
    header = title or (
        f"Exp 6 — {first.n_jobs} jobs over {first.n_nodes} nodes "
        f"(policy: {first.policy})"
    )
    return format_table(
        [
            "Placement",
            "Policy",
            "Cache hit (%)",
            "Makespan (s)",
            "Mean wait (s)",
            "Bounded slowdown",
            "Utilization (%)",
            "Jobs/s",
        ],
        [point.as_row() for point in points.values()],
        title=header,
        precision=2,
    )
