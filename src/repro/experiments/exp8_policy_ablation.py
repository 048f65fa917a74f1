"""Exp 8 — eviction-policy ablation over the paper's workloads.

Exps 1-7 all run the kernel's LRU approximation (the paper-faithful,
parity-pinned default).  Exp 8 asks the follow-up question the pluggable
:class:`~repro.pagecache.policy.EvictionPolicy` API exists to answer: *does
victim selection matter for these workloads?*  It replays a fixed set of
workloads under every registered policy (LRU, ARC, 2Q, CLOCK-Pro and the
scheduler-aware priority-weighted policy) and tabulates hit ratio and
makespan per (workload, policy) cell.

Workloads
---------
``"skewed"``
    A cache-adversarial loop on one node: a small *hot set* is re-read
    every round, interleaved with a stream of *one-shot* scan files that
    together overflow memory.  Pure LRU keeps the most recent bytes — the
    useless scans — and evicts the hot set; scan-resistant policies (ARC,
    2Q, CLOCK-Pro) keep the hot set resident and win on hit ratio.  This
    is the classic workload the ARC/2Q papers are built around, scaled so
    one round slightly exceeds memory.
``"exp5"``
    The Exp 2/5 concurrent-applications workload (wrench-cache simulator,
    reduced scale).  The working set fits in the node's 250 GiB memory, so
    all policies tie — an honest control showing victim selection is
    irrelevant without memory pressure.
``"exp6"``
    The Exp 6 cluster batch-scheduling workload (reduced scale), exercising
    the policy on every node cache under the cluster scheduler.
``"exp7"``
    The Exp 7 SWF trace replay (bounded job count) with preemptive
    priority scheduling — scheduler events fire, but the nodes' default
    250 GiB memory means victim selection is rarely exercised.
``"sched"``
    The scheduler-driven cell built *for* the priority-weighted policy: a
    small cluster with deliberately tight node memory runs long
    low-priority jobs that high-priority latecomers preempt, so the
    scheduler's dispatch *and* preemption hooks fire under real eviction
    pressure — the one cell where
    :class:`~repro.pagecache.policy.PriorityWeightedPolicy` has both its
    inputs (job priorities, preemption events) and a reason to use them
    (not every file fits).  :class:`PolicyPoint` reports the hook
    counters (``n_job_dispatches`` / ``n_job_preemptions``) for this
    cell, pinning down that the events actually happened.

Every workload is seeded or fully deterministic, so the ablation table is
byte-stable across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.des import Environment
from repro.errors import ConfigurationError
from repro.experiments.runner import run_named_sweep
from repro.pagecache import IOController, MemoryManager, PageCacheConfig
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.snapshot.recipe import run_experiment
from repro.units import GB, MB, MBps

#: Policies compared in the ablation (registry names, see
#: :data:`repro.pagecache.policy.POLICIES`).
EXP8_POLICIES: Tuple[str, ...] = ("lru", "arc", "2q", "clock-pro", "priority")

#: Workloads the ablation replays.
EXP8_WORKLOADS: Tuple[str, ...] = ("skewed", "exp5", "exp6", "exp7", "sched")

#: Skewed-workload scale: one round reads ``N_HOT`` hot files plus
#: ``N_ONESHOT`` fresh scan files; hot+scan bytes exceed memory so every
#: round forces evictions.
DEFAULT_N_HOT = 8
DEFAULT_N_ONESHOT = 12
DEFAULT_FILE_SIZE = 64 * MB
DEFAULT_ROUNDS = 6
DEFAULT_MEMORY_SIZE = 1 * GB
DEFAULT_CHUNK_SIZE = 16 * MB


@dataclass
class PolicyPoint:
    """One (workload, policy) cell of the ablation table.

    ``read_time`` is only meaningful for workloads that report a
    per-application read time (``skewed`` uses total simulated time);
    cluster workloads leave it at 0.
    """

    policy: str
    workload: str
    hit_ratio: float
    makespan: float
    read_time: float
    wallclock_time: float
    #: Scheduler hook counters summed over every node cache (``sched``
    #: cell only; other workloads leave them 0 even when hooks fire).
    n_job_dispatches: int = 0
    n_job_preemptions: int = 0

    def as_row(self) -> Tuple[object, ...]:
        """Row of the Exp 8 report table."""
        return (
            self.workload,
            self.policy,
            100.0 * self.hit_ratio,
            self.makespan,
        )


def run_skewed(policy: object = "lru", *,
               n_hot: int = DEFAULT_N_HOT,
               n_oneshot: int = DEFAULT_N_ONESHOT,
               file_size: float = DEFAULT_FILE_SIZE,
               rounds: int = DEFAULT_ROUNDS,
               memory_size: float = DEFAULT_MEMORY_SIZE,
               chunk_size: float = DEFAULT_CHUNK_SIZE) -> PolicyPoint:
    """Run the hot-set-plus-scans loop under one eviction policy.

    Single node, read-only: each round re-reads the ``n_hot`` hot files
    and then ``n_oneshot`` *new* scan files (never touched again), so the
    only quantity under test is which bytes the policy keeps.  The run is
    deterministic — there is no randomness at all, just a fixed loop.
    """
    import time

    start = time.perf_counter()
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 2000 * MBps, size=memory_size)
    disk = Disk.symmetric(env, "disk", 200 * MBps)
    config = PageCacheConfig(
        chunk_size=chunk_size,
        periodic_flushing=False,
        eviction_policy=policy,
    )
    mm = MemoryManager(env, memory, config, name="exp8-mm")
    io = IOController(env, mm)

    hot_files = [f"hot{i}" for i in range(n_hot)]

    def driver():
        for r in range(rounds):
            for name in hot_files:
                yield from io.read_file(
                    name, file_size, disk, use_anonymous_memory=False
                )
            for j in range(n_oneshot):
                yield from io.read_file(
                    f"scan{r}_{j}", file_size, disk,
                    use_anonymous_memory=False,
                )
        mm.stop()

    process = env.process(driver(), name="exp8-driver")
    env.run(until=process)
    return PolicyPoint(
        policy=mm.policy.name,
        workload="skewed",
        hit_ratio=mm.stats.hit_ratio,
        makespan=env.now,
        read_time=env.now,
        wallclock_time=time.perf_counter() - start,
    )


def _run_exp5(policy: object, **kwargs) -> PolicyPoint:
    params = dict(n_apps=4, input_size=512 * MB, chunk_size=64 * MB)
    params.update(kwargs)
    point = run_experiment("exp2", simulator="wrench-cache",
                           eviction_policy=policy, **params)
    return PolicyPoint(
        policy=str(policy),
        workload="exp5",
        hit_ratio=point.hit_ratio,
        makespan=point.makespan,
        read_time=point.read_time,
        wallclock_time=point.wallclock_time,
    )


def _run_exp6(policy: object, **kwargs) -> PolicyPoint:
    params = dict(n_jobs=40, n_nodes=4, n_datasets=8)
    params.update(kwargs)
    point = run_experiment("exp6", eviction_policy=policy, **params)
    return PolicyPoint(
        policy=str(policy),
        workload="exp6",
        hit_ratio=point.cache_hit_ratio,
        makespan=point.makespan,
        read_time=0.0,
        wallclock_time=point.wallclock_time,
    )


def _run_exp7(policy: object, **kwargs) -> PolicyPoint:
    params = dict(max_jobs=60, n_nodes=4)
    params.update(kwargs)
    point = run_experiment("exp7", eviction_policy=policy, **params)
    return PolicyPoint(
        policy=str(policy),
        workload="exp7",
        hit_ratio=point.cache_hit_ratio,
        makespan=point.makespan,
        read_time=0.0,
        wallclock_time=point.wallclock_time,
    )


#: ``sched``-cell scale: two 4-core nodes whose memory holds ~4 of the 6
#: shared 256 MB datasets, so placement and victim selection both matter.
DEFAULT_SCHED_NODES = 2
DEFAULT_SCHED_CORES = 4
DEFAULT_SCHED_MEMORY = 1 * GB
DEFAULT_SCHED_DATASETS = 6
DEFAULT_SCHED_DATASET_SIZE = 256 * MB


def run_sched_cell(policy: object = "lru", *,
                   n_nodes: int = DEFAULT_SCHED_NODES,
                   cores_per_node: int = DEFAULT_SCHED_CORES,
                   memory_size: float = DEFAULT_SCHED_MEMORY,
                   n_datasets: int = DEFAULT_SCHED_DATASETS,
                   dataset_size: float = DEFAULT_SCHED_DATASET_SIZE,
                   n_low: int = 10,
                   n_high: int = 6,
                   chunk_size: float = DEFAULT_CHUNK_SIZE) -> PolicyPoint:
    """Run the scheduler-driven ablation cell under one eviction policy.

    ``n_low`` node-wide low-priority jobs (long compute, one shared
    dataset each) saturate the cluster from t=0; ``n_high`` short
    high-priority jobs arrive while they run, and the preemptive priority
    scheduler suspends low-priority work for them.  Node memory is sized
    below the shared working set, so the page cache evicts under load
    while the scheduler streams dispatch/preemption events into the
    policy — the counters come back in the returned point.  The workload
    is a fixed deterministic schedule (no randomness at all).
    """
    import time

    from repro.filesystem.file import File
    from repro.simulator.simulation import Simulation, SimulationConfig
    from repro.simulator.workflow import Task, Workflow

    start = time.perf_counter()
    simulation = Simulation(
        config=SimulationConfig(
            cache_mode="writeback",
            trace_interval=None,
            page_cache=PageCacheConfig(chunk_size=chunk_size,
                                       eviction_policy=policy),
        ),
    )
    simulation.create_cluster_platform(
        n_nodes,
        cores_per_node=cores_per_node,
        memory_size=memory_size,
        with_nfs_server=False,
    )
    simulation.create_cluster_scheduler(
        policy="preemptive-priority",
        placement="cache",
        lost_work_penalty=0.25,
    )
    datasets = [
        File(f"shared{d}", dataset_size) for d in range(n_datasets)
    ]
    for dataset in datasets:
        simulation.stage_file_replicated(dataset)
    for i in range(n_low):
        label = f"low{i}"
        workflow = Workflow(label)
        workflow.add_task(Task.from_cpu_time(
            "churn",
            6.0,
            inputs=[datasets[i % n_datasets]],
            outputs=[File(f"{label}_out", 32 * MB)],
        ))
        simulation.submit_job(
            workflow,
            cores=cores_per_node,
            arrival_time=0.05 * i,
            priority=0,
            label=label,
        )
    for j in range(n_high):
        label = f"high{j}"
        workflow = Workflow(label)
        workflow.add_task(Task.from_cpu_time(
            "urgent",
            0.5,
            inputs=[datasets[j % n_datasets]],
            outputs=[File(f"{label}_out", 16 * MB)],
        ))
        simulation.submit_job(
            workflow,
            cores=cores_per_node,
            arrival_time=2.0 + 1.5 * j,
            priority=10,
            label=label,
        )
    result = simulation.run()

    dispatches = 0
    preemptions = 0
    policy_name = str(policy)
    for host in simulation.platform.hosts.values():
        manager = host.memory_manager
        if manager is None:
            continue
        policy_name = manager.policy.name
        dispatches += manager.policy.stats.job_dispatches
        preemptions += manager.policy.stats.job_preemptions
    return PolicyPoint(
        policy=policy_name,
        workload="sched",
        hit_ratio=result.read_cache_hit_ratio(),
        makespan=result.scheduler.makespan,
        read_time=0.0,
        wallclock_time=time.perf_counter() - start,
        n_job_dispatches=dispatches,
        n_job_preemptions=preemptions,
    )


def run_exp8(policy: object = "lru", workload: str = "skewed",
             **kwargs) -> PolicyPoint:
    """Run one (workload, policy) cell of the ablation.

    ``kwargs`` are forwarded to the underlying workload driver
    (:func:`run_skewed`, :func:`run_sched_cell`, or the reduced-scale
    exp5/exp6/exp7 runs).
    """
    if workload == "skewed":
        return run_skewed(policy, **kwargs)
    if workload == "exp5":
        return _run_exp5(policy, **kwargs)
    if workload == "exp6":
        return _run_exp6(policy, **kwargs)
    if workload == "exp7":
        return _run_exp7(policy, **kwargs)
    if workload == "sched":
        return run_sched_cell(policy, **kwargs)
    raise ConfigurationError(
        f"unknown exp8 workload {workload!r}; expected one of {EXP8_WORKLOADS}"
    )


def exp8_series(policies: Sequence[str] = EXP8_POLICIES, *,
                workloads: Sequence[str] = ("skewed",),
                workers: Union[None, int, str] = None,
                progress=None,
                **kwargs) -> Dict[Tuple[str, str], PolicyPoint]:
    """The (workload × policy) ablation grid as one flat sweep.

    Returns ``{(workload, policy): PolicyPoint}`` in grid order; every
    point is an independent deterministic simulation, so the grid fans out
    across ``workers`` processes with a worker-count-independent result.
    """
    return run_named_sweep(
        "repro.experiments.exp8_policy_ablation:run_exp8",
        {
            (workload, policy): dict(policy=policy, workload=workload,
                                     **kwargs)
            for workload in workloads
            for policy in policies
        },
        workers=workers,
        progress=progress,
    )


def exp8_report(points: Dict[Tuple[str, str], PolicyPoint],
                title: Optional[str] = None) -> str:
    """Render the ablation as a plain-text table."""
    header = title or "Exp 8 — eviction-policy ablation"
    return format_table(
        ["Workload", "Policy", "Cache hit (%)", "Makespan (s)"],
        [point.as_row() for point in points.values()],
        title=header,
        precision=2,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """Run the default ablation and print the table (CI artifact)."""
    points = exp8_series(workloads=("skewed", "exp5", "exp6"))
    print(exp8_report(points))


if __name__ == "__main__":  # pragma: no cover
    main()
