"""Exp 9 — scheduling under failures, stragglers and elastic capacity.

Exps 6 and 7 measured cache-aware batch scheduling on a healthy cluster;
Exp 9 asks what the same workloads cost when the cluster is *not* healthy.
A seeded :class:`~repro.faults.FaultPlan` crashes nodes with exponential
MTBF/MTTR (killed jobs are checkpoint-rolled-back and requeued, the
node's page cache comes back cold), optionally slows nodes down
(stragglers) and optionally adds burstable capacity that joins late and
drains before leaving.

The headline measurement is degradation versus the fault-free baseline of
the *same seeded workload*: makespan ratio and mean bounded slowdown as a
function of MTBF, plus the fault-tolerance invariant that every submitted
job still completes (restarted as often as needed).  Every point is
deterministic — same seeds, same fault times, same schedule — and
independent of the sweep worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.exp6_cluster import build_exp6
from repro.experiments.exp7_trace_replay import DEFAULT_N_NODES as EXP7_N_NODES
from repro.experiments.exp7_trace_replay import build_exp7
from repro.experiments.runner import run_named_sweep
from repro.faults import ElasticNodeSpec, FaultPlan, NodeFaultSpec, StragglerSpec

#: Workloads the failure sweep can replay.
EXP9_WORKLOADS: Tuple[str, ...] = ("exp6", "exp7")

#: Default per-node MTBF sweep (simulated seconds); ``None`` = no faults.
EXP9_MTBFS: Tuple[Optional[float], ...] = (None, 120.0, 60.0, 30.0)

#: Default repair time (mean, exponential).
DEFAULT_MTTR = 10.0
#: Default seed of the fault plan (independent of the workload seed).
DEFAULT_FAULT_SEED = 1
#: Default scale of the exp6-workload cells: large enough for failures to
#: matter, small enough for a sweep to stay interactive.
DEFAULT_N_JOBS = 60
DEFAULT_N_NODES = 6
DEFAULT_N_DATASETS = 12


@dataclass
class FailurePoint:
    """Metrics of one fault-injected run of a seeded workload."""

    workload: str
    mtbf: Optional[float]
    mttr: float
    fault_seed: int
    n_jobs: int
    n_submitted: int
    makespan: float
    mean_bounded_slowdown: float
    cache_hit_ratio: float
    utilization: float
    n_node_failures: int
    n_job_restarts: int
    lost_work_seconds: float
    wallclock_time: float
    stragglers: bool = False
    elastic: bool = False

    @property
    def all_jobs_completed(self) -> bool:
        """The fault-tolerance invariant: nothing submitted was lost."""
        return self.n_jobs == self.n_submitted

    def as_row(self, baseline: Optional["FailurePoint"] = None,
               ) -> Tuple[object, ...]:
        """Row of the Exp 9 report table (degradation vs ``baseline``)."""
        ratio = (
            self.makespan / baseline.makespan
            if baseline is not None and baseline.makespan > 0 else 1.0
        )
        return (
            self.workload,
            "inf" if self.mtbf is None else f"{self.mtbf:g}",
            self.n_node_failures,
            self.n_job_restarts,
            self.lost_work_seconds,
            self.makespan,
            ratio,
            self.mean_bounded_slowdown,
            100.0 * self.cache_hit_ratio,
        )


def build_fault_plan(mtbf: Optional[float], *,
                     mttr: float = DEFAULT_MTTR,
                     fault_seed: int = DEFAULT_FAULT_SEED,
                     stragglers: bool = False,
                     straggler_factor: float = 0.5,
                     straggler_duration: float = 20.0,
                     straggler_period: float = 60.0,
                     elastic_nodes: Sequence[str] = (),
                     elastic_join: float = 0.0,
                     elastic_leave: Optional[float] = None,
                     first_failure_after: float = 0.0) -> FaultPlan:
    """The experiment's fault plan for one MTBF point.

    ``mtbf=None`` yields the zero plan (fault-free baseline) unless
    stragglers or elastic nodes are requested.  Crashes apply to every
    node independently; stragglers are periodic wildcard windows with
    seeded de-synchronised phases.
    """
    node_faults: Tuple[NodeFaultSpec, ...] = ()
    if mtbf is not None:
        node_faults = (NodeFaultSpec(
            mtbf=mtbf, mttr=mttr, first_failure_after=first_failure_after,
        ),)
    straggler_specs: Tuple[StragglerSpec, ...] = ()
    if stragglers:
        straggler_specs = (StragglerSpec(
            compute_factor=straggler_factor,
            io_factor=straggler_factor,
            duration=straggler_duration,
            period=straggler_period,
            max_delay=straggler_period,
        ),)
    elastic_specs = tuple(
        ElasticNodeSpec(node=name, join_time=elastic_join,
                        leave_time=elastic_leave)
        for name in elastic_nodes
    )
    return FaultPlan(
        seed=fault_seed,
        node_faults=node_faults,
        stragglers=straggler_specs,
        elastic=elastic_specs,
    )


def build_exp9(workload: str = "exp6", mtbf: Optional[float] = 60.0, *,
               mttr: float = DEFAULT_MTTR,
               fault_seed: int = DEFAULT_FAULT_SEED,
               stragglers: bool = False,
               elastic: bool = False,
               elastic_join: float = 10.0,
               elastic_leave: Optional[float] = None,
               **kwargs):
    """Build one fault-injected cell of the exp6 or exp7 workload.

    ``mtbf=None`` builds the fault-free baseline of the same seeded
    workload.  ``elastic=True`` withholds the last node until
    ``elastic_join`` (and drains it from ``elastic_leave`` on, when set).
    Remaining keyword arguments go to the workload's builder
    (:func:`~repro.experiments.exp6_cluster.build_exp6`, at this
    experiment's smaller default scale, or
    :func:`~repro.experiments.exp7_trace_replay.build_exp7`).
    """
    if workload == "exp6":
        build = build_exp6
        kwargs = {"n_jobs": DEFAULT_N_JOBS, "n_nodes": DEFAULT_N_NODES,
                  "n_datasets": DEFAULT_N_DATASETS, **kwargs}
    elif workload == "exp7":
        build = build_exp7
        kwargs = {"n_nodes": EXP7_N_NODES, **kwargs}
    else:
        raise ConfigurationError(
            f"unknown exp9 workload {workload!r}; choose from {EXP9_WORKLOADS}"
        )
    elastic_nodes = (f"node{kwargs['n_nodes']}",) if elastic else ()
    plan = build_fault_plan(
        mtbf, mttr=mttr, fault_seed=fault_seed, stragglers=stragglers,
        elastic_nodes=elastic_nodes, elastic_join=elastic_join,
        elastic_leave=elastic_leave,
    )
    return build(fault_plan=plan, **kwargs)


def finish_exp9(result, workload: str, mtbf: Optional[float], *,
                mttr: float, fault_seed: int, stragglers: bool,
                elastic: bool, **_params) -> FailurePoint:
    """Reduce a finished Exp 9 cell to its :class:`FailurePoint`."""
    metrics = result.scheduler
    return FailurePoint(
        workload=workload,
        mtbf=mtbf,
        mttr=mttr,
        fault_seed=fault_seed,
        n_jobs=metrics.n_jobs,
        n_submitted=metrics.n_submitted,
        makespan=metrics.makespan,
        mean_bounded_slowdown=metrics.mean_bounded_slowdown(),
        cache_hit_ratio=result.read_cache_hit_ratio(),
        utilization=metrics.utilization,
        n_node_failures=metrics.n_node_failures,
        n_job_restarts=metrics.n_job_restarts,
        lost_work_seconds=metrics.lost_work_seconds,
        wallclock_time=result.wallclock_time,
        stragglers=stragglers,
        elastic=elastic,
    )


def exp9_series(mtbfs: Sequence[Optional[float]] = EXP9_MTBFS, *,
                workload: str = "exp6",
                workers: Union[None, int, str] = None,
                progress=None,
                **kwargs) -> Dict[Optional[float], FailurePoint]:
    """Makespan/slowdown degradation of one workload as MTBF shrinks.

    One sweep point per MTBF (``None`` = fault-free baseline), fanned out
    across ``workers`` processes; the result dict is keyed by MTBF and
    independent of the worker count.
    """
    return run_named_sweep(
        "exp9",
        {
            mtbf: dict(workload=workload, mtbf=mtbf, **kwargs)
            for mtbf in mtbfs
        },
        workers=workers,
        progress=progress,
    )


def exp9_report(points: Dict[Optional[float], FailurePoint],
                title: Optional[str] = None) -> str:
    """Render the Exp 9 degradation sweep as a plain-text table."""
    first = next(iter(points.values()))
    baseline = points.get(None)
    header = title or (
        f"Exp 9 — {first.workload} workload under node failures "
        f"(MTTR {first.mttr:g}s, fault seed {first.fault_seed})"
    )
    return format_table(
        [
            "Workload",
            "MTBF (s)",
            "Crashes",
            "Restarts",
            "Lost work (s)",
            "Makespan (s)",
            "vs baseline",
            "Bounded slowdown",
            "Cache hit (%)",
        ],
        [point.as_row(baseline) for point in points.values()],
        title=header,
        precision=2,
    )
