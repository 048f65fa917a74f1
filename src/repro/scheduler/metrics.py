"""Scheduler metrics.

The classic batch-scheduling metrics, computed from the per-job records the
:class:`~repro.scheduler.cluster.ClusterScheduler` collects:

* **wait time** — time spent in the queue before dispatch;
* **bounded slowdown** — turnaround over runtime, bounded for short jobs;
* **utilization** — reserved core-seconds over available core-seconds;
* **throughput** — completed jobs per simulated second;
* **per-priority-class summaries** — wait time and bounded slowdown per
  priority class (:meth:`SchedulerMetrics.priority_class_metrics`), the
  quantities a preemptive priority policy trades between classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default reference runtime (seconds) of the bounded-slowdown metric:
#: ``max(1, turnaround / max(runtime, tau))`` bounds the slowdown of very
#: short jobs so they do not dominate the mean.
BOUNDED_SLOWDOWN_TAU = 10.0


def clamped_wait(start_time: float, arrival_time: float) -> float:
    """Queueing delay ``start - arrival``, clamped to zero.

    A replayed trace can submit jobs "in the past" (arrival marginally
    after the dispatch tick within the scheduler's epsilon), and a wait
    must never be negative.  Every consumer of a wait — job records, the
    observer histograms, the priority-weighted eviction policy's scoring —
    goes through this one clamp.
    """
    return max(0.0, start_time - arrival_time)


@dataclass
class JobRecord:
    """Immutable record of one completed job."""

    job_id: int
    label: str
    node: str
    cores: int
    arrival_time: float
    start_time: float
    end_time: float
    estimated_runtime: float
    #: Priority class of the job (higher = more urgent).
    priority: int = 0
    #: Number of times the job was preempted before completing.
    preemptions: int = 0
    #: Number of times the job was crash-restarted (its node failed while
    #: it ran and it was checkpoint-rolled-back and requeued).
    restarts: int = 0
    #: Seconds actually spent running; ``None`` means the job ran in one
    #: uninterrupted segment (``end - start``).
    run_seconds: Optional[float] = None

    @property
    def wait_time(self) -> float:
        """Queueing delay before the first dispatch (see :func:`clamped_wait`)."""
        return clamped_wait(self.start_time, self.arrival_time)

    @property
    def runtime(self) -> float:
        """Execution time on the node (excluding suspended time)."""
        if self.run_seconds is not None:
            return self.run_seconds
        return self.end_time - self.start_time

    @property
    def turnaround(self) -> float:
        """Arrival-to-completion time."""
        return self.end_time - self.arrival_time

    def bounded_slowdown(self, tau: float = BOUNDED_SLOWDOWN_TAU) -> float:
        """Bounded slowdown ``max(1, turnaround / max(runtime, tau))``."""
        return max(1.0, self.turnaround / max(self.runtime, tau))


@dataclass
class SchedulerMetrics:
    """Aggregate scheduling metrics of one cluster simulation."""

    #: One record per completed job.
    records: List[JobRecord] = field(default_factory=list)
    #: Total cores of the cluster (sum over nodes).
    total_cores: int = 0
    #: First job arrival (0 when no jobs completed).
    first_arrival: float = 0.0
    #: Last job completion (0 when no jobs completed).
    last_completion: float = 0.0
    #: Node crashes injected over the run (0 in fault-free runs).
    n_node_failures: int = 0
    #: Crash-driven job restarts (rollback + requeue) over the run.
    n_job_restarts: int = 0
    #: Compute seconds destroyed by crashes: work a job had done past its
    #: last checkpoint when its node failed, which it must redo.
    lost_work_seconds: float = 0.0
    #: Jobs submitted to the scheduler, completed or not (left out of
    #: :meth:`as_dict`).
    n_submitted: int = 0

    # ------------------------------------------------------------------- api
    @property
    def n_jobs(self) -> int:
        """Number of completed jobs."""
        return len(self.records)

    @property
    def makespan(self) -> float:
        """Span from the first arrival to the last completion."""
        return max(0.0, self.last_completion - self.first_arrival)

    @property
    def mean_wait_time(self) -> float:
        """Mean queueing delay over all jobs."""
        if not self.records:
            return 0.0
        return sum(r.wait_time for r in self.records) / len(self.records)

    @property
    def max_wait_time(self) -> float:
        """Worst queueing delay."""
        if not self.records:
            return 0.0
        return max(r.wait_time for r in self.records)

    @property
    def mean_turnaround(self) -> float:
        """Mean arrival-to-completion time."""
        if not self.records:
            return 0.0
        return sum(r.turnaround for r in self.records) / len(self.records)

    def mean_bounded_slowdown(self, tau: float = BOUNDED_SLOWDOWN_TAU) -> float:
        """Mean bounded slowdown over all jobs."""
        if not self.records:
            return 0.0
        return sum(r.bounded_slowdown(tau) for r in self.records) / len(self.records)

    @property
    def utilization(self) -> float:
        """Reserved core-seconds over available core-seconds.

        Computed against the scheduler makespan; 0 when no job completed.
        """
        span = self.makespan
        if span <= 0 or self.total_cores <= 0:
            return 0.0
        used = sum(r.cores * r.runtime for r in self.records)
        return used / (self.total_cores * span)

    @property
    def throughput(self) -> float:
        """Completed jobs per simulated second of makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return len(self.records) / span

    @property
    def jobs_per_node(self) -> Dict[str, int]:
        """Number of jobs each node executed."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.node] = counts.get(record.node, 0) + 1
        return counts

    @property
    def n_preemptions(self) -> int:
        """Total preemptions suffered over all completed jobs."""
        return sum(record.preemptions for record in self.records)

    @property
    def priority_classes(self) -> List[int]:
        """Distinct priority classes among the records, descending."""
        return sorted({record.priority for record in self.records}, reverse=True)

    def records_of_class(self, priority: int) -> List[JobRecord]:
        """Records of the jobs in one priority class."""
        return [record for record in self.records if record.priority == priority]

    def priority_class_metrics(self, tau: float = BOUNDED_SLOWDOWN_TAU,
                               ) -> Dict[int, "PriorityClassMetrics"]:
        """Per-priority-class summaries, keyed by priority (descending)."""
        summaries: Dict[int, PriorityClassMetrics] = {}
        for priority in self.priority_classes:
            records = self.records_of_class(priority)
            waits = [record.wait_time for record in records]
            slowdowns = [record.bounded_slowdown(tau) for record in records]
            summaries[priority] = PriorityClassMetrics(
                priority=priority,
                n_jobs=len(records),
                mean_wait_time=sum(waits) / len(waits),
                max_wait_time=max(waits),
                mean_turnaround=(
                    sum(record.turnaround for record in records) / len(records)
                ),
                mean_bounded_slowdown=sum(slowdowns) / len(slowdowns),
                max_bounded_slowdown=max(slowdowns),
                preemptions=sum(record.preemptions for record in records),
            )
        return summaries

    def as_dict(self) -> Dict[str, float]:
        """Scalar summary used by the experiment reports."""
        return {
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "mean_wait_time": self.mean_wait_time,
            "max_wait_time": self.max_wait_time,
            "mean_turnaround": self.mean_turnaround,
            "mean_bounded_slowdown": self.mean_bounded_slowdown(),
            "utilization": self.utilization,
            "throughput": self.throughput,
            "n_preemptions": self.n_preemptions,
            "n_node_failures": self.n_node_failures,
            "n_job_restarts": self.n_job_restarts,
            "lost_work_seconds": self.lost_work_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"<SchedulerMetrics jobs={self.n_jobs} "
            f"makespan={self.makespan:.3g}s "
            f"wait={self.mean_wait_time:.3g}s "
            f"util={self.utilization:.1%}>"
        )


@dataclass
class PriorityClassMetrics:
    """Summary of one priority class of completed jobs."""

    priority: int
    n_jobs: int
    mean_wait_time: float
    max_wait_time: float
    mean_turnaround: float
    mean_bounded_slowdown: float
    max_bounded_slowdown: float
    #: Preemptions suffered by the class (victims, not beneficiaries).
    preemptions: int

    def as_dict(self) -> Dict[str, float]:
        """Scalar summary, shaped like :meth:`SchedulerMetrics.as_dict`."""
        return {
            "priority": self.priority,
            "n_jobs": self.n_jobs,
            "mean_wait_time": self.mean_wait_time,
            "max_wait_time": self.max_wait_time,
            "mean_turnaround": self.mean_turnaround,
            "mean_bounded_slowdown": self.mean_bounded_slowdown,
            "max_bounded_slowdown": self.max_bounded_slowdown,
            "preemptions": self.preemptions,
        }
