"""Batch jobs.

A :class:`Job` wraps one workflow with the batch-scheduling metadata a
cluster scheduler needs: how many cores it reserves on a node, when it
arrives in the queue, and a runtime estimate (user-supplied in real batch
systems; defaulting here to the workflow's aggregate CPU time) used by the
shortest-job-first and EASY-backfilling policies.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.simulator.workflow import Workflow


class Job:
    """One batch job: a workflow plus its scheduling metadata.

    Parameters
    ----------
    workflow:
        The workflow executed when the job is dispatched.
    cores:
        Cores the job reserves on the node it is placed on (the job must
        fit on a single node).
    arrival_time:
        Simulated time at which the job enters the queue.
    estimated_runtime:
        Runtime estimate in seconds, used by SJF ordering and backfilling
        reservations.  Defaults to the workflow's total CPU time (a crude
        but deterministic stand-in for user-provided walltime requests).
    priority:
        Priority class of the job (higher runs first under the priority
        policies; the preemptive policy may suspend strictly lower
        priority jobs to start this one).
    label:
        Application label used in traces; defaults to the workflow name.
    """

    def __init__(self, workflow: Workflow, *, cores: int = 1,
                 arrival_time: float = 0.0,
                 estimated_runtime: Optional[float] = None,
                 priority: int = 0,
                 label: Optional[str] = None):
        if cores < 1 or int(cores) != cores:
            raise ConfigurationError(
                f"job {label or workflow.name!r}: cores must be a positive "
                f"integer, got {cores}"
            )
        if arrival_time < 0:
            raise ConfigurationError(
                f"job {label or workflow.name!r}: arrival_time must be >= 0"
            )
        if estimated_runtime is not None and estimated_runtime <= 0:
            raise ConfigurationError(
                f"job {label or workflow.name!r}: estimated_runtime must be positive"
            )
        if int(priority) != priority:
            raise ConfigurationError(
                f"job {label or workflow.name!r}: priority must be an integer"
            )
        self.workflow = workflow
        self.cores = int(cores)
        self.arrival_time = float(arrival_time)
        self.priority = int(priority)
        self.label = label or workflow.name
        if estimated_runtime is None:
            estimated_runtime = sum(task.cpu_time() for task in workflow.tasks)
        self.estimated_runtime = max(float(estimated_runtime), 1e-6)

        #: Identifier assigned by the scheduler at submission.
        self.id: Optional[int] = None
        #: Name of the node the job was dispatched to.
        self.node_name: Optional[str] = None
        #: Simulated time the job first started executing.
        self.start_time: Optional[float] = None
        #: Simulated time the current (or last) run segment started.
        self.last_start_time: Optional[float] = None
        #: Simulated time the job completed.
        self.end_time: Optional[float] = None
        #: Seconds actually spent running (excludes suspended time).
        self.run_seconds: float = 0.0
        #: Number of times the job was preempted.
        self.preemptions: int = 0
        #: Number of times the job was crash-restarted (its node failed
        #: while it ran and it was rolled back and requeued).
        self.restarts: int = 0
        #: After a preemption the job resumes on the node holding its
        #: checkpoint (and its warm page cache); ``None`` = any node.
        self.pinned_node: Optional[str] = None

    # -------------------------------------------------------------- queries
    def input_files(self) -> List[File]:
        """External input files of the job's workflow (for locality scoring)."""
        return self.workflow.input_files()

    def __repr__(self) -> str:
        return (
            f"<Job {self.label!r} cores={self.cores} "
            f"prio={self.priority} "
            f"arrival={self.arrival_time:.3g} "
            f"est={self.estimated_runtime:.3g}s>"
        )
