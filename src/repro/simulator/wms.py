"""Workflow execution (the simulated workflow management system).

The :class:`WorkflowExecutor` runs one workflow instance on one host:
tasks start as soon as all their input files exist, each task reads its
inputs, computes on the host's CPU, writes its outputs and (optionally)
releases its anonymous memory — the execution pattern of both the
synthetic application and the Nighres workflow in the paper.  Independent
tasks of the same workflow run concurrently, bounded by the host's CPU
cores; independent workflow instances (Exp 2 and 3) are separate
executors running in parallel in the same simulation.

The executor also supports *suspension* for preemptive batch scheduling
(:meth:`WorkflowExecutor.preempt`): running tasks are interrupted, their
partial outputs and anonymous memory are rolled back, compute progress is
checkpointed (minus a configurable lost-work penalty), and
:meth:`WorkflowExecutor.run` returns :data:`WorkflowExecutor.PREEMPTED`.
Calling :meth:`run` again resumes from the checkpoint: completed tasks
are not re-run, interrupted tasks re-read their inputs (cheap when the
node's page cache is still warm) and compute only their remaining work.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.des.environment import Environment
from repro.des.events import Event, Interrupt
from repro.des.process import Process
from repro.errors import SchedulingError
from repro.filesystem.file import File
from repro.filesystem.registry import FileRegistry
from repro.platform.host import Host
from repro.simulator.storage_service import StorageService
from repro.simulator.tracing import OperationRecord, Tracer
from repro.simulator.workflow import Task, Workflow


class WorkflowExecutor:
    """Executes one workflow instance.

    Tasks compute on the host's CPU (:meth:`CPU.execute
    <repro.platform.cpu.CPU.execute>`; a suspension stops the computation
    with :meth:`CPU.cancel <repro.platform.cpu.CPU.cancel>`) and read and
    write through storage services, in chunks of their page-cache
    configuration.

    Parameters
    ----------
    env:
        Simulation environment.
    workflow:
        The workflow to execute.
    host:
        The host running the tasks: they compute on its CPU and, for local
        I/O, go through its page cache.
    registry:
        File registry used to locate input files and to record outputs.
    output_storage:
        Storage service receiving the files produced by the workflow.
    tracer:
        Receives one :class:`OperationRecord` per read/compute/write.
    label:
        Application label used in traces and as the anonymous-memory owner;
        defaults to the workflow name.
    max_concurrent_tasks:
        Upper bound on simultaneously running tasks of this workflow
        (``None`` = bounded only by dependencies and the host CPU).  The
        batch scheduler sets this to the job's reserved core count so a
        reservation is an actual execution bound, not just bookkeeping.
    lost_work_penalty:
        Seconds of in-flight compute progress lost at each preemption
        (work done since the last checkpoint, redone on resume).
    """

    #: Sentinel returned by :meth:`run` (and internally by task processes)
    #: when the execution was suspended by :meth:`preempt`.
    PREEMPTED = "preempted"

    def __init__(self, env: Environment, workflow: Workflow, host: Host,
                 registry: FileRegistry, output_storage: StorageService,
                 tracer: Tracer, label: Optional[str] = None,
                 max_concurrent_tasks: Optional[int] = None,
                 lost_work_penalty: float = 0.0):
        self.env = env
        self.workflow = workflow
        self.host = host
        self.registry = registry
        self.output_storage = output_storage
        self.tracer = tracer
        self.label = label or workflow.name
        if max_concurrent_tasks is not None and max_concurrent_tasks < 1:
            raise SchedulingError(
                f"executor {self.label!r}: max_concurrent_tasks must be >= 1"
            )
        if lost_work_penalty < 0:
            raise SchedulingError(
                f"executor {self.label!r}: lost_work_penalty must be >= 0"
            )
        self.max_concurrent_tasks = max_concurrent_tasks
        self.lost_work_penalty = float(lost_work_penalty)
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        #: Checkpoint state surviving across suspensions: task objects by
        #: name, tasks not yet started, names of completed tasks, and the
        #: flops already credited to partially computed tasks.
        self._tasks: Dict[str, Task] = {}
        self._pending: Optional[Dict[str, Task]] = None
        self._completed: set = set()
        self._compute_done: Dict[str, float] = {}
        self._running: Dict[str, Process] = {}
        #: The event :meth:`run` waits on in the current pass (``None``
        #: once it has returned).
        self._wait: Optional[Event] = None
        self._preempting = False
        self._crashing = False
        self._suspended = False
        #: Compute seconds destroyed by suspensions: the lost-work penalty
        #: of each preemption, plus the whole in-flight segment of each
        #: crash (that progress lived in the node's memory).
        self.lost_compute_seconds = 0.0

    @property
    def suspended(self) -> bool:
        """True while the execution sits preempted, awaiting a resume."""
        return self._suspended

    # ------------------------------------------------------------------- run
    def run(self):
        """Execute the workflow; simulation process returning the makespan.

        Returns :data:`PREEMPTED` instead when the execution was suspended
        by :meth:`preempt`; calling :meth:`run` again later resumes from
        the checkpoint.

        Each pass launches the startable tasks, then yields one plain
        event, the *wait*.  Every task process gets one callback when it
        is created (:meth:`_task_ended`), which triggers the wait when the
        task ends, so a pass costs the same however many tasks run.  After
        the wait, the loop reaps every task whose generator has ended.
        """
        if self._pending is None:
            self.workflow.validate()
            self._tasks = {task.name: task for task in self.workflow.tasks}
            self._pending = dict(self._tasks)
        if self.start_time is None:
            self.start_time = self.env.now
        if self._preempting:
            # Preempted after dispatch but before this process first ran
            # (the scheduler can plan a preemption in the same pass that
            # started the victim): suspend immediately with no progress.
            self._preempting = False
            self._crashing = False
            self._suspended = True
            return self.PREEMPTED
        self._suspended = False
        pending, running = self._pending, self._running

        while pending or running:
            # Launch every task whose dependencies are satisfied, up to the
            # concurrency bound (suspended executors stop launching).  The
            # scan never mutates ``pending`` — startable tasks are
            # collected first and moved after — so no per-wake
            # ``list(items())`` snapshot is allocated; dependency
            # satisfaction cannot change mid-pass (``_completed`` only
            # grows in the reap phase below).
            if not self._preempting:
                startable = None
                bound = self.max_concurrent_tasks
                slots = (
                    None if bound is None else max(0, bound - len(running))
                )
                for task in pending.values():
                    if slots is not None and (
                        len(startable) if startable is not None else 0
                    ) >= slots:
                        break
                    deps = self.workflow.dependencies(task)
                    if all(dep.name in self._completed for dep in deps):
                        if startable is None:
                            startable = []
                        startable.append(task)
                if startable is not None:
                    for task in startable:
                        process = self.env.process(
                            self._execute_task(task),
                            name=f"{self.label}:{task.name}",
                        )
                        process.callbacks.append(
                            partial(self._task_ended, task.name)
                        )
                        running[task.name] = process
                        del pending[task.name]

            if not running:
                if self._preempting:
                    # Clear the flag so a later resume starts normally (a
                    # flag still set at entry means "preempted before the
                    # process ever ran", handled above).
                    self._preempting = False
                    self._crashing = False
                    self._suspended = True
                    self._wait = None
                    return self.PREEMPTED
                raise SchedulingError(
                    f"workflow {self.workflow.name!r} cannot make progress: "
                    f"tasks {sorted(pending)} have unsatisfied dependencies"
                )

            self._wait = Event(self.env)
            yield self._wait

            # Reap finished tasks: scan without copying, mutate after.
            finished = None
            for name, process in running.items():
                if process.is_alive:
                    continue
                if not process.ok:
                    raise process.value
                if finished is None:
                    finished = []
                finished.append((name, process.value))
            if finished is not None:
                for name, value in finished:
                    del running[name]
                    if value == self.PREEMPTED:
                        # The task was interrupted: it re-runs on resume.
                        pending[name] = self._tasks[name]
                    else:
                        self._completed.add(name)
                        self._compute_done.pop(name, None)

        self._wait = None
        self.end_time = self.env.now
        return self.end_time - self.start_time

    def _task_ended(self, name: str, process: Process) -> None:
        """Callback of a task's process: trigger the current wait.

        A task reaped in an earlier pass (or whose name already belongs to
        the process of its re-run after a suspension) is not part of the
        current wait.  A failed process fails the wait and counts as
        handled there.
        """
        if self._running.get(name) is not process:
            return
        wait = self._wait
        if wait.triggered:
            return
        if process.ok:
            wait.succeed()
        else:
            process.defused = True
            wait.fail(process.value)

    # ------------------------------------------------------------ preemption
    def preempt(self) -> None:
        """Suspend the execution (checkpoint-and-requeue).

        Must be called from a *different* simulation process (typically
        the batch scheduler).  Every running task is interrupted; each
        rolls back its partial outputs and anonymous memory, checkpoints
        its compute progress minus :attr:`lost_work_penalty`, and the
        main loop returns :data:`PREEMPTED` once all tasks have unwound.
        """
        self._preempting = True
        for process in self._running.values():
            if process.is_alive:
                process.interrupt(self.PREEMPTED)

    def crash(self) -> None:
        """Suspend the execution because its node crashed.

        Same unwind as :meth:`preempt` — running tasks are interrupted and
        roll back their partial outputs and anonymous memory — but the
        in-flight compute segment earns *no* checkpoint credit: that
        progress only existed in the crashed node's memory.  Work
        checkpointed by earlier suspensions survives (checkpoints persist
        to the node's disk, which outlives a reboot), as do completed
        tasks and their outputs.
        """
        self._crashing = True
        self.preempt()

    def rebind(self, host: Host, output_storage: StorageService) -> None:
        """Repoint a suspended executor at a different node.

        Used when a crash-restarted job is dispatched elsewhere: tasks now
        compute on ``host`` and write to ``output_storage``.  Files the
        job already produced stay registered on the old node's storage and
        are read remotely through the registry.
        """
        self.host = host
        self.output_storage = output_storage

    # ------------------------------------------------------------------ tasks
    def _execute_task(self, task: Task):
        work = None  # the computation in flight on the host's CPU
        remaining_flops = 0.0
        written: List[File] = []
        in_flight_write: Optional[File] = None
        try:
            # Read inputs in declaration order.  On a resume after
            # preemption the re-read mostly hits the node's page cache,
            # whose contents survived the suspension.
            for file in task.inputs:
                service = self._locate(file)
                result = yield from service.read_file(
                    file, reader_host=self.host, owner=self.label
                )
                self.tracer.record_operation(
                    OperationRecord(
                        app=self.label,
                        task=task.name,
                        kind="read",
                        filename=file.name,
                        size=file.size,
                        start=result.start_time,
                        end=result.end_time,
                        cache_bytes=result.cache_bytes,
                        storage_bytes=result.storage_bytes,
                    )
                )

            # Compute only the work not covered by an earlier checkpoint.
            remaining_flops = max(
                0.0, task.flops - self._compute_done.get(task.name, 0.0)
            )
            if remaining_flops > 0:
                compute_start = self.env.now
                work = self.host.cpu.execute(
                    remaining_flops, label=f"compute:{task.name}"
                )
                yield work
                work = None
                self.tracer.record_operation(
                    OperationRecord(
                        app=self.label,
                        task=task.name,
                        kind="compute",
                        filename=None,
                        size=0.0,
                        start=compute_start,
                        end=self.env.now,
                    )
                )
                self._compute_done[task.name] = task.flops

            # Write outputs in declaration order.
            for file in task.outputs:
                in_flight_write = file
                result = yield from self.output_storage.write_file(
                    file, writer_host=self.host, owner=self.label
                )
                in_flight_write = None
                written.append(file)
                self.registry.add_entry(file, self.output_storage)
                self.tracer.record_operation(
                    OperationRecord(
                        app=self.label,
                        task=task.name,
                        kind="write",
                        filename=file.name,
                        size=file.size,
                        start=result.start_time,
                        end=result.end_time,
                        cache_bytes=result.cache_bytes,
                        storage_bytes=result.storage_bytes,
                    )
                )

            # Release the application's anonymous memory, as the paper's
            # synthetic application does at the end of every task.
            if task.release_memory and self.host.memory_manager is not None:
                self.host.memory_manager.release_anonymous_memory(owner=self.label)
        except Interrupt:
            if work is not None:
                self._checkpoint_task(task, remaining_flops,
                                      self.host.cpu.cancel(work))
            self._rollback_task(written, in_flight_write)
            return self.PREEMPTED
        return True

    def _checkpoint_task(self, task: Task, remaining_flops: float,
                         executed: float) -> None:
        """Credit the flops computed in ``executed`` seconds on a core
        before the interrupt, minus the lost work redone on resume
        (checkpoint granularity)."""
        speed = self.host.cpu.speed
        done = min(remaining_flops, executed * speed)
        if self._crashing:
            # The whole in-flight segment dies with the node's memory.
            self.lost_compute_seconds += done / speed
            return
        credit = max(0.0, done - self.lost_work_penalty * speed)
        self.lost_compute_seconds += (done - credit) / speed
        total = self._compute_done.get(task.name, 0.0) + credit
        self._compute_done[task.name] = min(task.flops, total)

    def _rollback_task(self, written: List[File],
                       in_flight_write: Optional[File]) -> None:
        """Undo the interrupted attempt's outputs and anonymous memory.

        Partial and completed outputs of the attempt are deleted (the
        retry re-writes them from scratch; without this, disk usage and
        the registry would double-count them).  The task's anonymous
        memory is released — the checkpoint conceptually persists it to
        disk — so the node's memory accounting stays balanced while the
        job sits suspended; the page-cache residency of its files is
        deliberately left intact for the resume.
        """
        if in_flight_write is not None:
            self.output_storage.delete_file(in_flight_write)
        for file in written:
            self.output_storage.delete_file(file)
            self.registry.remove_entry(file, self.output_storage)
        if self.host.memory_manager is not None:
            self.host.memory_manager.release_anonymous_memory(owner=self.label)

    def _locate(self, file: File) -> StorageService:
        if not self.registry.exists(file):
            raise SchedulingError(
                f"task input {file.name!r} does not exist on any storage service; "
                "stage it with Simulation.stage_file or produce it with a task"
            )
        # When the file is replicated on several services (e.g. a dataset
        # staged on every node of a cluster), prefer the replica local to
        # the executing host: its reads hit this host's disk and page
        # cache, which is what cache-locality-aware placement exploits.
        for service in self.registry.lookup(file):
            if getattr(service, "host", None) is self.host:
                return service
        return self.registry.primary_location(file)

    def __repr__(self) -> str:
        return (
            f"<WorkflowExecutor {self.label!r} workflow={self.workflow.name!r} "
            f"host={self.host.name!r}>"
        )
