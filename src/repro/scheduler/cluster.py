"""The cluster batch scheduler.

:class:`ClusterScheduler` is a discrete-event process that turns the
one-workflow-per-host simulator into a multi-node batch system: jobs arrive
over time into a queue, a pluggable policy picks the next job to start, a
pluggable placement strategy picks the node, and a
:class:`~repro.simulator.wms.WorkflowExecutor` runs the job's workflow on
that node, bounded by the node's core count.  Completed jobs free their
cores and are summarised into :class:`~repro.scheduler.metrics.SchedulerMetrics`.

:class:`NodeState` tracks the scheduler-visible state of one node: its
host, its local storage service, its free cores and its running jobs.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.process import Process
from repro.errors import SchedulingError
from repro.filesystem.registry import FileRegistry
from repro.scheduler.job import Job
from repro.scheduler.metrics import JobRecord, SchedulerMetrics, clamped_wait
from repro.scheduler.placement import PlacementStrategy, make_placement
from repro.scheduler.policies import SchedulingPolicy, fitting_nodes, make_policy
from repro.simulator.storage_service import StorageService
from repro.simulator.tracing import Tracer
from repro.simulator.wms import WorkflowExecutor

#: Scheduling tolerance in seconds.
_EPSILON = 1e-9


class NodeState:
    """Scheduler-visible state of one compute node.

    Parameters
    ----------
    host:
        The node's host (cores, memory, page cache).
    storage:
        The node-local storage service jobs placed here read from and
        write to.
    """

    def __init__(self, host, storage: StorageService):
        self.host = host
        self.storage = storage
        #: Total cores of the node (cached: policies query it constantly).
        self.total_cores = int(host.cores)
        self.free_cores = int(host.cores)
        #: Running jobs, keyed by job id.
        self.running: Dict[int, Job] = {}
        #: Draining nodes accept no new work (elastic leave, maintenance);
        #: running jobs finish normally.  Set via
        #: :meth:`ClusterScheduler.drain_node`.
        self.draining = False
        #: Departed elastic nodes (drain completed, capacity gone for
        #: good).  Leave wins every race: crash, repair and join events
        #: arriving for a left node are discarded.  Set via
        #: :meth:`ClusterScheduler.leave_node`.
        self.left = False
        #: Crashes this node has suffered (fault injection); placement
        #: strategies may penalise failure-prone nodes with it.
        self.n_failures = 0
        #: Cached release schedule for :meth:`earliest_fit_time` — the
        #: running jobs' estimated completions, sorted.  Invalidated on
        #: every allocate/release; between those the schedule is
        #: immutable, while backfilling policies query it once per node
        #: per scheduling pass (the old code re-sorted every call).
        self._release_schedule: Optional[List[Tuple[float, int]]] = None

    # --------------------------------------------------------------- queries
    @property
    def name(self) -> str:
        """The node's host name."""
        return self.host.name

    @property
    def up(self) -> bool:
        """Whether the node's host is up (single source of truth: the host)."""
        return self.host.up

    @property
    def available(self) -> bool:
        """Whether the node may receive new work: up, not draining, not left."""
        return self.host.up and not self.draining and not self.left

    @property
    def n_running(self) -> int:
        """Number of jobs currently running on the node."""
        return len(self.running)

    def earliest_fit_time(self, cores: int, now: float) -> float:
        """Earliest time this node is expected to have ``cores`` free.

        Walks the running jobs in order of their *estimated* completion
        (``start + estimated_runtime``, clamped to ``now`` for overrunning
        jobs) and returns the time at which enough cores accumulate;
        ``inf`` when the node can never fit the request.

        The sorted completion schedule is cached across calls and only
        rebuilt after an allocate/release.  The clamp to ``now`` happens
        at query time: ``max(now, t)`` is monotone, so the raw-sorted
        order is also clamped-sorted order, and entries tied at the same
        (clamped) time all report that same time — the returned fit time
        is identical to re-sorting the clamped schedule on every call.
        (A job's ``start_time`` is still unset when the policy runs in
        the dispatch pass that allocated it; it is substituted with the
        build-time ``now``, which is exactly the timestamp the process
        will record when it first runs.)
        """
        if cores > self.total_cores:
            return float("inf")
        free = self.free_cores
        if free >= cores:
            return now
        releases = self._release_schedule
        if releases is None:
            releases = self._release_schedule = sorted(
                (
                    (job.start_time if job.start_time is not None else now)
                    + job.estimated_runtime,
                    job.cores,
                )
                for job in self.running.values()
            )
        for time, released in releases:
            free += released
            if free >= cores:
                return time if time > now else now
        return float("inf")

    # ------------------------------------------------------------ accounting
    def allocate(self, job: Job) -> None:
        """Reserve the job's cores on this node."""
        if job.cores > self.free_cores:
            raise SchedulingError(
                f"node {self.name!r} has {self.free_cores} free cores, "
                f"job {job.label!r} needs {job.cores}"
            )
        self.free_cores -= job.cores
        self.running[job.id] = job
        self._release_schedule = None

    def release(self, job: Job) -> None:
        """Release the job's cores."""
        if job.id in self.running:
            del self.running[job.id]
            self.free_cores += job.cores
            self._release_schedule = None

    def __repr__(self) -> str:
        return (
            f"<NodeState {self.name!r} free={self.free_cores}/{self.total_cores} "
            f"running={sorted(job.label for job in self.running.values())}>"
        )


class ClusterScheduler:
    """Dispatches queued batch jobs onto the nodes of a cluster.

    Parameters
    ----------
    env:
        Simulation environment.
    nodes:
        The compute nodes (with their node-local storage services, whose
        page-cache configuration sets the chunk size of the jobs' I/O).
    registry:
        File registry shared with the rest of the simulation.
    tracer:
        Receives the operation records of every executed workflow.
    policy:
        Scheduling policy (name or instance); decides *which* job is next.
    placement:
        Placement strategy (name or instance); decides *where* it runs.
    lost_work_penalty:
        Seconds of compute progress a job loses each time it is preempted
        (checkpoint-and-requeue redoes the work since the last
        checkpoint); forwarded to the workflow executors.
    streaming:
        Decides when the submission stream closes.  A batch scheduler
        (the default) closes it when :meth:`run` starts.  A streaming one
        keeps it open while the simulation runs: :meth:`submit` may be
        called at any paused point, and the main loop waits for new work
        instead of terminating when it drains, until :meth:`close_stream`
        declares the stream over.
    """

    def __init__(self, env: Environment, nodes: List[NodeState],
                 registry: FileRegistry, tracer: Tracer, *,
                 policy: Union[str, SchedulingPolicy] = "fifo",
                 placement: Union[str, PlacementStrategy] = "round-robin",
                 lost_work_penalty: float = 0.0,
                 streaming: bool = False,
                 name: str = "cluster-scheduler"):
        if not nodes:
            raise SchedulingError("a cluster scheduler needs at least one node")
        if lost_work_penalty < 0:
            raise SchedulingError("lost_work_penalty must be >= 0")
        self.env = env
        self.nodes = list(nodes)
        #: Cores of the largest node: the widest job the cluster accepts
        #: (nodes and their core counts are fixed at construction).
        self.max_node_cores = max(node.total_cores for node in self.nodes)
        self.registry = registry
        self.tracer = tracer
        self.policy = make_policy(policy)
        self.placement = make_placement(placement)
        self.lost_work_penalty = float(lost_work_penalty)
        self.name = name

        #: All submitted jobs, in submission order.
        self.jobs: List[Job] = []
        #: Jobs that have arrived but not yet been dispatched.
        self.queue: List[Job] = []
        #: Records of completed jobs.
        self.records: List[JobRecord] = []
        #: Executors created for dispatched jobs (for per-app makespans).
        self.executors: List[WorkflowExecutor] = []
        #: Process of each running job, keyed by job id.
        self._running_procs: Dict[int, Process] = {}
        #: Ids of jobs whose process generator has ended since the main
        #: loop last reaped (filled by :meth:`_run_job` in its last step).
        self._finished: List[int] = []
        #: The event the main loop is waiting on in the current pass (see
        #: :meth:`run`).
        self._wait: Optional[Event] = None
        #: The arrival timeout the current wait listens to, if any.
        self._arrival_timeout: Optional[Event] = None
        #: Executor of each dispatched job, reused across preemptions so
        #: the checkpoint (completed tasks, compute credit) carries over.
        self._executors_by_job: Dict[int, WorkflowExecutor] = {}
        #: Jobs whose suspension is in flight (interrupted, not yet
        #: requeued); no new preemption is planned until this drains.
        self._suspending: Dict[int, Job] = {}
        #: Ids of jobs interrupted by a node *crash* (as opposed to a
        #: policy preemption): they requeue unpinned, with a restart
        #: counted instead of a preemption.
        self._crashed: set = set()
        #: Node crashes injected so far (see :meth:`fail_node`).
        self.n_node_failures = 0
        #: Crash-driven requeues so far.
        self.n_job_restarts = 0
        #: Fault mode keeps the scheduler alive when no node is currently
        #: available (all down / draining): instead of raising the stall
        #: guard, the main loop also waits on the shared wake event, which
        #: fault and elasticity transitions trigger through :meth:`kick`.
        #: Enabled by the fault injector; off by default so fault-free runs
        #: are byte-identical to the pre-fault scheduler.
        self.fault_mode = False
        #: The main loop's wake event (see :meth:`kick`), waited on while
        #: in fault mode or while the submission stream is open; ``None``
        #: when the current wait does not listen to one.
        self._wake: Optional[Event] = None
        #: Streaming mode (see the class docstring).
        self.streaming = bool(streaming)
        self._stream_closed = False
        #: Submitted-but-not-yet-arrived jobs, a heap of
        #: (arrival_time, id, job).
        self._arrivals: List[Tuple[float, int, Job]] = []
        self._labels: set = set()
        self._next_id = 0
        self._started = False

    # ------------------------------------------------------------ submission
    def submit(self, job: Job) -> Job:
        """Register a job for execution while the submission stream is open.

        A batch scheduler's stream closes when :meth:`run` starts; a
        streaming one's stays open — submissions are accepted at any
        *paused* point, e.g. from a service loop that drives the DES via
        ``step_until`` — until :meth:`close_stream`.  An arrival time in
        the simulated past is clamped to ``env.now``: a job cannot arrive
        before the instant it was submitted.
        """
        if self._stream_closed:
            raise SchedulingError(
                "the submission stream is closed; no further jobs accepted"
            )
        if job.cores > self.max_node_cores:
            raise SchedulingError(
                f"job {job.label!r} needs {job.cores} cores but the largest "
                f"node has only {self.max_node_cores}"
            )
        # Labels key the traces and per-app makespans; duplicates would
        # silently merge two jobs' results.
        if job.label in self._labels:
            raise SchedulingError(
                f"a job labelled {job.label!r} was already submitted; "
                "give each job a unique label"
            )
        self._labels.add(job.label)
        job.id = self._next_id
        self._next_id += 1
        if self._started and job.arrival_time < self.env.now:
            job.arrival_time = self.env.now
        self.jobs.append(job)
        heapq.heappush(self._arrivals, (job.arrival_time, job.id, job))
        self.kick()
        return job

    def close_stream(self) -> None:
        """Declare a streaming scheduler's submission stream over.

        The main loop terminates once every already-accepted job has
        completed; further :meth:`submit` calls raise.  Idempotent: a
        second close does not wake the loop.
        """
        if not self.streaming:
            raise SchedulingError("close_stream() requires a streaming scheduler")
        if self._stream_closed:
            return
        self._stream_closed = True
        self.kick()

    @property
    def total_cores(self) -> int:
        """Total cores over all nodes."""
        return sum(node.total_cores for node in self.nodes)

    def node(self, name: str) -> NodeState:
        """Return the node named ``name``."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise SchedulingError(
            f"unknown node {name!r}; known nodes: {[n.name for n in self.nodes]}"
        )

    # -------------------------------------------------------------- main loop
    def run(self):
        """Scheduler main loop; simulation process.

        Event-driven: each pass moves newly arrived jobs into the queue,
        asks the policy/placement pair for dispatch decisions until no
        further job can start, then yields one plain event, the *wait*.
        Three kinds of source trigger the wait, each through one callback
        registered when the source is created, so a pass costs the same
        however many jobs are running:

        * a running job's process, when it ends (a failed process fails
          the wait with its exception);
        * the timeout to the head of the arrival heap;
        * the wake event (:meth:`kick`), listened to in fault mode and
          while the submission stream is open.

        A source triggers the wait only if the current pass listens to it,
        and only the first trigger counts.  After the wait, the loop reaps
        the jobs whose process generator has ended.  A batch scheduler's
        submission stream closes here; an open stream keeps the loop alive
        on the wake event even when it has nothing to do.  The loop exits
        once the stream is closed and every accepted job has completed.
        """
        self._started = True
        if not self.streaming:
            self._stream_closed = True
        env = self.env
        arrivals = self._arrivals
        running = self._running_procs
        finished = self._finished
        # The timeout to the next arrival is reused across passes, keyed
        # by the head job's id (a submit may change the head): a job
        # completion must not schedule a duplicate timeout for the same
        # arrival.  Its callback wakes the loop only while it is the
        # timeout of the current wait, so a timeout orphaned by a new head
        # fires harmlessly.
        arrival_id = -1

        while not self._stream_closed or arrivals or self.queue or running:
            now = env.now
            while arrivals and arrivals[0][0] <= now + _EPSILON:
                self.queue.append(heapq.heappop(arrivals)[2])

            self._dispatch()

            observer = env.observer
            if observer is not None:
                observer.counter_sample(
                    "scheduler.jobs", "scheduler", now,
                    {"queued": len(self.queue), "running": len(running)},
                )

            wait = self._wait = Event(env)
            timeout = None
            if arrivals:
                head_time, head_id, _ = arrivals[0]
                if arrival_id == head_id:
                    timeout = self._arrival_timeout
                else:
                    timeout = env.timeout(max(0.0, head_time - now))
                    timeout.callbacks.append(self._wake_wait)
                    arrival_id = head_id
            self._arrival_timeout = timeout
            wake = None
            if self.fault_mode or not self._stream_closed:
                # Under fault injection the scheduler can be left with
                # queued jobs and nothing to wait on (every node down or
                # draining); an open stream waits for its next submission.
                wake = self._wake
                if wake is None or wake.triggered:
                    wake = Event(env)
                    wake.callbacks.append(self._wake_wait)
            self._wake = wake
            if not running and timeout is None and wake is None:
                # Jobs are validated to fit on some node at submission, so
                # an empty cluster with a non-empty queue is a logic error.
                raise SchedulingError(
                    f"scheduler stalled with {len(self.queue)} queued job(s)"
                )
            if timeout is not None and timeout.callbacks is None:
                # Already processed (a reused timeout whose head the
                # epsilon test did not pop): it wakes the loop at once.
                # Running jobs have not ended (ended ones were reaped) and
                # the wake event is untriggered, so nothing else can be.
                wait.succeed()
            yield wait

            # Reap the jobs whose process generator ended.
            if finished:
                for job_id in finished:
                    process = running.pop(job_id)
                    if not process.ok:
                        raise process.value
                finished.clear()

    def _wake_wait(self, event: Event) -> None:
        """Callback of the arrival timeout and the wake event.

        Triggers the current wait if it listens to ``event``.
        """
        if event is self._arrival_timeout or event is self._wake:
            wait = self._wait
            if not wait.triggered:
                wait.succeed()

    def _job_ended(self, job_id: int, process: Process) -> None:
        """Callback of a job's process: trigger the current wait.

        A job reaped in an earlier pass (or whose id already belongs to
        the process of its resumed run) is not part of the current wait.
        A failed process fails the wait and counts as handled there.
        """
        if self._running_procs.get(job_id) is not process:
            return
        wait = self._wait
        if wait.triggered:
            return
        if process.ok:
            wait.succeed()
        else:
            process.defused = True
            wait.fail(process.value)

    def _dispatch(self) -> None:
        """Start every job the policy allows right now."""
        while self.queue:
            decision = self.policy.select(self.queue, self.nodes, self.env.now)
            if decision is None:
                break
            job = decision.job
            candidates = decision.allowed_nodes
            if candidates is None:
                candidates = fitting_nodes(job, self.nodes)
            if not candidates:
                raise SchedulingError(
                    f"policy {self.policy.name!r} selected job {job.label!r} "
                    "but no node can fit it"
                )
            node = self.placement.select_node(job, candidates, self.env.now)
            self.queue.remove(job)
            node.allocate(job)
            # Create the executor before the job's process first runs, so
            # a preemption planned in this very dispatch pass can already
            # checkpoint the job (the process itself starts later).
            self._executor_for(job, node)
            process = self.env.process(
                self._run_job(job, node), name=f"{self.name}:{job.label}"
            )
            process.callbacks.append(partial(self._job_ended, job.id))
            self._running_procs[job.id] = process
        self._try_preempt()

    def _try_preempt(self) -> None:
        """Suspend lower-priority running jobs if the policy asks for it.

        Only preemptive policies expose ``plan_preemption``.  While a
        suspension is in flight (victims interrupted but not yet
        requeued), no further plan is made: the preemptor dispatches
        naturally once the victims' cores are released, and planning
        against half-suspended node state would double-count victims.
        """
        planner = getattr(self.policy, "plan_preemption", None)
        if planner is None or not self.queue or self._suspending:
            return
        plan = planner(self.queue, self.nodes, self.env.now)
        if plan is None:
            return
        observer = self.env.observer
        for victim in plan.victims:
            self._suspending[victim.id] = victim
            self._executors_by_job[victim.id].preempt()
            # Priority-aware eviction: the victim's input files lose their
            # residency privilege on the node that was running it.
            if victim.node_name is not None:
                manager = self.node(victim.node_name).host.memory_manager
                if manager is not None and manager.wants_job_events:
                    manager.notify_job_preempted(
                        [f.name for f in victim.input_files()]
                    )
            if observer is not None:
                observer.instant(
                    f"preempt:{victim.label}", "preemption", "scheduler",
                    self.env.now,
                    {"job": victim.label, "node": victim.node_name,
                     "cores": victim.cores},
                )
                observer.registry.counter("scheduler.preemptions").inc()

    # ------------------------------------------------------ faults/elasticity
    def kick(self) -> None:
        """Trigger the main loop's wake event, re-running the dispatch pass.

        Called by :meth:`submit` and :meth:`close_stream`, and after a
        node comes up (repair, elastic join): queued jobs may now fit
        where nothing fit before, and no arrival or completion is
        guaranteed to wake the loop.  A no-op unless the current wait
        listens to an untriggered wake event, which the loop creates only
        in fault mode or while the stream is open.  The wake event is
        processed first and its callback then triggers the wait, so a kick
        takes two hops through the event queue.
        """
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def fail_node(self, name: str) -> List[Job]:
        """Crash a node: kill its jobs, mark it down, abort its transfers.

        Every job running on the node is interrupted through the
        checkpoint machinery in *crash* mode (no compute credit for the
        in-flight segment — that progress lived in the node's memory) and
        will requeue unpinned with ``restarts`` incremented once its
        process unwinds.  The host is marked down and all in-flight
        transfers on its devices abort.  Returns the victim jobs.

        The caller — normally the fault injector — must let the current
        event cascade drain (``yield env.timeout(0)``) and then invalidate
        the node's page cache; the interrupted tasks' rollbacks release
        their anonymous memory first, keeping the accounting exact.
        """
        node = self.node(name)
        if not node.up or node.left:
            return []
        node.n_failures += 1
        self.n_node_failures += 1
        victims = list(node.running.values())
        for victim in victims:
            self._crashed.add(victim.id)
            self._suspending[victim.id] = victim
            executor = self._executors_by_job.get(victim.id)
            if executor is not None:
                executor.crash()
        aborted = node.host.fail()
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"fail:{name}", "fault", "scheduler", self.env.now,
                {"node": name, "victims": len(victims),
                 "aborted_flows": aborted},
            )
            observer.registry.counter("faults.node_failures").inc()
        return victims

    def restore_node(self, name: str) -> None:
        """Bring a crashed node back up (repaired) and wake the loop.

        A repair arriving for a node that has since left the cluster
        (elastic leave completed while the node was down) is discarded:
        leave wins the race.
        """
        node = self.node(name)
        if node.up or node.left:
            return
        node.host.restore()
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"repair:{name}", "fault", "scheduler", self.env.now,
                {"node": name},
            )
            observer.registry.counter("faults.node_repairs").inc()
        self.kick()

    def drain_node(self, name: str) -> None:
        """Stop dispatching to a node; running jobs finish normally.

        The first half of drain-before-leave elasticity: once
        ``node.running`` empties the node can safely leave.
        """
        node = self.node(name)
        if node.draining:
            return
        node.draining = True
        # A preempted job pinned to this node could otherwise never
        # resume once the node leaves; unpin it (the checkpoint on the
        # node's storage stays readable remotely).
        for job in self.queue:
            if job.pinned_node == name:
                job.pinned_node = None
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"drain:{name}", "elastic", "scheduler", self.env.now,
                {"node": name, "running": node.n_running},
            )

    def undrain_node(self, name: str) -> None:
        """Make a draining (or not-yet-joined burstable) node schedulable.

        A join arriving for a node that already left is discarded — a
        departed node cannot rejoin the cluster.
        """
        node = self.node(name)
        if node.left or not node.draining:
            return
        node.draining = False
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"join:{name}", "elastic", "scheduler", self.env.now,
                {"node": name},
            )
        self.kick()

    def leave_node(self, name: str) -> None:
        """Complete an elastic leave: the drained node departs for good.

        The second half of drain-before-leave.  From here on the node is
        permanently out of the cluster; the crash/repair machinery
        discards every event still in flight for it (a pending repair of
        a crashed-while-draining node never restores it), and join events
        are ignored.  Idempotent.
        """
        node = self.node(name)
        if node.left:
            return
        node.left = True
        node.draining = True
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"leave:{name}", "elastic", "scheduler", self.env.now,
                {"node": name},
            )
            observer.registry.counter("faults.elastic_leaves").inc()

    def _executor_for(self, job: Job, node: NodeState) -> WorkflowExecutor:
        """The job's executor, created on first dispatch and reused after."""
        executor = self._executors_by_job.get(job.id)
        if executor is None:
            executor = WorkflowExecutor(
                self.env,
                job.workflow,
                node.host,
                self.registry,
                node.storage,
                self.tracer,
                label=job.label,
                # The reservation is an execution bound: a job never runs
                # more concurrent tasks than the cores it reserved.
                max_concurrent_tasks=job.cores,
                lost_work_penalty=self.lost_work_penalty,
            )
            self._executors_by_job[job.id] = executor
            self.executors.append(executor)
        elif executor.host is not node.host:
            # Crash restart placed the job on a different node: repoint
            # the executor (outputs written so far stay on the old node's
            # storage and are read remotely via the registry).
            executor.rebind(node.host, node.storage)
        return executor

    def _run_job(self, job: Job, node: NodeState):
        """Execute (or resume) one dispatched job on ``node``; simulation
        process.

        A preempted job keeps its executor: the checkpoint — completed
        tasks, partial compute credit, and the node's page-cache residency
        of its input files — carries over to the resume.
        """
        executor = self._executor_for(job, node)
        job.node_name = node.name
        if job.start_time is None:
            job.start_time = self.env.now
        job.last_start_time = self.env.now
        # Cache-ownership plumbing: a dispatch (or resume) registers the
        # job's inputs, priority and clamped queueing wait with the node's
        # eviction policy, when the policy consumes job events.
        manager = node.host.memory_manager
        if manager is not None and manager.wants_job_events:
            manager.notify_job_dispatch(
                [f.name for f in job.input_files()],
                job.priority,
                wait=clamped_wait(job.start_time, job.arrival_time),
            )
        preempted = False
        try:
            outcome = yield from executor.run()
            preempted = outcome == WorkflowExecutor.PREEMPTED
        finally:
            job.run_seconds += self.env.now - job.last_start_time
            node.release(job)
            self._suspending.pop(job.id, None)
            # Nothing below yields, so the generator ends in this step:
            # the main loop reaps exactly the jobs recorded here.
            self._finished.append(job.id)
            observer = self.env.observer
            if observer is not None:
                # One "job" span per run segment: a preempted job shows as
                # several segments separated by its requeued wait.
                observer.complete(
                    job.label, "job", f"node:{node.name}",
                    job.last_start_time, self.env.now,
                    {"cores": job.cores, "priority": job.priority,
                     "preempted": preempted},
                )
        if preempted:
            if job.id in self._crashed:
                # Crash restart: the in-flight segment is gone (no credit
                # past the last checkpoint) and the node is down — requeue
                # unpinned so any node may restart the job.
                self._crashed.discard(job.id)
                job.restarts += 1
                self.n_job_restarts += 1
                job.pinned_node = None
                observer = self.env.observer
                if observer is not None:
                    observer.instant(
                        f"restart:{job.label}", "fault", "scheduler",
                        self.env.now,
                        {"job": job.label, "node": node.name,
                         "restarts": job.restarts},
                    )
                    observer.registry.counter("faults.job_restarts").inc()
            else:
                job.preemptions += 1
                # Resume on the checkpoint's node — unless the node can no
                # longer take work (crashed or draining since the plan).
                job.pinned_node = node.name if node.available else None
            self.queue.append(job)
            return
        job.end_time = self.env.now
        observer = self.env.observer
        if observer is not None:
            registry = observer.registry
            registry.counter("scheduler.jobs_completed").inc()
            registry.histogram("scheduler.job_wait_seconds").observe(
                clamped_wait(job.start_time, job.arrival_time)
            )
            registry.histogram("scheduler.job_turnaround_seconds").observe(
                clamped_wait(job.end_time, job.arrival_time)
            )
        self.records.append(
            JobRecord(
                job_id=job.id,
                label=job.label,
                node=node.name,
                cores=job.cores,
                arrival_time=job.arrival_time,
                start_time=job.start_time,
                end_time=job.end_time,
                estimated_runtime=job.estimated_runtime,
                priority=job.priority,
                preemptions=job.preemptions,
                restarts=job.restarts,
                run_seconds=job.run_seconds,
            )
        )

    # --------------------------------------------------------------- results
    def metrics(self) -> SchedulerMetrics:
        """Aggregate metrics over the completed jobs."""
        records = sorted(self.records, key=lambda r: r.job_id)
        first_arrival = min((r.arrival_time for r in records), default=0.0)
        last_completion = max((r.end_time for r in records), default=0.0)
        return SchedulerMetrics(
            records=records,
            total_cores=self.total_cores,
            first_arrival=first_arrival,
            last_completion=last_completion,
            n_node_failures=self.n_node_failures,
            n_job_restarts=self.n_job_restarts,
            lost_work_seconds=sum(
                executor.lost_compute_seconds for executor in self.executors
            ),
            n_submitted=len(self.jobs),
        )

    def __repr__(self) -> str:
        return (
            f"<ClusterScheduler nodes={len(self.nodes)} "
            f"policy={self.policy.name!r} placement={self.placement.name!r} "
            f"jobs={len(self.jobs)}>"
        )
