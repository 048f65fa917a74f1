"""Simulation facade.

:class:`Simulation` is the main entry point of the library.  It ties
together a platform, storage services, workflows and tracing, then runs the
discrete-event simulation and returns a :class:`SimulationResult` with
everything the paper's figures are built from: per-operation times, memory
profiles, cache contents and cache statistics.

Example
-------
>>> from repro import Simulation, SimulationConfig, GB
>>> from repro.apps.synthetic import synthetic_workflow
>>> sim = Simulation(config=SimulationConfig(cache_mode="writeback"))
>>> platform = sim.create_cluster_platform(1, with_nfs_server=False)
>>> svc = sim.create_storage_service("node1", "/local")
>>> app = synthetic_workflow(input_size=3 * GB)
>>> sim.stage_file(app.input_files()[0], svc)
>>> executor = sim.submit_workflow(app, host="node1", storage=svc)
>>> result = sim.run()
>>> round(result.makespan, 1)
22.8
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - the scheduler imports simulator
    # modules, so the runtime imports live inside the methods below.
    from repro.scheduler.cluster import ClusterScheduler
    from repro.scheduler.job import Job
    from repro.scheduler.metrics import SchedulerMetrics
    from repro.scheduler.placement import PlacementStrategy
    from repro.scheduler.policies import SchedulingPolicy

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.process import Process
from repro.errors import ConfigurationError
from repro.filesystem.file import File
from repro.filesystem.registry import FileRegistry
from repro.obs import DESSampler, Observer, env_observability_enabled, publish
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.memory_manager import MemorySnapshot
from repro.pagecache.stats import CacheStatistics, ExtentOccupancy
from repro.platform.host import Host
from repro.platform.platform import Platform, concordia_cluster
from repro.simulator.cacheless import SimpleStorageService
from repro.simulator.storage_service import (
    NFSStorageService,
    PageCachedStorageService,
    StorageService,
)
from repro.simulator.tracing import CacheContentRecord, OperationRecord, Tracer
from repro.simulator.wms import WorkflowExecutor
from repro.simulator.workflow import Task, Workflow
from repro.units import GB, MB

#: Valid cache modes for storage services.
CACHE_MODES = ("none", "writeback", "writethrough")


@dataclass
class SimulationConfig:
    """Global configuration of a simulation.

    Attributes
    ----------
    cache_mode:
        Default cache mode of storage services: ``"none"`` reproduces the
        original WRENCH simulator, ``"writeback"`` and ``"writethrough"``
        enable the page cache model.
    page_cache:
        Kernel tunables for the page cache model, including the chunk
        size of every page-cached read and write.
    trace_interval:
        Period in simulated seconds of the memory profile sampler
        (``None`` disables sampling).
    """

    cache_mode: str = "writeback"
    page_cache: PageCacheConfig = field(default_factory=PageCacheConfig)
    trace_interval: Optional[float] = 1.0

    def __post_init__(self) -> None:
        if self.cache_mode not in CACHE_MODES:
            raise ConfigurationError(
                f"cache_mode must be one of {CACHE_MODES}, got {self.cache_mode!r}"
            )
        if self.trace_interval is not None and self.trace_interval <= 0:
            raise ConfigurationError("trace_interval must be positive")


@dataclass
class SimulationResult:
    """Everything observed during a simulation run."""

    #: Simulated makespan (time of the last completed workflow).
    makespan: float
    #: Wall-clock time spent running the simulation (Figure 8).
    wallclock_time: float
    #: All traced read/compute/write operations.
    operations: List[OperationRecord]
    #: Periodic memory snapshots (Figure 4b).
    memory_trace: List[MemorySnapshot]
    #: Per-file cache contents recorded after each I/O (Figure 4c); empty
    #: when the simulation has more than one page cache.
    cache_contents: List[CacheContentRecord]
    #: Cache statistics per host name.
    cache_stats: Dict[str, CacheStatistics]
    #: Per-workflow-instance makespan, keyed by label.
    app_makespans: Dict[str, float]
    #: Batch-scheduler metrics (``None`` unless a cluster scheduler ran):
    #: wait times, bounded slowdown, utilization, throughput.
    scheduler: Optional[SchedulerMetrics] = None
    #: The telemetry observer (``None`` unless the simulation was built
    #: with ``observe=...`` or ``REPRO_OBS``): spans, counter samples and
    #: the metrics registry, ready for the :mod:`repro.obs` exporters.
    observer: Optional[Observer] = None

    # ------------------------------------------------------------------- api
    def operations_of(self, kind: str, app: Optional[str] = None) -> List[OperationRecord]:
        """Operations of ``kind`` (optionally restricted to one app)."""
        return [
            record
            for record in self.operations
            if record.kind == kind and (app is None or record.app == app)
        ]

    def duration_of(self, task: str, kind: str, app: Optional[str] = None) -> float:
        """Summed duration of ``kind`` operations of ``task``."""
        return sum(
            record.duration
            for record in self.operations
            if record.task == task
            and record.kind == kind
            and (app is None or record.app == app)
        )

    def total_read_time(self, app: Optional[str] = None) -> float:
        """Total simulated time spent reading files."""
        return sum(record.duration for record in self.operations_of("read", app))

    def total_write_time(self, app: Optional[str] = None) -> float:
        """Total simulated time spent writing files."""
        return sum(record.duration for record in self.operations_of("write", app))

    def mean_app_read_time(self) -> float:
        """Mean per-application cumulative read time (Figures 5 and 7)."""
        # Apps in order of first appearance: the float sum must not
        # depend on the hash seed, as a set's iteration order does.
        apps = dict.fromkeys(record.app for record in self.operations)
        if not apps:
            return 0.0
        return sum(self.total_read_time(app) for app in apps) / len(apps)

    def mean_app_write_time(self) -> float:
        """Mean per-application cumulative write time (Figures 5 and 7)."""
        apps = dict.fromkeys(record.app for record in self.operations)
        if not apps:
            return 0.0
        return sum(self.total_write_time(app) for app in apps) / len(apps)

    def read_cache_hit_ratio(self, app: Optional[str] = None) -> float:
        """Fraction of read bytes served by page caches (0 if no reads).

        Aggregated over the traced read operations, so it covers every
        host's cache in multi-node simulations.
        """
        reads = self.operations_of("read", app)
        total = sum(record.size for record in reads)
        if total <= 0:
            return 0.0
        return sum(record.cache_bytes for record in reads) / total


class Simulation:
    """Builds and runs one simulated execution.

    Parameters
    ----------
    env:
        Simulation environment (a fresh one is created by default).
    config:
        Global configuration.
    observe:
        Telemetry switch: ``True`` attaches a default
        :class:`repro.obs.Observer`, an :class:`~repro.obs.Observer`
        instance attaches that observer, ``False`` disables telemetry,
        and ``None`` (the default) defers to the ``REPRO_OBS``
        environment variable.  Telemetry only observes — enabling it
        does not change simulated results.
    fault_plan:
        A :class:`repro.faults.FaultPlan` describing node crashes,
        stragglers and elastic capacity to inject while the cluster
        scheduler runs.  ``None`` or the zero plan (``FaultPlan()``)
        injects nothing and leaves the run byte-identical to a fault-free
        simulation; a non-zero plan requires a cluster scheduler.
    """

    def __init__(self, env: Optional[Environment] = None,
                 config: Optional[SimulationConfig] = None,
                 observe: Union[bool, Observer, None] = None,
                 fault_plan=None):
        self.env = env or Environment()
        self.config = config or SimulationConfig()
        if observe is None:
            observe = env_observability_enabled()
        if isinstance(observe, Observer):
            self.observer: Optional[Observer] = observe
        else:
            self.observer = Observer() if observe else None
        if self.observer is not None:
            self.env.observer = self.observer
        self.platform: Optional[Platform] = None
        self.registry = FileRegistry()
        self.tracer = Tracer(self.env, sample_interval=self.config.trace_interval,
                             observer=self.observer)
        self.storage_services: List[StorageService] = []
        self._executors: List[WorkflowExecutor] = []
        self._scheduler: Optional[ClusterScheduler] = None
        self.fault_plan = fault_plan
        self._fault_injector = None
        #: Lifecycle: ``_started`` flips when the processes are launched
        #: (first :meth:`run` or :meth:`step_until`); ``_has_run`` when the
        #: result has been finalized (a Simulation finalizes only once).
        self._started = False
        self._has_run = False
        #: Triggered by the top-level processes (see :meth:`_start`).
        self._completion: Optional[Event] = None
        #: Top-level processes that have not yet ended successfully.
        self._unfinished = 0
        self._sampler = None
        self._wallclock = 0.0
        #: Build recipe bound by ``build_experiment``
        #: (:mod:`repro.snapshot.recipe`); snapshots embed it so a restore
        #: can rebuild the simulation from scratch and replay to time T.
        self._recipe = None

    # --------------------------------------------------------------- platform
    def set_platform(self, platform: Platform) -> Platform:
        """Use an externally built platform."""
        self.platform = platform
        return platform

    def create_cluster_platform(self, compute_nodes: int = 1,
                                **kwargs) -> Platform:
        """Create the paper's cluster: compute nodes and an NFS server.

        Keyword arguments are forwarded to
        :func:`~repro.platform.platform.concordia_cluster`; a one-node
        platform without the server is
        ``create_cluster_platform(1, with_nfs_server=False)``.
        """
        return self.set_platform(
            concordia_cluster(self.env, compute_nodes=compute_nodes, **kwargs)
        )

    def host(self, name: str) -> Host:
        """Return a host of the platform."""
        if self.platform is None:
            raise ConfigurationError("no platform has been set")
        return self.platform.host(name)

    # --------------------------------------------------------------- services
    def create_storage_service(self, host_name: str, mount_point: str, *,
                               cache_mode: Optional[str] = None) -> StorageService:
        """Create a local storage service on ``host_name``/``mount_point``."""
        mode = cache_mode or self.config.cache_mode
        if mode not in CACHE_MODES:
            raise ConfigurationError(f"unknown cache mode {mode!r}")
        host = self.host(host_name)
        disk = host.disk(mount_point)
        if mode == "none":
            network = self.platform.network if self.platform else None
            service: StorageService = SimpleStorageService(
                self.env, host, disk, network=network
            )
        else:
            service = PageCachedStorageService(
                self.env,
                host,
                disk,
                cache_config=self.config.page_cache,
                writethrough=(mode == "writethrough"),
            )
            self.tracer.attach_memory_manager(service.memory_manager)
        self.storage_services.append(service)
        return service

    def create_nfs_storage_service(self, server_host: str, mount_point: str, *,
                                   cache_mode: Optional[str] = None) -> StorageService:
        """Create an NFS storage service served by ``server_host``.

        With ``cache_mode="none"`` the server does not cache anything
        (cacheless baseline); otherwise the server's page cache runs in
        that mode (writethrough in the paper's Exp 3).
        """
        mode = cache_mode or self.config.cache_mode
        if mode not in CACHE_MODES:
            raise ConfigurationError(f"unknown cache mode {mode!r}")
        host = self.host(server_host)
        disk = host.disk(mount_point)
        if mode == "none":
            service: StorageService = SimpleStorageService(
                self.env, host, disk, network=self.platform.network
            )
        else:
            service = NFSStorageService(
                self.env,
                host,
                disk,
                network=self.platform.network,
                cache_config=self.config.page_cache,
                writethrough=(mode == "writethrough"),
            )
            self.tracer.attach_memory_manager(service.memory_manager)
        self.storage_services.append(service)
        return service

    # ------------------------------------------------------------------ files
    def stage_file(self, file: File, service: StorageService) -> None:
        """Create ``file`` on ``service`` before the simulation starts."""
        service.stage_file(file)
        self.registry.add_entry(file, service)

    def stage_file_replicated(self, file: File) -> None:
        """Stage ``file`` on the local storage of every scheduler node.

        Mirrors a fully replicated dataset (or a pre-staged distributed
        file system): any node can read the file from its own disk, and
        workflow executors prefer the replica local to their host, so each
        node's page cache warms up independently — the situation
        cache-locality-aware placement exploits.
        """
        if self._scheduler is None:
            raise ConfigurationError(
                "stage_file_replicated requires a cluster scheduler; "
                "call create_cluster_scheduler first"
            )
        for node in self._scheduler.nodes:
            self.stage_file(file, node.storage)

    # -------------------------------------------------------------- workflows
    def submit_workflow(self, workflow: Workflow, *, host: str,
                        storage: StorageService,
                        label: Optional[str] = None) -> WorkflowExecutor:
        """Register a workflow instance for execution on ``host``.

        ``storage`` receives the files produced by the workflow.  Input
        files must have been staged (or be produced by another submitted
        workflow) before :meth:`run` is called.
        """
        effective_label = label or workflow.name
        if self._scheduler is not None and any(
            job.label == effective_label for job in self._scheduler.jobs
        ):
            raise ConfigurationError(
                f"label {effective_label!r} is already used by a submitted "
                "job; labels key the traces and per-app makespans"
            )
        executor = WorkflowExecutor(
            self.env,
            workflow,
            self.host(host),
            self.registry,
            storage,
            self.tracer,
            label=label,
        )
        self._executors.append(executor)
        return executor

    # -------------------------------------------------------------- batch jobs
    def create_cluster_scheduler(self, *,
                                 policy: Union[str, SchedulingPolicy] = "fifo",
                                 placement: Union[str, PlacementStrategy] = "round-robin",
                                 lost_work_penalty: float = 0.0,
                                 streaming: bool = False,
                                 ) -> ClusterScheduler:
        """Create the batch scheduler managing the platform's compute nodes.

        The compute nodes are the hosts with a ``/local`` disk, in platform
        order (the NFS server and its ``/export`` disk are left out), and
        each gets one storage service on that disk.  Jobs are then
        submitted with :meth:`submit_job` and executed when :meth:`run` is
        called.

        With ``streaming=True`` the scheduler accepts submissions while
        the simulation runs (:meth:`submit_job` works at any paused
        point) and the run only completes once
        ``scheduler.close_stream()`` has been called — the mode
        :mod:`repro.service` drives.
        """
        from repro.scheduler.cluster import ClusterScheduler, NodeState

        if self._scheduler is not None:
            raise ConfigurationError("a cluster scheduler has already been created")
        if self.platform is None:
            raise ConfigurationError("create a platform before the scheduler")
        nodes = [
            NodeState(host, self.create_storage_service(name, "/local"))
            for name, host in self.platform.hosts.items()
            if "/local" in host.disks
        ]
        if not nodes:
            raise ConfigurationError("no host has a disk mounted at '/local'")
        self._scheduler = ClusterScheduler(
            self.env,
            nodes,
            self.registry,
            self.tracer,
            policy=policy,
            placement=placement,
            lost_work_penalty=lost_work_penalty,
            streaming=streaming,
        )
        return self._scheduler

    @property
    def scheduler(self) -> Optional[ClusterScheduler]:
        """The cluster scheduler, if one was created."""
        return self._scheduler

    def submit_job(self, workflow: Workflow, *, cores: int = 1,
                   arrival_time: float = 0.0,
                   estimated_runtime: Optional[float] = None,
                   priority: int = 0,
                   label: Optional[str] = None) -> Job:
        """Submit a batch job to the cluster scheduler.

        Unlike :meth:`submit_workflow`, the execution host is not chosen by
        the caller: the job queues from ``arrival_time`` on and the
        scheduler's policy/placement pair decides when and where it runs.
        Higher ``priority`` runs first under the priority policies; the
        preemptive policy may suspend lower-priority jobs for it.
        """
        from repro.scheduler.job import Job

        if self._scheduler is None:
            raise ConfigurationError(
                "submit_job requires a cluster scheduler; "
                "call create_cluster_scheduler first"
            )
        job = Job(
            workflow,
            cores=cores,
            arrival_time=arrival_time,
            estimated_runtime=estimated_runtime,
            priority=priority,
            label=label,
        )
        if any(executor.label == job.label for executor in self._executors):
            raise ConfigurationError(
                f"label {job.label!r} is already used by a submitted "
                "workflow; labels key the traces and per-app makespans"
            )
        return self._scheduler.submit(job)

    def submit_trace(self, trace, *, max_jobs: Optional[int] = None,
                     load_factor: float = 1.0,
                     runtime_scale: float = 1.0,
                     dataset_size: float = 1 * GB,
                     output_size: float = 128 * MB) -> List[Job]:
        """Replay an SWF workload trace as batch jobs.

        ``trace`` is an :class:`~repro.scheduler.swf.SWFTrace` or a path
        to an SWF file.  Each trace job becomes a single-task batch job
        that reads a shared input dataset (one dataset per SWF
        application/"executable number", replicated on every node's local
        storage), computes for its recorded runtime, and writes a private
        output file.  Priorities default to the SWF queue number.

        Scaling knobs (``max_jobs``, ``load_factor``, ``runtime_scale``)
        are forwarded to :meth:`~repro.scheduler.swf.SWFTrace.job_specs`;
        core requests are rescaled so the widest trace job exactly fits
        the largest scheduler node.  Jobs are labelled ``swf<job id>``.

        Returns the submitted :class:`~repro.scheduler.job.Job` list.
        """
        from repro.scheduler.swf import SWFTrace, load_swf

        if self._scheduler is None:
            raise ConfigurationError(
                "submit_trace requires a cluster scheduler; "
                "call create_cluster_scheduler first"
            )
        if not isinstance(trace, SWFTrace):
            trace = load_swf(trace)
        if trace.skipped:
            import warnings

            first_line, first_reason = trace.skipped[0]
            warnings.warn(
                f"SWF trace: tolerated {len(trace.skipped)} malformed "
                f"line(s) (first: line {first_line}, {first_reason}); the "
                "replay runs on the remaining "
                f"{trace.n_jobs} record(s)",
                stacklevel=2,
            )
        specs = trace.job_specs(
            max_jobs=max_jobs,
            load_factor=load_factor,
            runtime_scale=runtime_scale,
            max_cores=self._scheduler.max_node_cores,
        )

        datasets: Dict[int, File] = {}
        for spec in specs:
            if spec.app not in datasets:
                dataset = File(f"swf_app{spec.app}", dataset_size)
                self.stage_file_replicated(dataset)
                datasets[spec.app] = dataset

        jobs: List[Job] = []
        for spec in specs:
            label = f"swf{spec.job_id}"
            workflow = Workflow(label)
            workflow.add_task(
                Task.from_cpu_time(
                    "process",
                    spec.runtime,
                    inputs=[datasets[spec.app]],
                    outputs=[File(f"{label}_out", output_size)],
                )
            )
            jobs.append(
                self.submit_job(
                    workflow,
                    cores=spec.cores,
                    arrival_time=spec.arrival_time,
                    estimated_runtime=spec.estimated_runtime,
                    priority=spec.priority,
                    label=label,
                )
            )
        return jobs

    # ----------------------------------------------------------------- recipe
    def bind_recipe(self, recipe) -> None:
        """Attach the build recipe this simulation was constructed from.

        Called by :func:`repro.snapshot.recipe.build_experiment`.  A bound
        recipe is what makes :meth:`snapshot` possible: the snapshot file
        records the recipe, and :meth:`restore` rebuilds the simulation
        from it before replaying to the snapshot time.
        """
        self._recipe = recipe

    @property
    def recipe(self):
        """The bound build recipe, or ``None``."""
        return self._recipe

    # -------------------------------------------------------------------- run
    def _start(self) -> None:
        """Launch the simulation's processes (idempotent).

        Everything :meth:`run` used to do before entering the event loop:
        fault injector, executor and scheduler processes, the completion
        event and the optional DES sampler — in exactly that order, so a
        stepped run allocates event ids identically to a plain run.  Each
        top-level process gets one callback, :meth:`_process_ended`: the
        last one to end succeeds the completion event, and the first one
        to fail fails it.
        """
        if self._started:
            return
        if self._has_run:
            raise ConfigurationError("a Simulation object can only be run once")
        scheduled_jobs = self._scheduler.jobs if self._scheduler else []
        # A streaming scheduler may legitimately start empty: jobs arrive
        # over its lifetime via submit_job().
        streaming = self._scheduler is not None and self._scheduler.streaming
        if not self._executors and not scheduled_jobs and not streaming:
            raise ConfigurationError("no workflow or job was submitted")
        self._started = True

        if self.fault_plan is not None and not self.fault_plan.is_zero:
            if self._scheduler is None or not (scheduled_jobs or streaming):
                raise ConfigurationError(
                    "a non-zero fault_plan requires a cluster scheduler "
                    "with submitted jobs"
                )
            from repro.faults.injector import FaultInjector

            self._fault_injector = FaultInjector(
                self.env, self._scheduler, self.fault_plan
            )
            self._fault_injector.start()

        processes = [
            self.env.process(executor.run(), name=f"executor:{executor.label}")
            for executor in self._executors
        ]
        if self._scheduler is not None and (scheduled_jobs or streaming):
            processes.append(
                self.env.process(self._scheduler.run(), name="cluster-scheduler")
            )
        self._completion = Event(self.env)
        self._unfinished = len(processes)
        for process in processes:
            process.callbacks.append(self._process_ended)

        observer = self.observer
        if observer is not None and observer.des_sample_interval is not None:
            self._sampler = DESSampler(self.env, observer,
                                       interval=observer.des_sample_interval)
            self._sampler.start()

    def _process_ended(self, process: Process) -> None:
        """Callback of each top-level process (see :meth:`_start`)."""
        completion = self._completion
        if completion.triggered:
            return
        if not process.ok:
            process.defused = True
            completion.fail(process.value)
            return
        self._unfinished -= 1
        if not self._unfinished:
            completion.succeed()

    @property
    def completed(self) -> bool:
        """Whether every submitted workflow and job has finished."""
        return self._completion is not None and self._completion.processed

    def step_until(self, t: float) -> float:
        """Advance the simulation to simulated time ``t`` and pause.

        Runs the event loop up to completion with ``t`` as its time
        horizon: every event with timestamp ``<= t`` is processed (stopping
        early at completion), then the simulated clock is returned.  A run
        that stops before completion leaves the clock at ``t``, not at its
        last event, so an operation applied right after ``step_until(t)``
        happens at ``t`` whether or not telemetry sampler ticks were
        processed on the way.  The horizon inserts no guard event, so a run
        stepped in any number of segments processes *exactly* the events a
        plain :meth:`run` would, in the same order, with the same event ids
        — the invariant that makes snapshot-at-T byte-identical to an
        uninterrupted run.  Call :meth:`run` afterwards to finish the
        simulation and collect the result.
        """
        import time as _time

        self._start()
        t = float(t)
        if t < self.env.now:
            raise ConfigurationError(
                f"step_until({t}) is in the past (now={self.env.now})"
            )
        wall_start = _time.perf_counter()
        try:
            self.env.run(until=self._completion, horizon=t)
        finally:
            self._wallclock += _time.perf_counter() - wall_start
        return self.env.now

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation until all submitted workflows complete.

        May be called after any number of :meth:`step_until` segments; the
        result is identical to an unsegmented run (``wallclock_time``
        accumulates across segments).  A Simulation finalizes only once.
        """
        import time as _time

        if self._has_run:
            raise ConfigurationError("a Simulation object can only be run once")
        self._start()

        wall_start = _time.perf_counter()
        if until is not None:
            self.env.run(until=until)
        else:
            self.env.run(until=self._completion)
        self._wallclock += _time.perf_counter() - wall_start
        return self._finalize()

    def _finalize(self) -> SimulationResult:
        """Stop the background machinery and assemble the result."""
        self._has_run = True
        observer = self.observer
        if self._sampler is not None:
            self._sampler.stop()

        # Stop background flushers so that subsequent env.run calls (if any)
        # are not kept alive forever by the periodical flushing loops.
        for host in (self.platform.hosts.values() if self.platform else []):
            if host.memory_manager is not None:
                host.memory_manager.stop()

        cache_stats: Dict[str, CacheStatistics] = {}
        for host in (self.platform.hosts.values() if self.platform else []):
            if host.memory_manager is not None:
                cache_stats[host.name] = host.memory_manager.stats

        if observer is not None:
            self._publish_final_metrics(observer, cache_stats)

        executors = list(self._executors)
        if self._scheduler is not None:
            executors.extend(self._scheduler.executors)
        app_makespans = {
            executor.label: (executor.end_time - executor.start_time)
            for executor in executors
            if executor.start_time is not None and executor.end_time is not None
        }

        return SimulationResult(
            makespan=self.env.now,
            wallclock_time=self._wallclock,
            operations=list(self.tracer.operations),
            memory_trace=list(self.tracer.memory_trace),
            cache_contents=list(self.tracer.cache_contents),
            cache_stats=cache_stats,
            app_makespans=app_makespans,
            scheduler=(
                self._scheduler.metrics() if self._scheduler is not None else None
            ),
            observer=observer,
        )

    # --------------------------------------------------------------- snapshot
    def snapshot(self, path) -> "Path":
        """Write a crash-recoverable snapshot of the paused simulation.

        Requires a bound build recipe: build the simulation with
        ``build_experiment(name, **params)`` for an experiment registered
        in :data:`repro.snapshot.recipe.EXPERIMENTS`.  The file is written
        atomically (write-temp-then-rename) with a versioned header and a
        SHA-256 state fingerprint; see :mod:`repro.snapshot`.
        """
        from repro.snapshot import write_snapshot

        return write_snapshot(self, path)

    @classmethod
    def restore(cls, path, *, verify: bool = True) -> "Simulation":
        """Rebuild a simulation from a snapshot file, replayed to time T.

        The returned simulation is paused exactly where :meth:`snapshot`
        left the original: rebuild from the embedded recipe, deterministic
        replay to the snapshot time, and (unless ``verify=False``) a
        byte-exact comparison of the replayed state fingerprint against
        the recorded one (:class:`repro.errors.SnapshotIntegrityError` on
        mismatch).  Continue with :meth:`step_until` / :meth:`run`.  See
        :func:`repro.snapshot.restore_simulation`.
        """
        from repro.snapshot import restore_simulation

        return restore_simulation(path, verify=verify)

    def _publish_final_metrics(self, observer: Observer,
                               cache_stats: Dict[str, CacheStatistics]) -> None:
        """Fold end-of-run summaries into the telemetry registry.

        Thin adapters over the existing ``as_dict`` surfaces: the cache
        statistics and extent occupancy of every cached host, and the
        scheduler metrics when a cluster scheduler ran.  Keeping these in
        the registry (labelled per host) is what makes shard fan-in
        possible: registries from a sweep's worker processes merge
        associatively.
        """
        registry = observer.registry
        for host_name, stats in cache_stats.items():
            publish(registry, "cache", stats, host=host_name)
        for host in (self.platform.hosts.values() if self.platform else []):
            manager = host.memory_manager
            if manager is not None:
                publish(registry, "cache.extents",
                        ExtentOccupancy.of(manager.lists), host=host.name)
                publish(registry, "cache.policy", manager.policy.stats,
                        host=host.name, policy=manager.policy.name)
        if self._scheduler is not None:
            publish(registry, "scheduler", self._scheduler.metrics())
