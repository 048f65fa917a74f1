"""Integration-style tests for the Simulation facade, WMS and tracing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import File, Simulation, SimulationConfig
from repro.errors import ConfigurationError, SchedulingError
from repro.pagecache.config import PageCacheConfig
from repro.simulator.wms import WorkflowExecutor
from repro.simulator.workflow import Task, Workflow, chain_workflow
from repro.snapshot import build_experiment, capture_state
from repro.units import GB, GiB, MB, MBps


def quiet_config(**kwargs):
    """A simulation configuration without background flushing or tracing."""
    defaults = dict(
        cache_mode="writeback",
        page_cache=PageCacheConfig(periodic_flushing=False),
        trace_interval=None,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def simple_pipeline(size=1 * GB, name="app"):
    files = [File(f"{name}_f{i}", size) for i in range(3)]
    workflow = chain_workflow(name, files, [2.0, 3.0])
    return workflow, files[0]


class TestSimulationConfig:
    def test_invalid_cache_mode(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(cache_mode="bogus")

    def test_invalid_trace_interval(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(trace_interval=0)


class TestSimulationSetup:
    def test_host_lookup_requires_platform(self):
        sim = Simulation(config=quiet_config())
        with pytest.raises(ConfigurationError):
            sim.host("node1")

    def test_run_requires_workflow(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_run_twice_rejected(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform(1, with_nfs_server=False)
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        sim.stage_file(input_file, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_unknown_cache_mode_for_service(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            sim.create_storage_service("node1", "/local", cache_mode="bogus")

    def test_missing_input_file_detected(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform(1, with_nfs_server=False)
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        # Input file intentionally not staged.
        sim.submit_workflow(workflow, host="node1", storage=svc)
        with pytest.raises(SchedulingError):
            sim.run()


class TestEndToEndExecution:
    def _run(self, cache_mode):
        sim = Simulation(config=quiet_config(cache_mode=cache_mode))
        sim.create_cluster_platform(
            1, with_nfs_server=False,
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            local_disk_bandwidth=100 * MBps,
        )
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        sim.stage_file(input_file, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc, label="app")
        return sim.run()

    def test_cacheless_execution_times(self):
        result = self._run("none")
        # Task1: 10 s read + 2 s compute + 10 s write; Task2: 10 + 3 + 10.
        assert result.makespan == pytest.approx(45.0)
        assert result.duration_of("app_task1", "read") == pytest.approx(10.0)
        assert result.duration_of("app_task2", "read") == pytest.approx(10.0)
        assert result.total_read_time() == pytest.approx(20.0)
        assert result.total_write_time() == pytest.approx(20.0)

    def test_writeback_execution_is_faster(self):
        result = self._run("writeback")
        # Reads of produced files and all writes hit the cache at 1000 MBps.
        assert result.duration_of("app_task1", "read") == pytest.approx(10.0)
        assert result.duration_of("app_task1", "write") == pytest.approx(1.0)
        assert result.duration_of("app_task2", "read") == pytest.approx(1.0)
        assert result.makespan < 45.0
        stats = result.cache_stats["node1"]
        assert stats.cache_hit_bytes > 0

    def test_writethrough_writes_pay_disk(self):
        result = self._run("writethrough")
        assert result.duration_of("app_task1", "write") == pytest.approx(10.0)
        # Written data is cached, so the next task's read is fast.
        assert result.duration_of("app_task2", "read") == pytest.approx(1.0)

    def test_operation_records_are_complete(self):
        result = self._run("writeback")
        kinds = [(op.task, op.kind) for op in result.operations]
        assert ("app_task1", "read") in kinds
        assert ("app_task1", "compute") in kinds
        assert ("app_task2", "write") in kinds
        assert len(result.operations_of("read", app="app")) == 2
        assert result.app_makespans["app"] == pytest.approx(result.makespan)

    def test_mean_app_times_single_app(self):
        result = self._run("none")
        assert result.mean_app_read_time() == pytest.approx(20.0)
        assert result.mean_app_write_time() == pytest.approx(20.0)

    def test_mean_app_time_does_not_depend_on_the_hash_seed(self):
        # Three apps whose per-app totals sum differently in different
        # orders; a set of app names iterates in a hash-seed order.
        code = (
            "from repro.simulator.simulation import SimulationResult\n"
            "from repro.simulator.tracing import OperationRecord\n"
            "ops = [OperationRecord(f'app{i}', 't', 'read', None, 1.0, 0.0, d)\n"
            "       for i, d in enumerate((0.1, 0.2, 0.3))]\n"
            "result = SimulationResult(0.0, 0.0, ops, [], [], {}, {})\n"
            "print(repr(result.mean_app_read_time()))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        means = set()
        for seed in range(10):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            means.add(out.stdout.strip())
        assert len(means) == 1, means


class TestConcurrentWorkflows:
    def test_two_apps_share_the_disk(self):
        sim = Simulation(config=quiet_config(cache_mode="none"))
        sim.create_cluster_platform(
            1, with_nfs_server=False,
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            local_disk_bandwidth=100 * MBps,
        )
        svc = sim.create_storage_service("node1", "/local")
        for index in range(2):
            workflow, input_file = simple_pipeline(name=f"app{index}")
            sim.stage_file(input_file, svc)
            sim.submit_workflow(workflow, host="node1", storage=svc)
        result = sim.run()
        # Each app alone would take 45 s; sharing the disk roughly doubles
        # the I/O time but not the compute time.
        assert result.makespan > 45.0
        assert len(result.app_makespans) == 2

    def test_compute_contention_with_single_core(self):
        sim = Simulation(config=quiet_config(cache_mode="none"))
        sim.create_cluster_platform(
            1, with_nfs_server=False,
            cores_per_node=1,
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            local_disk_bandwidth=1000 * MBps,
        )
        svc = sim.create_storage_service("node1", "/local")
        compute_heavy = Workflow("hog")
        f_in = File("hog_in", 1 * GB)
        compute_heavy.add_task(
            Task.from_cpu_time("burn", 10.0, inputs=[f_in], outputs=[File("hog_out", 1 * GB)])
        )
        other = Workflow("other")
        f_in2 = File("other_in", 1 * GB)
        other.add_task(
            Task.from_cpu_time("burn2", 10.0, inputs=[f_in2], outputs=[File("other_out", 1 * GB)])
        )
        sim.stage_file(f_in, svc)
        sim.stage_file(f_in2, svc)
        sim.submit_workflow(compute_heavy, host="node1", storage=svc)
        sim.submit_workflow(other, host="node1", storage=svc)
        result = sim.run()
        # With one core the 10 s computations serialise.
        assert result.makespan >= 20.0


class TestNFSSimulation:
    def test_nfs_writethrough_and_server_cache(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform(
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            local_disk_bandwidth=100 * MBps,
            remote_disk_bandwidth=100 * MBps,
            network_bandwidth=1000 * MBps,
        )
        svc = sim.create_nfs_storage_service("storage1", "/export",
                                             cache_mode="writethrough")
        workflow, input_file = simple_pipeline()
        sim.stage_file(input_file, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc, label="app")
        result = sim.run()
        # Writes are writethrough: roughly disk bandwidth + network.
        assert result.duration_of("app_task1", "write") >= 10.0
        # The file written by task1 is in the server cache, so task2's read
        # avoids the server disk.
        assert result.duration_of("app_task2", "read") < 5.0

    def test_cache_mode_selects_server_cache(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform()
        writeback = sim.create_nfs_storage_service("storage1", "/export",
                                                   cache_mode="writeback")
        assert writeback.cache_mode == "writeback"
        cacheless = sim.create_nfs_storage_service("storage1", "/export",
                                                   cache_mode="none")
        assert cacheless.cache_mode == "none"

    def test_unknown_cache_mode_rejected(self):
        sim = Simulation(config=quiet_config())
        sim.create_cluster_platform()
        with pytest.raises(ConfigurationError,
                           match="unknown cache mode 'write-back'"):
            sim.create_nfs_storage_service("storage1", "/export",
                                           cache_mode="write-back")


class TestOneChunkSize:
    """``PageCacheConfig.chunk_size`` is the chunk of every I/O path: a
    task reading and writing 2.5-chunk files does 3 chunk reads and 3 chunk
    writes in the cache that serves them."""

    CHUNK = 64 * MB

    def simulation(self):
        return Simulation(config=quiet_config(page_cache=PageCacheConfig(
            periodic_flushing=False, chunk_size=self.CHUNK)))

    def one_task_app(self):
        source = File("app_in", 2.5 * self.CHUNK)
        workflow = Workflow("app")
        workflow.add_task(Task("app_t", flops=1e9, inputs=[source],
                               outputs=[File("app_out", 2.5 * self.CHUNK)]))
        return workflow, source

    def chunk_ops(self, sim, host):
        stats = sim.run().cache_stats[host]
        return stats.read_ops, stats.write_ops

    @pytest.mark.parametrize("cache_mode", ["writeback", "writethrough"])
    def test_local_app(self, cache_mode):
        sim = self.simulation()
        sim.create_cluster_platform(1, with_nfs_server=False)
        svc = sim.create_storage_service("node1", "/local",
                                         cache_mode=cache_mode)
        workflow, source = self.one_task_app()
        sim.stage_file(source, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc)
        assert self.chunk_ops(sim, "node1") == (3, 3)

    def test_nfs_writethrough_app(self):
        sim = self.simulation()
        sim.create_cluster_platform(1)
        svc = sim.create_nfs_storage_service("storage1", "/export",
                                             cache_mode="writethrough")
        workflow, source = self.one_task_app()
        sim.stage_file(source, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc)
        assert self.chunk_ops(sim, "storage1") == (3, 3)

    def test_scheduled_job(self):
        sim = self.simulation()
        sim.create_cluster_platform(1, with_nfs_server=False)
        sim.create_cluster_scheduler()
        workflow, source = self.one_task_app()
        sim.stage_file_replicated(source)
        sim.submit_job(workflow)
        assert self.chunk_ops(sim, "node1") == (3, 3)


class TestMemoryTracing:
    def test_memory_trace_collected(self):
        sim = Simulation(config=SimulationConfig(
            cache_mode="writeback",
            page_cache=PageCacheConfig(periodic_flushing=False),
            trace_interval=1.0,
        ))
        sim.create_cluster_platform(
            1, with_nfs_server=False,
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            local_disk_bandwidth=100 * MBps,
        )
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        sim.stage_file(input_file, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc)
        result = sim.run()
        assert len(result.memory_trace) >= 10
        assert all(snap.total == pytest.approx(16 * GiB) for snap in result.memory_trace)
        # Cache usage must appear in the trace at some point.
        assert max(snap.cached for snap in result.memory_trace) > 0
        # Cache content records exist for every read/write operation.
        io_ops = [op for op in result.operations if op.kind in ("read", "write")]
        assert len(result.cache_contents) == len(io_ops)

    def test_no_cache_contents_with_several_page_caches(self):
        # Figure 4c records copy the watched cache's per-file map after
        # every I/O; a run with several cached hosts records none.
        sim = build_experiment("exp6", n_jobs=10)
        result = sim.run()
        assert result.operations_of("read")
        assert result.cache_contents == []
        assert capture_state(sim)["tracer"]["n_cache_records"] == 0


def scripted_tasks(monkeypatch, script):
    """Replace every task body by ``script(executor, task)`` (a generator)."""
    monkeypatch.setattr(WorkflowExecutor, "_execute_task", script)


def compute_simulation(*workflows):
    """A four-core node without page cache running ``workflows``."""
    sim = Simulation(config=quiet_config(cache_mode="none"))
    sim.create_cluster_platform(
        1, with_nfs_server=False,
        cores_per_node=4,
        memory_size=16 * GiB,
        memory_bandwidth=1000 * MBps,
        local_disk_bandwidth=100 * MBps,
    )
    svc = sim.create_storage_service("node1", "/local")
    for workflow in workflows:
        sim.submit_workflow(workflow, host="node1", storage=svc)
    return sim


class TestOneEventWaits:
    """An executor waits on one event per pass that its task processes
    trigger; the simulation completes on one event that its top-level
    processes trigger."""

    def test_simultaneous_task_ends_are_reaped_in_one_pass(self, monkeypatch):
        # src -> (left, right) -> sink, one second per task.  left and
        # right both end at t=2, but right's process ends only after
        # left has woken the executor.
        def script(executor, task):
            yield executor.env.timeout(1.0)
            if task.name == "right":
                yield executor.env.timeout(0.0)
            return True

        scripted_tasks(monkeypatch, script)
        calls = []
        task_ended = WorkflowExecutor._task_ended

        def spy(executor, name, process):
            wait = executor._wait
            task_ended(executor, name, process)
            calls.append((executor.env.now, name, wait, wait.triggered))

        monkeypatch.setattr(WorkflowExecutor, "_task_ended", spy)
        workflow = Workflow("diamond")
        src, left, right, sink = (
            workflow.add_task(Task(name)) for name in
            ("src", "left", "right", "sink")
        )
        for before, after in ((src, left), (src, right), (left, sink),
                              (right, sink)):
            workflow.add_dependency(before, after)
        result = compute_simulation(workflow).run()

        assert [(now, name) for now, name, _, _ in calls] == [
            (1.0, "src"), (2.0, "left"), (2.0, "right"), (3.0, "sink"),
        ]
        # One pass reaped both middle tasks and started the sink, so three
        # passes ran four tasks ...
        assert len({id(wait) for _, _, wait, _ in calls}) == 3
        # ... and right's late callback found the sink's pass waiting and
        # left it untriggered.
        assert calls[2][2] is calls[3][2]
        assert calls[2][3] is False
        assert result.makespan == pytest.approx(3.0)

    def test_a_long_task_carries_one_executor_callback(self):
        workflow = Workflow("mixed")
        workflow.add_task(Task.from_cpu_time("long", 10.0))
        previous = None
        for index in range(5):
            task = workflow.add_task(Task.from_cpu_time(f"short{index}", 1.0))
            if previous is not None:
                workflow.add_dependency(previous, task)
            previous = task
        sim = compute_simulation(workflow)
        # Five short tasks have ended: the executor made six passes.
        sim.step_until(7.0)
        executor = sim._executors[0]
        assert list(executor._running) == ["long"]
        assert len(executor._running["long"].callbacks) == 1
        assert sim.run().makespan == pytest.approx(10.0)

    def test_a_failing_task_fails_the_run(self, monkeypatch):
        def script(executor, task):
            yield executor.env.timeout(1.0 if task.name == "bad" else 2.0)
            if task.name == "bad":
                raise RuntimeError("task failed")
            return True

        scripted_tasks(monkeypatch, script)
        workflow = Workflow("app")
        workflow.add_task(Task("good"))
        workflow.add_task(Task("bad"))
        sim = compute_simulation(workflow)
        with pytest.raises(RuntimeError, match="task failed"):
            sim.run()
        assert sim.env.now == 1.0

    def test_completion_fails_with_the_first_failing_process(self, monkeypatch):
        def script(executor, task):
            yield executor.env.timeout(float(task.name[-1]))
            if task.name.startswith("fail"):
                raise RuntimeError(task.name)
            return True

        scripted_tasks(monkeypatch, script)
        workflows = []
        for name in ("ok1", "fail2", "fail4"):
            workflow = Workflow(name)
            workflow.add_task(Task(name))
            workflows.append(workflow)
        sim = compute_simulation(*workflows)
        with pytest.raises(RuntimeError, match="fail2"):
            sim.run()
        assert sim.env.now == 2.0
        assert sim.completed
        assert not sim._completion.ok

    def test_completion_waits_for_the_last_top_level_process(self, monkeypatch):
        def script(executor, task):
            yield executor.env.timeout(float(task.name[-1]))
            return True

        scripted_tasks(monkeypatch, script)
        workflows = []
        for name in ("app3", "app1"):
            workflow = Workflow(name)
            workflow.add_task(Task(name))
            workflows.append(workflow)
        sim = compute_simulation(*workflows)
        sim.step_until(2.0)
        assert not sim.completed
        assert sim.run().makespan == pytest.approx(3.0)
        assert sim.completed and sim.env.now == 3.0

    def test_no_executor_keeps_its_wait(self):
        sim = Simulation(config=SimulationConfig(cache_mode="writeback",
                                                 trace_interval=None))
        sim.create_cluster_platform(1, cores_per_node=4, with_nfs_server=False)
        sim.create_cluster_scheduler(policy="preemptive-priority",
                                     placement="round-robin")
        jobs = {}
        for label, cpu_time, cores, arrival, priority in (
                ("low", 10.0, 4, 0.0, 0), ("high", 1.0, 2, 2.0, 1)):
            workflow = Workflow(label)
            workflow.add_task(Task.from_cpu_time(f"{label}_t", cpu_time))
            jobs[label] = sim.submit_job(
                workflow, cores=cores, arrival_time=arrival,
                estimated_runtime=cpu_time, priority=priority, label=label,
            )
        sim.step_until(2.5)
        low = sim.scheduler._executors_by_job[jobs["low"].id]
        # Its run() returned PREEMPTED at t=2.
        assert low.suspended
        assert low._wait is None
        result = sim.run()
        assert result.scheduler.n_preemptions == 1
        assert len(sim.scheduler.executors) == 2
        assert all(executor._wait is None
                   for executor in sim.scheduler.executors)
