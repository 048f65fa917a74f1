"""Integration tests of the cluster batch scheduler.

These tests drive the whole stack through the :class:`Simulation` facade:
platform, per-node storage services, page caches, scheduler policies and
placement strategies, and the scheduler metrics exposed on
:class:`SimulationResult`.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.filesystem.file import File
from repro.pagecache.config import PageCacheConfig
from repro.platform.host import Host
from repro.platform.platform import Platform
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.simulator.workflow import Task, Workflow
from repro.snapshot import run_experiment
from repro.units import MB


def make_simulation(n_nodes: int = 2, cores_per_node: int = 4, *,
                    policy: str = "fifo",
                    placement: str = "round-robin") -> Simulation:
    simulation = Simulation(
        config=SimulationConfig(cache_mode="writeback", trace_interval=None)
    )
    simulation.create_cluster_platform(
        n_nodes, cores_per_node=cores_per_node, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(policy=policy, placement=placement)
    return simulation


def io_job_workflow(label: str, dataset: File, *, cpu_time: float = 1.0,
                    output_size: float = 10 * MB) -> Workflow:
    workflow = Workflow(label)
    workflow.add_task(
        Task.from_cpu_time(
            "process", cpu_time, inputs=[dataset],
            outputs=[File(f"{label}_out", output_size)],
        )
    )
    return workflow


def compute_workflow(label: str, cpu_time: float) -> Workflow:
    workflow = Workflow(label)
    workflow.add_task(Task(f"{label}_t", flops=cpu_time * 1e9))
    return workflow


class TestFacadeWiring:
    def test_cluster_platform_positional_node_count(self):
        simulation = Simulation()
        platform = simulation.create_cluster_platform(3, with_nfs_server=False)
        assert sorted(platform.host_names()) == ["node1", "node2", "node3"]

    def test_submit_job_requires_a_scheduler(self):
        simulation = Simulation()
        simulation.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            simulation.submit_job(compute_workflow("job", 1.0))

    def test_stage_file_replicated_requires_a_scheduler(self):
        simulation = Simulation()
        simulation.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            simulation.stage_file_replicated(File("f", 1 * MB))

    def test_scheduler_can_only_be_created_once(self):
        simulation = make_simulation()
        with pytest.raises(ConfigurationError):
            simulation.create_cluster_scheduler()

    def test_scheduler_excludes_the_nfs_server(self):
        simulation = Simulation()
        simulation.create_cluster_platform(2, with_nfs_server=True)
        scheduler = simulation.create_cluster_scheduler()
        assert sorted(node.name for node in scheduler.nodes) == ["node1", "node2"]

    def test_scheduler_needs_a_host_with_a_local_disk(self):
        simulation = Simulation()
        platform = simulation.set_platform(Platform(simulation.env))
        platform.add_host(Host(simulation.env, "node1", cores=4))
        with pytest.raises(ConfigurationError):
            simulation.create_cluster_scheduler()

    def test_too_wide_job_is_rejected_at_submission(self):
        simulation = make_simulation(cores_per_node=4)
        with pytest.raises(SchedulingError):
            simulation.submit_job(compute_workflow("wide", 1.0), cores=8)

    def test_duplicate_job_labels_are_rejected(self):
        simulation = make_simulation()
        simulation.submit_job(compute_workflow("job", 1.0), label="job")
        with pytest.raises(SchedulingError):
            simulation.submit_job(compute_workflow("job", 1.0), label="job")

    def test_job_and_workflow_labels_must_not_collide(self):
        simulation = make_simulation()
        storage = simulation.scheduler.nodes[0].storage
        simulation.submit_workflow(compute_workflow("x", 1.0), host="node1",
                                   storage=storage, label="x")
        with pytest.raises(ConfigurationError):
            simulation.submit_job(compute_workflow("x", 1.0), label="x")

        other = make_simulation()
        other.submit_job(compute_workflow("y", 1.0), label="y")
        with pytest.raises(ConfigurationError):
            other.submit_workflow(compute_workflow("y", 1.0), host="node1",
                                  storage=other.scheduler.nodes[0].storage,
                                  label="y")

    def test_cross_node_access_to_local_storage_is_rejected(self):
        simulation = make_simulation(n_nodes=2)
        dataset = File("solo", 50 * MB)
        # Staged on node1 only: a job placed on node2 must fail loudly
        # instead of getting a silently free cross-node read.
        simulation.stage_file(dataset, simulation.scheduler.node("node1").storage)
        for index, _ in enumerate(simulation.scheduler.nodes):
            simulation.submit_job(
                io_job_workflow(f"job{index}", dataset), label=f"job{index}"
            )
        with pytest.raises(ConfigurationError, match="replicate the file"):
            simulation.run()

    def test_run_requires_some_work(self):
        simulation = make_simulation()
        with pytest.raises(ConfigurationError):
            simulation.run()


class TestClusterExecution:
    def test_all_jobs_complete_and_metrics_are_exposed(self):
        simulation = make_simulation(n_nodes=2, cores_per_node=4)
        datasets = [File(f"ds{d}", 200 * MB) for d in range(2)]
        for dataset in datasets:
            simulation.stage_file_replicated(dataset)
        for index in range(8):
            simulation.submit_job(
                io_job_workflow(f"job{index}", datasets[index % 2]),
                cores=2,
                arrival_time=0.5 * index,
                label=f"job{index}",
            )
        result = simulation.run()

        metrics = result.scheduler
        assert metrics is not None
        assert metrics.n_jobs == 8
        assert metrics.mean_wait_time >= 0.0
        assert metrics.max_wait_time >= metrics.mean_wait_time
        assert 0.0 < metrics.utilization <= 1.0
        assert metrics.throughput > 0.0
        assert metrics.mean_bounded_slowdown() >= 1.0
        assert sum(metrics.jobs_per_node.values()) == 8
        assert 0.0 <= result.read_cache_hit_ratio() <= 1.0
        # Per-job accounting is consistent.
        for record in metrics.records:
            assert record.arrival_time <= record.start_time <= record.end_time
        # The scheduler's executors feed the per-app makespans.
        assert set(result.app_makespans) == {f"job{index}" for index in range(8)}

    def test_core_reservations_are_never_exceeded(self):
        simulation = make_simulation(n_nodes=2, cores_per_node=4,
                                     placement="least-loaded")
        for index in range(10):
            simulation.submit_job(
                compute_workflow(f"job{index}", 2.0),
                cores=3,
                arrival_time=0.0,
                label=f"job{index}",
            )
        result = simulation.run()
        records = result.scheduler.records
        assert len(records) == 10
        # Replay the schedule: at any instant, the cores reserved on one
        # node must not exceed the node's core count (4).
        events = []
        for record in records:
            events.append((record.start_time, record.cores, record.node))
            events.append((record.end_time, -record.cores, record.node))
        usage = {}
        # Process releases before starts at equal times (back-to-back jobs).
        for time, delta, node in sorted(events, key=lambda e: (e[0], e[1])):
            usage[node] = usage.get(node, 0) + delta
            assert usage[node] <= 4, f"node {node} oversubscribed at t={time}"

    def test_jobs_wait_when_the_cluster_is_full(self):
        simulation = make_simulation(n_nodes=1, cores_per_node=4)
        # Two 4-core jobs: the second must wait for the first to finish.
        simulation.submit_job(compute_workflow("first", 5.0), cores=4,
                              arrival_time=0.0, label="first")
        simulation.submit_job(compute_workflow("second", 5.0), cores=4,
                              arrival_time=0.0, label="second")
        result = simulation.run()
        records = {r.label: r for r in result.scheduler.records}
        assert records["first"].start_time == pytest.approx(0.0)
        assert records["second"].start_time == pytest.approx(5.0)
        assert records["second"].wait_time == pytest.approx(5.0)

    def test_reserved_cores_bound_task_concurrency(self):
        def run(cores: int) -> float:
            simulation = make_simulation(n_nodes=1, cores_per_node=4)
            # Four independent 2-second tasks in one job.
            workflow = Workflow("job")
            for index in range(4):
                workflow.add_task(Task(f"t{index}", flops=2e9))
            simulation.submit_job(workflow, cores=cores, label="job")
            return simulation.run().scheduler.records[0].runtime

        # With 1 reserved core the tasks serialise (4 x 2 s); with 4 they
        # run together (2 s): the reservation bounds actual execution.
        assert run(1) == pytest.approx(8.0)
        assert run(4) == pytest.approx(2.0)

    def test_arrivals_gate_job_starts(self):
        simulation = make_simulation(n_nodes=2, cores_per_node=4)
        simulation.submit_job(compute_workflow("late", 1.0), cores=1,
                              arrival_time=7.5, label="late")
        result = simulation.run()
        record = result.scheduler.records[0]
        assert record.start_time == pytest.approx(7.5)
        assert record.wait_time == pytest.approx(0.0)

    def test_easy_backfill_reorders_but_fifo_does_not(self):
        def run(policy: str):
            simulation = make_simulation(n_nodes=1, cores_per_node=4,
                                         policy=policy)
            # A occupies half the node; B (full node) blocks; C is short
            # enough to finish before A releases B's cores.
            simulation.submit_job(compute_workflow("A", 10.0), cores=2,
                                  arrival_time=0.0, label="A")
            simulation.submit_job(compute_workflow("B", 5.0), cores=4,
                                  arrival_time=0.1, label="B")
            simulation.submit_job(compute_workflow("C", 5.0), cores=2,
                                  arrival_time=0.2, label="C")
            result = simulation.run()
            return {r.label: r for r in result.scheduler.records}

        easy = run("easy")
        assert easy["C"].start_time == pytest.approx(0.2)  # backfilled
        assert easy["B"].start_time == pytest.approx(10.0)  # reservation held

        fifo = run("fifo")
        assert fifo["B"].start_time == pytest.approx(10.0)
        assert fifo["C"].start_time >= fifo["B"].end_time - 1e-6

    def test_sjf_runs_short_jobs_first(self):
        simulation = make_simulation(n_nodes=1, cores_per_node=4, policy="sjf")
        # All jobs are queued behind "blocker"; SJF then picks by estimate.
        simulation.submit_job(compute_workflow("blocker", 2.0), cores=4,
                              arrival_time=0.0, label="blocker")
        simulation.submit_job(compute_workflow("long", 8.0), cores=4,
                              arrival_time=0.1, label="long")
        simulation.submit_job(compute_workflow("short", 1.0), cores=4,
                              arrival_time=0.2, label="short")
        result = simulation.run()
        records = {r.label: r for r in result.scheduler.records}
        assert records["short"].start_time < records["long"].start_time

    def test_cache_placement_routes_repeat_jobs_to_the_warm_node(self):
        simulation = make_simulation(n_nodes=4, cores_per_node=4,
                                     placement="cache")
        dataset = File("dataset", 500 * MB)
        simulation.stage_file_replicated(dataset)
        for index in range(6):
            simulation.submit_job(
                io_job_workflow(f"job{index}", dataset),
                cores=1,
                arrival_time=4.0 * index,  # sequential: cache fully warm
                label=f"job{index}",
            )
        result = simulation.run()
        metrics = result.scheduler
        # All jobs share one dataset: they all land on the same node...
        assert len(metrics.jobs_per_node) == 1
        # ...and every read after the first is served from its page cache.
        assert result.read_cache_hit_ratio() == pytest.approx(5.0 / 6.0, abs=0.01)

    def test_round_robin_spreads_and_stays_cold(self):
        simulation = make_simulation(n_nodes=4, cores_per_node=4,
                                     placement="round-robin")
        dataset = File("dataset", 500 * MB)
        simulation.stage_file_replicated(dataset)
        for index in range(4):
            simulation.submit_job(
                io_job_workflow(f"job{index}", dataset),
                cores=1,
                arrival_time=4.0 * index,
                label=f"job{index}",
            )
        result = simulation.run()
        assert len(result.scheduler.jobs_per_node) == 4
        assert result.read_cache_hit_ratio() == pytest.approx(0.0, abs=0.01)

    def test_seeded_runs_are_reproducible(self):
        kwargs = dict(n_jobs=20, n_nodes=2, n_datasets=4, seed=7)
        first = run_experiment("exp6", placement="cache", **kwargs)
        second = run_experiment("exp6", placement="cache", **kwargs)
        assert first.makespan == second.makespan
        assert first.cache_hit_ratio == second.cache_hit_ratio
        assert first.mean_wait_time == second.mean_wait_time

    def test_batch_run_equals_a_stream_closed_before_run(self):
        """A batch scheduler is a stream that closes when the run starts."""
        from repro.experiments.exp6_cluster import build_cluster_workload
        from repro.service import canonical_result

        results = []
        for streaming in (False, True):
            simulation = Simulation(config=SimulationConfig(
                cache_mode="writeback",
                page_cache=PageCacheConfig(chunk_size=100 * MB),
                trace_interval=None,
            ))
            simulation.create_cluster_platform(
                3, cores_per_node=4, with_nfs_server=False
            )
            simulation.create_cluster_scheduler(
                policy="easy", placement="cache", streaming=streaming
            )
            build_cluster_workload(simulation, n_jobs=30, seed=5)
            if streaming:
                simulation.scheduler.close_stream()
            result = simulation.run()
            assert result.scheduler.n_jobs == 30
            results.append(canonical_result(result))
        assert results[0] == results[1]


class TestSchedulerWait:
    """The main loop waits on one event that job ends, the arrival
    timeout and the wake event trigger."""

    def test_a_long_job_holds_a_bounded_number_of_callbacks(self):
        simulation = make_simulation(2, 4)
        long_job = simulation.submit_job(
            compute_workflow("long", 100.0), cores=4, label="long"
        )
        for i in range(40):
            simulation.submit_job(
                compute_workflow(f"short{i}", 0.5), arrival_time=float(i),
                label=f"short{i}",
            )
        # 40 arrivals and 40 completions pass while the long job runs.
        simulation.step_until(50.0)
        process = simulation.scheduler._running_procs[long_job.id]
        assert len(process.callbacks) <= 2
        result = simulation.run()
        assert result.scheduler.n_jobs == 41

    def test_a_failing_job_fails_the_run(self, monkeypatch):
        from repro.simulator.wms import WorkflowExecutor

        execute_task = WorkflowExecutor._execute_task

        def failing(executor, task):
            if executor.label == "bad":
                yield executor.env.timeout(4.0)
                raise RuntimeError("task failed")
            return (yield from execute_task(executor, task))

        monkeypatch.setattr(WorkflowExecutor, "_execute_task", failing)
        simulation = make_simulation()
        simulation.submit_job(compute_workflow("good", 10.0), label="good")
        simulation.submit_job(compute_workflow("bad", 10.0), label="bad")
        with pytest.raises(RuntimeError, match="task failed"):
            simulation.run()
        assert simulation.env.now == 4.0


class TestWaitTimeClamp:
    def test_wait_time_never_negative_for_past_arrivals(self):
        from repro.scheduler.metrics import JobRecord

        # A trace-replayed job "submitted in the past": its recorded
        # arrival lies marginally after the dispatch tick (scheduler
        # epsilon).  The wait must clamp to 0, not go negative.
        record = JobRecord(
            job_id=0, label="past", node="node1", cores=1,
            arrival_time=10.0 + 1e-9, start_time=10.0, end_time=20.0,
            estimated_runtime=10.0,
        )
        assert record.wait_time == 0.0
        assert record.bounded_slowdown() >= 1.0

    def test_trace_replay_waits_are_non_negative(self):
        from repro.scheduler.swf import parse_swf

        trace = parse_swf(
            "; MaxProcs: 4\n"
            "1 0 -1 2 4 -1 -1 4 3 -1 1 1 1 1 0 1 -1 -1\n"
            "2 0 -1 1 2 -1 -1 2 2 -1 1 1 1 1 1 1 -1 -1\n"
            "3 1 -1 1 2 -1 -1 2 2 -1 1 1 1 2 0 1 -1 -1\n"
        )
        simulation = make_simulation(1, 4)
        simulation.submit_trace(trace, dataset_size=10 * MB, output_size=MB)
        result = simulation.run()
        assert result.scheduler.n_jobs == 3
        assert all(r.wait_time >= 0.0 for r in result.scheduler.records)


class TestSubmitTrace:
    def trace(self):
        from repro.scheduler.swf import parse_swf

        return parse_swf(
            "; MaxProcs: 8\n"
            "1 0 -1 4 8 -1 -1 8 5 -1 1 1 1 3 0 1 -1 -1\n"
            "2 2 -1 2 4 -1 -1 4 3 -1 1 2 1 5 2 1 -1 -1\n"
            "3 4 -1 2 2 -1 -1 2 3 -1 1 1 1 3 1 1 -1 -1\n"
        )

    def test_requires_scheduler(self):
        simulation = Simulation()
        simulation.create_cluster_platform(1, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            simulation.submit_trace(self.trace())

    def test_builds_jobs_with_datasets_priorities_and_rescaled_cores(self):
        simulation = make_simulation(2, 4)
        jobs = simulation.submit_trace(
            self.trace(), dataset_size=20 * MB, output_size=MB
        )
        assert [job.label for job in jobs] == ["swf1", "swf2", "swf3"]
        # Cores rescaled from MaxProcs 8 to the largest node (4 cores).
        assert [job.cores for job in jobs] == [4, 2, 1]
        # Priorities come from the SWF queue number.
        assert [job.priority for job in jobs] == [0, 2, 1]
        # One shared dataset per distinct application, on every node.
        dataset_names = {f.name for job in jobs for f in job.input_files()}
        assert dataset_names == {"swf_app3", "swf_app5"}
        for node in simulation.scheduler.nodes:
            assert node.storage.disk.used == pytest.approx(2 * 20 * MB)

    def test_malformed_trace_lines_are_reported(self):
        from repro.scheduler.swf import parse_swf

        trace = parse_swf(
            "1 0 -1 2 2 -1 -1 2 3 -1 1 1 1 1 0 1 -1 -1\n"
            "this line is garbage\n"
        )
        simulation = make_simulation(1, 4)
        with pytest.warns(UserWarning, match="1 malformed line"):
            simulation.submit_trace(trace, dataset_size=MB, output_size=MB)

    def test_trace_replay_runs_to_completion(self):
        simulation = make_simulation(2, 4, policy="preemptive-priority",
                                     placement="cache")
        jobs = simulation.submit_trace(
            self.trace(), dataset_size=10 * MB, output_size=MB,
            runtime_scale=0.5, load_factor=2.0,
        )
        result = simulation.run()
        assert result.scheduler.n_jobs == len(jobs)
        assert result.scheduler.makespan > 0
        classes = result.scheduler.priority_class_metrics()
        assert set(classes) == {0, 1, 2}
