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
from repro.simulator.workflow import Task, Workflow, chain_workflow
from repro.snapshot import build_experiment, capture_state
from repro.units import GB, GiB, MBps


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

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(chunk_size=0)

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
        sim.create_single_node_platform()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_run_twice_rejected(self):
        sim = Simulation(config=quiet_config())
        sim.create_single_node_platform()
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        sim.stage_file(input_file, svc)
        sim.submit_workflow(workflow, host="node1", storage=svc)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_unknown_cache_mode_for_service(self):
        sim = Simulation(config=quiet_config())
        sim.create_single_node_platform()
        with pytest.raises(ConfigurationError):
            sim.create_storage_service("node1", "/local", cache_mode="bogus")

    def test_missing_input_file_detected(self):
        sim = Simulation(config=quiet_config())
        sim.create_single_node_platform()
        svc = sim.create_storage_service("node1", "/local")
        workflow, input_file = simple_pipeline()
        # Input file intentionally not staged.
        sim.submit_workflow(workflow, host="node1", storage=svc)
        with pytest.raises(SchedulingError):
            sim.run()


class TestEndToEndExecution:
    def _run(self, cache_mode):
        sim = Simulation(config=quiet_config(cache_mode=cache_mode))
        sim.create_single_node_platform(
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            disk_bandwidth=100 * MBps,
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
        sim.create_single_node_platform(
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            disk_bandwidth=100 * MBps,
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
        sim.create_single_node_platform(
            cores=1,
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            disk_bandwidth=1000 * MBps,
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


class TestMemoryTracing:
    def test_memory_trace_collected(self):
        sim = Simulation(config=SimulationConfig(
            cache_mode="writeback",
            page_cache=PageCacheConfig(periodic_flushing=False),
            trace_interval=1.0,
        ))
        sim.create_single_node_platform(
            memory_size=16 * GiB,
            memory_bandwidth=1000 * MBps,
            disk_bandwidth=100 * MBps,
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
