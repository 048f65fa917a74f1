"""Unit tests for the application models (synthetic, Nighres, concurrent)."""

import pytest

from repro.apps.concurrent import make_instances, stage_and_submit_instances
from repro.apps.nighres import (
    NIGHRES_STEPS,
    nighres_files,
    nighres_input_files,
    nighres_workflow,
)
from repro.apps.synthetic import (
    SYNTHETIC_CPU_TIMES,
    synthetic_cpu_time,
    synthetic_files,
    synthetic_workflow,
)
from repro.units import GB, MB


class TestSyntheticCpuTimes:
    def test_table1_values(self):
        assert SYNTHETIC_CPU_TIMES == {
            3.0: 4.4,
            20.0: 28.0,
            50.0: 75.0,
            75.0: 110.0,
            100.0: 155.0,
        }

    @pytest.mark.parametrize("size_gb,expected", [
        (3, 4.4), (20, 28.0), (50, 75.0), (75, 110.0), (100, 155.0),
    ])
    def test_measured_sizes_return_table_values(self, size_gb, expected):
        assert synthetic_cpu_time(size_gb * GB) == pytest.approx(expected)

    def test_interpolation_between_points(self):
        value = synthetic_cpu_time(35 * GB)
        assert 28.0 < value < 75.0
        # Linear between (20, 28) and (50, 75).
        assert value == pytest.approx(28.0 + (75.0 - 28.0) * 15 / 30)

    def test_extrapolation_above_range(self):
        assert synthetic_cpu_time(120 * GB) > 155.0

    def test_extrapolation_below_range_is_non_negative(self):
        assert synthetic_cpu_time(0.1 * GB) >= 0.0


class TestSyntheticWorkflow:
    def test_files_helper(self):
        files = synthetic_files(20 * GB, prefix="x_")
        assert [f.name for f in files] == ["x_file1", "x_file2", "x_file3", "x_file4"]
        assert all(f.size == 20 * GB for f in files)

    def test_three_task_pipeline_structure(self):
        workflow = synthetic_workflow(20 * GB)
        assert len(workflow) == 3
        order = [task.name for task in workflow.topological_order()]
        assert order == ["task1", "task2", "task3"]
        assert [f.name for f in workflow.input_files()] == ["file1"]
        task2 = workflow.task("task2")
        assert [f.name for f in task2.inputs] == ["file2"]
        assert [f.name for f in task2.outputs] == ["file3"]
        assert task2.cpu_time() == pytest.approx(28.0)
        assert task2.release_memory is True

    def test_named_instances_use_prefixed_files(self):
        workflow = synthetic_workflow(3 * GB, name="app7")
        assert workflow.input_files()[0].name == "app7_file1"

    def test_explicit_cpu_time_override(self):
        workflow = synthetic_workflow(20 * GB, cpu_time=1.0)
        assert workflow.task("task1").cpu_time() == pytest.approx(1.0)

    def test_explicit_files_must_be_four(self):
        with pytest.raises(ValueError):
            synthetic_workflow(1 * GB, files=synthetic_files(1 * GB)[:3])


class TestNighresWorkflow:
    def test_table2_values(self):
        names = [step.name for step in NIGHRES_STEPS]
        assert names == [
            "skull_stripping",
            "tissue_classification",
            "region_extraction",
            "cortical_reconstruction",
        ]
        assert NIGHRES_STEPS[0].input_size == 295 * MB
        assert NIGHRES_STEPS[1].output_size == 1376 * MB
        assert NIGHRES_STEPS[3].cpu_time == 272.0

    def test_workflow_is_sequential(self):
        workflow = nighres_workflow()
        order = [task.name for task in workflow.topological_order()]
        assert order == [step.name for step in NIGHRES_STEPS]

    def test_cache_reuse_pattern(self):
        """Region extraction re-reads the tissue output; cortical re-reads skull output."""
        workflow = nighres_workflow()
        files = nighres_files()
        region = workflow.task("region_extraction")
        cortical = workflow.task("cortical_reconstruction")
        assert region.inputs[0].name == files["tissue_classified"].name
        assert cortical.inputs[0].name == files["skull_stripped"].name

    def test_input_files_must_be_staged(self):
        staged = {f.name for f in nighres_input_files()}
        assert staged == {"t1_weighted", "t1_map"}

    def test_prefix_isolates_instances(self):
        workflow = nighres_workflow(file_prefix="i1_")
        assert workflow.input_files()[0].name.startswith("i1_")


class TestConcurrentInstances:
    def test_make_instances_unique_files(self):
        instances = make_instances(4, 3 * GB)
        assert len(instances) == 4
        names = {input_file.name for _, input_file in instances}
        assert len(names) == 4
        labels = {workflow.name for workflow, _ in instances}
        assert labels == {"app1", "app2", "app3", "app4"}

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            make_instances(0, 3 * GB)

    def test_stage_and_submit(self):
        from repro import Simulation, SimulationConfig
        from repro.pagecache.config import PageCacheConfig

        sim = Simulation(config=SimulationConfig(
            cache_mode="writeback",
            page_cache=PageCacheConfig(periodic_flushing=False),
            trace_interval=None,
        ))
        sim.create_cluster_platform(1, with_nfs_server=False)
        svc = sim.create_storage_service("node1", "/local")
        instances = make_instances(3, 1 * GB)
        stage_and_submit_instances(sim, instances, host="node1", storage=svc)
        result = sim.run()
        assert len(result.app_makespans) == 3
