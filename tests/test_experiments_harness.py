"""Tests for the experiment harness and small-scale experiment runs.

The full paper-scale experiments (20-100 GB files, 32 applications) run in
the benchmark harness; here we exercise the same code paths at a reduced
scale so the test suite stays fast.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exp1_single import (
    EXP1_OPERATIONS,
    exp1_errors,
    exp1_mean_errors,
)
from repro.experiments.exp2_concurrent import sweep_exp2
from repro.experiments.exp4_nighres import EXP4_OPERATIONS, exp4_errors
from repro.experiments.exp5_scaling import run_scaling, scaling_regressions
from repro.experiments.harness import SIMULATORS, ScenarioConfig, build_simulation
from repro.experiments.report import (
    concurrency_report,
    exp1_error_report,
    exp4_error_report,
    scaling_report,
    table1_report,
    table2_report,
    table3_report,
)
from repro.experiments.exp2_concurrent import exp2_series
from repro.snapshot import run_experiment
from repro.units import GB, MB


class TestBuildSimulation:
    def test_unknown_simulator_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation("not-a-simulator")

    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_local_scenarios_build(self, simulator):
        simulation, service = build_simulation(simulator, ScenarioConfig(nfs=False))
        assert service is not None
        expected_mode = "none" if simulator == "wrench" else "writeback"
        assert service.cache_mode == expected_mode

    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_nfs_scenarios_build(self, simulator):
        simulation, service = build_simulation(simulator, ScenarioConfig(nfs=True))
        expected_mode = "none" if simulator == "wrench" else "writethrough"
        assert service.cache_mode == expected_mode

    def test_real_simulator_uses_asymmetric_bandwidths(self):
        simulation, _ = build_simulation("real")
        disk = simulation.host("node1").disk("/local")
        assert disk.read_bandwidth != disk.write_bandwidth

    def test_pysim_disables_bandwidth_sharing(self):
        simulation, _ = build_simulation("pysim")
        disk = simulation.host("node1").disk("/local")
        assert disk.read_channel.sharing is False


class TestExp1SmallScale:
    SIZE = 1 * GB
    CHUNK = 100 * MB

    def test_run_exp1_produces_all_operations(self):
        result = run_experiment("exp1", simulator="wrench-cache",
                                file_size=self.SIZE, chunk_size=self.CHUNK,
                                trace_interval=1.0)
        assert set(result.durations) == set(EXP1_OPERATIONS)
        assert all(duration > 0 for duration in result.durations.values())
        assert result.makespan > 0
        assert len(result.memory_trace) > 0
        series = result.operation_series()
        assert [label for label, _ in series] == list(EXP1_OPERATIONS)

    def test_cache_contents_tracked_per_operation(self):
        result = run_experiment("exp1", simulator="wrench-cache",
                                file_size=self.SIZE, chunk_size=self.CHUNK,
                                trace_interval=None)
        contents = result.cache_contents_per_operation()
        assert set(contents) == set(EXP1_OPERATIONS)
        # After Write 1, file2 must be at least partially cached.
        assert contents["Write 1"].get("file2", 0.0) > 0

    def test_cacheless_is_slower_than_cached(self):
        cached = run_experiment("exp1", simulator="wrench-cache",
                                file_size=self.SIZE, chunk_size=self.CHUNK,
                                trace_interval=None)
        cacheless = run_experiment("exp1", simulator="wrench",
                                   file_size=self.SIZE, chunk_size=self.CHUNK,
                                   trace_interval=None)
        assert cacheless.durations["Read 2"] > cached.durations["Read 2"]
        assert cacheless.durations["Write 1"] > cached.durations["Write 1"]

    def test_exp1_errors_shape_and_headline(self):
        errors = exp1_errors(self.SIZE, chunk_size=self.CHUNK)
        assert set(errors) == {"pysim", "wrench", "wrench-cache"}
        means = exp1_mean_errors(errors)
        # Headline result: the page cache model reduces the simulation error
        # by a large factor compared to the cacheless simulator.
        assert means["wrench"] > 3 * means["wrench-cache"]
        assert means["pysim"] == pytest.approx(means["wrench-cache"], rel=0.5)

    def test_error_report_renders(self):
        errors = exp1_errors(self.SIZE, chunk_size=self.CHUNK)
        text = exp1_error_report(self.SIZE, errors)
        assert "Read 2" in text
        assert "wrench-cache" in text


class TestExp2SmallScale:
    def test_run_exp2_point(self):
        point = run_experiment("exp2", simulator="wrench-cache", n_apps=2,
                               input_size=0.5 * GB, chunk_size=50 * MB)
        assert point.n_apps == 2
        assert point.read_time > 0
        assert point.write_time > 0
        assert point.as_row()[0] == 2

    def test_sweep_monotonic_read_times_for_cacheless(self):
        points = sweep_exp2("wrench", counts=(1, 4), input_size=0.5 * GB,
                            chunk_size=50 * MB)
        assert points[0].read_time < points[1].read_time

    def test_series_and_report(self):
        series = exp2_series(("wrench", "wrench-cache"), counts=(1, 2),
                             input_size=0.5 * GB, chunk_size=50 * MB)
        text = concurrency_report("Figure 5", series)
        assert "wrench read (s)" in text


class TestExp4SmallScale:
    def test_run_exp4_operations(self):
        result = run_experiment("exp4", simulator="wrench-cache")
        assert set(result.durations) == set(EXP4_OPERATIONS)
        assert all(duration > 0 for duration in result.durations.values())

    def test_exp4_errors_headline(self):
        errors = exp4_errors()
        assert set(errors) == {"wrench", "wrench-cache"}
        from repro.experiments.exp4_nighres import exp4_mean_errors

        means = exp4_mean_errors(errors)
        assert means["wrench"] > 3 * means["wrench-cache"]
        text = exp4_error_report(errors)
        assert "Read 4" in text


class TestScalingSmallScale:
    def test_measure_point_and_regression(self):
        (point,) = run_scaling(counts=(1,), configs=(("wrench-cache", False),),
                               input_size=0.2 * GB,
                               chunk_size=50 * MB)["WRENCH-cache (local)"]
        assert point.wallclock_time > 0
        assert point.label == "WRENCH-cache (local)"
        assert (point.simulator, point.nfs, point.n_apps) == (
            "wrench-cache", False, 1)
        assert point.simulated_makespan > 0
        curves = run_scaling(counts=(1, 2, 3), configs=(("wrench", False),),
                             input_size=0.2 * GB, chunk_size=50 * MB)
        fits = scaling_regressions(curves)
        assert "WRENCH (local)" in fits
        assert fits["WRENCH (local)"].n == 3
        text = scaling_report(curves, fits)
        assert "Linear fit" in text


class TestStaticReports:
    def test_table_reports_render(self):
        assert "20.0" in table1_report()
        assert "tissue_classification" in table2_report()
        assert "4812" in table3_report()
