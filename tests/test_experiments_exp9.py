"""Tests of the Exp 9 failure/elasticity experiment.

Small cells only: the contract under test is the fault-tolerance
invariant (every submitted job completes), per-seed determinism across
worker counts, the zero-fault baseline matching the plain run, and the
report rendering — not the headline numbers, which live in ROADMAP.md.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exp9_failures import (
    EXP9_MTBFS,
    EXP9_WORKLOADS,
    build_fault_plan,
    exp9_report,
    exp9_series,
)
from repro.snapshot import (
    EXPERIMENTS,
    build_experiment,
    finish_point,
    run_experiment,
)


def exp9_cell(workload="exp6", **params):
    return run_experiment("exp9", workload=workload, **params)

#: Small exp6 cell reused by most tests (seconds, not minutes).
SMALL = dict(n_jobs=20, n_nodes=3, n_datasets=6)


def _sim_fields(point) -> dict:
    """All simulated (deterministic) fields — wallclock excluded."""
    fields = dataclasses.asdict(point)
    fields.pop("wallclock_time")
    return fields


class TestBuildFaultPlan:
    def test_none_mtbf_without_extras_is_the_zero_plan(self):
        assert build_fault_plan(None).is_zero

    def test_mtbf_yields_wildcard_node_faults(self):
        plan = build_fault_plan(60.0, mttr=5.0)
        assert not plan.is_zero
        (spec,) = plan.node_faults
        assert spec.node == "*"
        assert spec.mtbf == 60.0
        assert spec.mttr == 5.0

    def test_stragglers_and_elastic_ride_along(self):
        plan = build_fault_plan(None, stragglers=True,
                                elastic_nodes=("node4",), elastic_join=3.0)
        assert not plan.is_zero
        assert plan.stragglers and plan.elastic
        assert plan.elastic[0].node == "node4"


class TestRunExp9:
    def test_registered_in_runner(self):
        assert "exp9" in EXPERIMENTS

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown exp9 workload"):
            exp9_cell("exp99")
        assert set(EXP9_WORKLOADS) == {"exp6", "exp7"}

    def test_all_jobs_complete_under_crashes(self):
        point = exp9_cell("exp6", mtbf=15.0, mttr=3.0, **SMALL)
        assert point.all_jobs_completed
        assert point.n_node_failures > 0
        assert point.n_job_restarts > 0
        assert point.lost_work_seconds > 0.0

    def test_faulty_run_is_deterministic(self):
        first = exp9_cell("exp6", mtbf=15.0, mttr=3.0, **SMALL)
        second = exp9_cell("exp6", mtbf=15.0, mttr=3.0, **SMALL)
        assert _sim_fields(first) == _sim_fields(second)

    def test_zero_fault_baseline_matches_plain_exp6(self):
        baseline = exp9_cell("exp6", mtbf=None, **SMALL)
        plain = run_experiment("exp6", placement="cache", **SMALL)
        assert baseline.makespan == plain.makespan
        assert baseline.cache_hit_ratio == plain.cache_hit_ratio
        assert baseline.n_node_failures == 0
        assert baseline.n_job_restarts == 0

    def test_crashes_degrade_makespan(self):
        baseline = exp9_cell("exp6", mtbf=None, **SMALL)
        faulty = exp9_cell("exp6", mtbf=10.0, mttr=5.0, **SMALL)
        assert faulty.n_node_failures > 0
        assert faulty.makespan > baseline.makespan

    def test_exp7_workload_completes_under_crashes(self):
        point = exp9_cell("exp7", mtbf=60.0, max_jobs=30, n_nodes=4)
        assert point.workload == "exp7"
        assert point.all_jobs_completed

    @pytest.mark.parametrize("workload, params, submitted", [
        ("exp6", SMALL, 20),
        ("exp7", dict(max_jobs=30, n_nodes=4), 30),
    ])
    def test_unfinished_run_reports_lost_jobs(self, workload, params,
                                              submitted):
        sim = build_experiment("exp9", workload=workload, mtbf=60.0,
                               **params)
        point = finish_point(sim.recipe, sim.run(until=5.0))
        assert point.n_submitted == submitted
        assert point.n_jobs < submitted
        assert not point.all_jobs_completed

    def test_straggler_and_elastic_flags(self):
        point = exp9_cell("exp6", mtbf=30.0, stragglers=True, elastic=True,
                         elastic_join=2.0, elastic_leave=30.0, **SMALL)
        assert point.stragglers and point.elastic
        assert point.all_jobs_completed


class TestSeriesAndReport:
    def test_series_is_worker_count_independent(self):
        mtbfs = (None, 20.0)
        serial = exp9_series(mtbfs, workers=1, **SMALL)
        pooled = exp9_series(mtbfs, workers=2, **SMALL)
        assert list(serial) == list(pooled) == list(mtbfs)
        for key in serial:
            assert _sim_fields(serial[key]) == _sim_fields(pooled[key])

    def test_report_renders_with_baseline_ratio(self):
        points = exp9_series((None, 20.0), workers=1, **SMALL)
        table = exp9_report(points)
        assert "Exp 9" in table
        assert "MTBF" in table
        assert "vs baseline" in table
        assert "inf" in table  # the fault-free row

    def test_default_mtbf_grid_contains_the_baseline(self):
        assert EXP9_MTBFS[0] is None
