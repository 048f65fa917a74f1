"""Smoke tests of the Exp 8 eviction-policy ablation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exp8_policy_ablation import (
    EXP8_POLICIES,
    EXP8_WORKLOADS,
    exp8_report,
    exp8_series,
    run_exp8,
    run_skewed,
)


class TestSkewedWorkload:
    def test_deterministic(self):
        first = run_skewed("arc")
        second = run_skewed("arc")
        assert first.hit_ratio == second.hit_ratio
        assert first.makespan == second.makespan

    def test_scan_resistant_policies_beat_lru(self):
        # The acceptance criterion of the policy API: on the hot-set-plus-
        # scans workload at least one non-LRU policy wins on hit ratio.
        lru = run_skewed("lru")
        arc = run_skewed("arc")
        twoq = run_skewed("2q")
        clockpro = run_skewed("clock-pro")
        assert arc.hit_ratio > lru.hit_ratio
        assert twoq.hit_ratio > lru.hit_ratio
        assert clockpro.hit_ratio > lru.hit_ratio
        # Keeping the hot set also shortens the simulated runtime.
        assert arc.makespan < lru.makespan

    def test_policy_label_is_registry_name(self):
        point = run_skewed("clockpro")  # alias
        assert point.policy == "clock-pro"
        assert point.workload == "skewed"


class TestRunExp8:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown exp8 workload"):
            run_exp8("lru", "exp99")

    def test_workload_names_cover_dispatch(self):
        assert set(EXP8_WORKLOADS) == {
            "skewed", "exp5", "exp6", "exp7", "sched"
        }

    def test_exp5_workload_fits_in_memory_so_policies_tie(self):
        # Honest control: without memory pressure victim selection is
        # irrelevant and every policy reproduces the LRU numbers.
        lru = run_exp8("lru", "exp5")
        arc = run_exp8("arc", "exp5")
        assert arc.hit_ratio == pytest.approx(lru.hit_ratio)
        assert arc.makespan == pytest.approx(lru.makespan)


class TestSchedCell:
    """The scheduler-driven cell built for the priority-weighted policy."""

    def test_priority_policy_receives_dispatch_and_preemption_events(self):
        from repro.experiments.exp8_policy_ablation import run_sched_cell

        point = run_sched_cell("priority")
        assert point.workload == "sched"
        assert point.policy == "priority"
        # The cell's whole point: the scheduler hooks actually fire.
        assert point.n_job_dispatches > 0
        assert point.n_job_preemptions > 0

    def test_policies_without_job_hooks_see_no_events(self):
        from repro.experiments.exp8_policy_ablation import run_sched_cell

        point = run_sched_cell("lru")
        # LRU does not subscribe (wants_job_events is False), so the
        # scheduler never forwards events to it.
        assert point.n_job_dispatches == 0
        assert point.n_job_preemptions == 0
        # The workload still exercises the cache under pressure.
        assert 0.0 < point.hit_ratio < 1.0

    def test_sched_cell_is_deterministic(self):
        first = run_exp8("priority", "sched")
        second = run_exp8("priority", "sched")
        assert first.hit_ratio == second.hit_ratio
        assert first.makespan == second.makespan
        assert first.n_job_preemptions == second.n_job_preemptions


class TestSeriesAndReport:
    def test_series_covers_grid_and_report_renders(self):
        points = exp8_series(("lru", "arc"), workloads=("skewed",), rounds=3)
        assert set(points) == {("skewed", "lru"), ("skewed", "arc")}
        table = exp8_report(points)
        assert "Exp 8" in table
        assert "arc" in table and "lru" in table

    def test_default_policy_tuple_is_the_registry_subset(self):
        from repro.pagecache.policy import POLICIES

        assert all(name in POLICIES for name in EXP8_POLICIES)
