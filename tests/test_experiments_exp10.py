"""Smoke tests of the Exp 10 warm-start sweep cell."""

from __future__ import annotations

import tempfile

from repro.experiments import exp10_report, run_exp10

#: Small enough to run in well under a second; at this scale the warm
#: path has no wall-clock advantage, so the tests assert correctness
#: (warm == cold per variant, enforced by ``check=True``), not speed.
SMALL = dict(n_jobs=16, t_branch=4.0,
             policies=("fifo", "sjf"), placements=("cache",))


class TestRunExp10:
    def test_small_cell_checks_and_reports(self):
        with tempfile.TemporaryDirectory() as snapshot_dir:
            result = run_exp10(snapshot_dir, **SMALL)
        # check=True already asserted warm == cold per variant inside
        # run_exp10; here we pin the cell's shape and bookkeeping.
        assert set(result.points) == {
            (policy, placement)
            for policy in SMALL["policies"]
            for placement in SMALL["placements"]
        }
        assert result.t_branch == SMALL["t_branch"]
        assert result.cold_seconds > 0.0
        assert result.warm_seconds > 0.0
        for (policy, placement), point in result.points.items():
            assert point.policy == policy
            assert point.placement == placement
            assert point.n_jobs == SMALL["n_jobs"]
            assert point.makespan > SMALL["t_branch"]
        report = exp10_report(result)
        assert "warm-start sweep" in report
        for policy in SMALL["policies"]:
            assert policy in report
