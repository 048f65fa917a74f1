"""Parity suite: the LRU rewrite must be observationally identical.

The golden traces in ``tests/data/`` were recorded from the pre-refactor
list-of-Blocks implementation (see ``tests/record_parity_golden.py`` /
``tests/record_experiment_golden.py``).  These tests replay the same
seeded workloads and experiment configurations on the current
implementation and require byte-identical behaviour (within the float
tolerances the accounting itself guarantees): hit ratios, dirty sizes,
per-file cache content — which pins the eviction order — and simulated
time after every operation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from parity_workload import WORKLOAD_VERSION, run_parity_workload
from record_parity_golden import SCENARIOS
from repro.snapshot import run_experiment

DATA_DIR = Path(__file__).parent / "data"

#: Relative tolerance for golden comparisons.  The golden values are
#: rounded to 1e-3 bytes / 1e-9 ratios at recording time; the structures
#: may legally differ by accumulated float drift below that.
REL = 1e-6
ABS = 2e-3


def _load(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load("pagecache_golden.json")


class TestWorkloadParity:
    def test_golden_matches_workload_version(self, golden):
        assert golden["workload_version"] == WORKLOAD_VERSION, (
            "the parity workload changed; regenerate the golden with "
            "`PYTHONPATH=src:tests python tests/record_parity_golden.py` "
            "run on a known-good implementation"
        )

    @pytest.mark.parametrize("variant", ["default", "lru-policy-object"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_trace_parity(self, golden, scenario, variant):
        """Replays match the pre-extent golden byte for byte.

        The extent-run cache coalesces losslessly and unconditionally, so
        the replay must be bit-identical to the golden recorded from the
        one-block-per-node implementation.  The ``lru-policy-object``
        variant routes victim selection through an explicit
        :class:`~repro.pagecache.policy.LRUPolicy` instance and must
        reproduce the exact same trace.
        """
        expected = golden["scenarios"][scenario]
        if variant == "default":
            actual = run_parity_workload(**SCENARIOS[scenario])
        else:
            from repro.pagecache.policy import LRUPolicy

            actual = run_parity_workload(eviction_policy=LRUPolicy(),
                                         **SCENARIOS[scenario])
        assert len(actual) == len(expected)
        for step, (got, want) in enumerate(zip(actual, expected)):
            assert set(got) == set(want), f"step {step}"
            for key, want_value in want.items():
                got_value = got[key]
                if key == "per_file":
                    assert sorted(got_value) == sorted(want_value), (
                        f"step {step}: cached file set diverged"
                    )
                    for name, size in want_value.items():
                        assert got_value[name] == pytest.approx(
                            size, rel=REL, abs=ABS
                        ), f"step {step}: per-file bytes of {name!r}"
                else:
                    assert got_value == pytest.approx(
                        want_value, rel=REL, abs=ABS
                    ), f"step {step}: {key}"


class TestExperimentParity:
    """Headline experiment outputs are unchanged by the rewrite."""

    @pytest.fixture(scope="class")
    def experiment_golden(self) -> dict:
        return _load("experiment_golden.json")

    def test_exp2_local(self, experiment_golden):
        from repro.units import GB, MB

        point = run_experiment("exp2", simulator="wrench-cache", n_apps=8,
                               input_size=3 * GB, chunk_size=100 * MB,
                               nfs=False)
        want = experiment_golden["exp2_cache_local_8"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.read_time == pytest.approx(want["read_time"], rel=REL)
        assert point.write_time == pytest.approx(want["write_time"], rel=REL)

    def test_exp2_nfs(self, experiment_golden):
        from repro.units import GB, MB

        point = run_experiment("exp2", simulator="wrench-cache", n_apps=4,
                               input_size=3 * GB, chunk_size=100 * MB,
                               nfs=True)
        want = experiment_golden["exp2_cache_nfs_4"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.read_time == pytest.approx(want["read_time"], rel=REL)
        assert point.write_time == pytest.approx(want["write_time"], rel=REL)

    @pytest.mark.parametrize("placement", ["round-robin", "cache"])
    def test_exp6(self, experiment_golden, placement):
        point = run_experiment("exp6", placement=placement)
        want = experiment_golden[f"exp6_{placement}"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.cache_hit_ratio == pytest.approx(
            want["cache_hit_ratio"], rel=REL
        )
        assert point.mean_wait_time == pytest.approx(
            want["mean_wait_time"], rel=REL, abs=1e-9
        )
        assert point.mean_bounded_slowdown == pytest.approx(
            want["mean_bounded_slowdown"], rel=REL
        )
        assert point.utilization == pytest.approx(want["utilization"], rel=REL)

    @pytest.mark.parametrize("policy", ["fifo", "preemptive-priority"])
    def test_exp7(self, experiment_golden, policy):
        point = run_experiment("exp7", policy=policy, load_factor=40.0)
        want = experiment_golden[f"exp7_{policy}"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.cache_hit_ratio == pytest.approx(
            want["cache_hit_ratio"], rel=REL
        )
        assert point.mean_bounded_slowdown == pytest.approx(
            want["mean_bounded_slowdown"], rel=REL
        )
        assert point.high_priority.mean_bounded_slowdown == pytest.approx(
            want["high_prio_slowdown"], rel=REL
        )
        assert point.high_priority.mean_wait_time == pytest.approx(
            want["high_prio_wait"], rel=REL, abs=1e-9
        )
        assert point.n_preemptions == want["n_preemptions"]

    def test_exp6_zero_fault_plan_replays_golden(self, experiment_golden):
        # The fault-injection layer's parity contract: a zero FaultPlan
        # enables no fault machinery, so the run replays the golden
        # numbers exactly as if no plan had been passed at all.
        from repro.faults import FaultPlan

        point = run_experiment("exp6", placement="cache",
                               fault_plan=FaultPlan())
        want = experiment_golden["exp6_cache"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.cache_hit_ratio == pytest.approx(
            want["cache_hit_ratio"], rel=REL
        )
        assert point.mean_wait_time == pytest.approx(
            want["mean_wait_time"], rel=REL, abs=1e-9
        )
        assert point.mean_bounded_slowdown == pytest.approx(
            want["mean_bounded_slowdown"], rel=REL
        )
        assert point.utilization == pytest.approx(want["utilization"], rel=REL)
        assert point.n_node_failures == 0
        assert point.n_job_restarts == 0

    def test_exp7_zero_fault_plan_replays_golden(self, experiment_golden):
        from repro.faults import FaultPlan

        point = run_experiment("exp7", policy="preemptive-priority",
                               load_factor=40.0, fault_plan=FaultPlan())
        want = experiment_golden["exp7_preemptive-priority"]
        assert point.makespan == pytest.approx(want["makespan"], rel=REL)
        assert point.cache_hit_ratio == pytest.approx(
            want["cache_hit_ratio"], rel=REL
        )
        assert point.mean_bounded_slowdown == pytest.approx(
            want["mean_bounded_slowdown"], rel=REL
        )
        assert point.n_preemptions == want["n_preemptions"]
        assert point.n_node_failures == 0
