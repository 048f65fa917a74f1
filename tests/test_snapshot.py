"""Tests of the snapshot subsystem: capture, files, plans, restore parity.

Unit tests pin the canonical encoder, snapshot plans and the snapshot
file format; integration tests exercise the invariant — a run
snapshotted at ``t=T`` and restored in a fresh simulation produces
results byte-identical to the uninterrupted run — on the exp2/exp6/exp7
golden workloads.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import (
    ConfigurationError,
    SnapshotError,
    SnapshotIntegrityError,
)
from repro.experiments.exp2_concurrent import build_exp2, finish_exp2, run_exp2
from repro.experiments.exp6_cluster import build_exp6, finish_exp6, run_exp6
from repro.experiments.exp7_trace_replay import build_exp7, finish_exp7, run_exp7
from repro.faults.plan import FaultPlan, NodeFaultSpec
from repro.snapshot import (
    SimRecipe,
    SnapshotPlan,
    build_from_recipe,
    canonical_json,
    capture_state,
    fingerprint,
    read_snapshot_doc,
    restore_simulation,
    to_jsonable,
    write_snapshot,
)
from repro.units import GB


def canon(point) -> str:
    """Canonical encoding of a point dataclass, nondeterminism excluded."""
    return canonical_json(point)


# ------------------------------------------------------------- canonical
class TestCanonical:
    def test_scalars_pass_through(self):
        assert to_jsonable(3) == 3
        assert to_jsonable("x") == "x"
        assert to_jsonable(1.5) == 1.5
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_nonfinite_floats_are_marked(self):
        assert to_jsonable(float("inf")) == {"__nonfinite__": "inf"}
        assert to_jsonable(float("nan")) == {"__nonfinite__": "nan"}

    def test_sets_are_sorted(self):
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]

    def test_nondeterministic_fields_dropped_at_depth(self):
        doc = {"a": {"wallclock_time": 1.0, "pid": 2, "keep": 3}}
        assert to_jsonable(doc) == {"a": {"keep": 3}}

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_fingerprint_is_stable(self):
        assert fingerprint({"x": 1}) == fingerprint({"x": 1})
        assert fingerprint({"x": 1}) != fingerprint({"x": 2})


# ---------------------------------------------------------------- plans
class TestSnapshotPlan:
    def test_fixed(self):
        plan = SnapshotPlan.fixed(5.0, keep=3)
        assert plan.interval == 5.0 and plan.keep == 3

    def test_boundaries(self):
        plan = SnapshotPlan.fixed(2.0)
        it = plan.boundaries()
        assert [next(it) for _ in range(3)] == [2.0, 4.0, 6.0]

    @pytest.mark.parametrize("kwargs", [dict(interval=0.0),
                                        dict(interval=-1.0),
                                        dict(interval=1.0, keep=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SnapshotPlan(**kwargs)


# ------------------------------------------------------- stepped running
class TestStepUntil:
    def test_stepping_matches_plain_run(self):
        """A run advanced in segments finishes with identical results."""
        plain = run_exp6("cache", n_jobs=30)
        sim = build_exp6("cache", n_jobs=30)
        t = 0.0
        while not sim.completed:
            t += 3.0
            sim.step_until(t)
            if t > 10_000:  # pragma: no cover - runaway guard
                pytest.fail("simulation did not complete")
        stepped = finish_exp6(sim.run(), "cache", n_jobs=30)
        assert canon(stepped) == canon(plain)

    def test_stepped_capture_matches_plain_capture(self):
        """Same events processed => byte-identical capture at time T."""
        a = build_exp6("cache", n_jobs=30)
        a.step_until(4.0)
        a.step_until(8.0)
        b = build_exp6("cache", n_jobs=30)
        b.step_until(8.0)
        assert fingerprint(capture_state(a)) == fingerprint(capture_state(b))

    def test_clock_ends_at_t_until_completion(self):
        """A pause leaves the clock at ``t``, not at the last event."""
        sim = build_exp6("cache", n_jobs=30)
        assert sim.step_until(4.3) == sim.env.now == 4.3
        assert not sim.completed
        sim.step_until(math.inf)
        assert sim.completed
        end = sim.env.now
        assert sim.step_until(end + 100.0) == end

    def test_step_into_the_past_rejected(self):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(5.0)
        with pytest.raises(ConfigurationError):
            sim.step_until(1.0)


# ---------------------------------------------------------- file format
class TestSnapshotFile:
    def test_write_is_byte_deterministic(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(6.0)
        p1 = write_snapshot(sim, tmp_path / "a.json")
        p2 = write_snapshot(sim, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_fields(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(6.0)
        doc = read_snapshot_doc(write_snapshot(sim, tmp_path / "s.json"))
        assert doc["format"] == "repro-snapshot"
        assert doc["version"] == 1
        assert doc["experiment"] == "exp6"
        assert doc["t"] == sim.env.now
        assert doc["fingerprint"] == fingerprint(doc["state"])

    def test_unstarted_simulation_rejected(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        with pytest.raises(SnapshotError):
            write_snapshot(sim, tmp_path / "s.json")

    def test_unbound_simulation_rejected(self, tmp_path):
        from repro.simulator.simulation import Simulation

        sim = Simulation()
        with pytest.raises(SnapshotError):
            write_snapshot(sim, tmp_path / "s.json")

    def test_garbage_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        with pytest.raises(SnapshotError):
            read_snapshot_doc(bad)
        bad.write_text("not json at all")
        with pytest.raises(SnapshotError):
            read_snapshot_doc(bad)

    def test_wrong_version_rejected(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            read_snapshot_doc(path)

    def test_tampered_state_fails_integrity_check(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotIntegrityError):
            restore_simulation(path)

    def test_verify_false_skips_integrity_check(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 64
        path.write_text(json.dumps(doc))
        restored = restore_simulation(path, verify=False)
        assert restored.env.now == sim.env.now
        assert not restored.completed


# ------------------------------------------------------- restore parity
class TestRestoreParity:
    """The tentpole invariant, on the parity suite's golden workloads."""

    def test_exp6_resume_parity(self, tmp_path):
        plain = run_exp6("cache", n_jobs=40)
        sim = build_exp6("cache", n_jobs=40)
        sim.step_until(8.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        restored = restore_simulation(path)
        resumed = finish_exp6(restored.run(), "cache", n_jobs=40)
        assert canon(resumed) == canon(plain)

    def test_exp2_resume_parity(self, tmp_path):
        plain = run_exp2("wrench-cache", 4, input_size=3 * GB)
        sim = build_exp2("wrench-cache", 4, input_size=3 * GB)
        sim.step_until(20.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        resumed = finish_exp2(restore_simulation(path).run(),
                              "wrench-cache", 4, input_size=3 * GB)
        assert canon(resumed) == canon(plain)

    def test_exp7_resume_parity(self, tmp_path):
        kwargs = dict(placement="cache", load_factor=40.0)
        plain = run_exp7("preemptive-priority", **kwargs)
        sim = build_exp7("preemptive-priority", **kwargs)
        sim.step_until(10.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        resumed = finish_exp7(restore_simulation(path).run(),
                              "preemptive-priority", **kwargs)
        assert canon(resumed) == canon(plain)

    def test_restore_is_paused_at_snapshot_time(self, tmp_path):
        sim = build_exp6("cache", n_jobs=30)
        sim.step_until(7.0)
        t = sim.env.now
        path = write_snapshot(sim, tmp_path / "s.json")
        restored = restore_simulation(path)
        assert restored.env.now == t
        assert not restored.completed


# ------------------------------------------------------------- recipes
class TestRecipes:
    def test_build_from_recipe_round_trip(self):
        recipe = SimRecipe("exp6", dict(placement="cache", n_jobs=30))
        sim = build_from_recipe(recipe)
        assert sim.recipe is not None
        assert sim.recipe.experiment == "exp6"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SnapshotError):
            build_from_recipe(SimRecipe("exp99", {}))

    def test_fault_plan_encodes_and_decodes(self):
        plan = FaultPlan(seed=3, node_faults=[NodeFaultSpec(node="*",
                                                            mtbf=60.0)])
        recipe = SimRecipe("exp6", dict(fault_plan=plan, n_jobs=30))
        doc = recipe.encoded()
        assert "__fault_plan__" in doc["params"]["fault_plan"]
        back = SimRecipe.decode(doc)
        assert isinstance(back.params["fault_plan"], FaultPlan)
        assert back.params["fault_plan"].seed == 3
        assert back.params["fault_plan"].node_faults[0].mtbf == 60.0

    def test_in_memory_trace_gets_no_recipe(self):
        from repro.experiments.exp7_trace_replay import default_trace_path
        from repro.scheduler.swf import load_swf

        trace = load_swf(default_trace_path())
        sim = build_exp7("fifo", trace=trace)
        assert sim.recipe is None
