"""Tests of the snapshot subsystem: capture, files, plans, restore parity.

Unit tests pin the canonical encoder, snapshot plans and the snapshot
file format; integration tests exercise the invariant — a run
snapshotted at ``t=T`` and restored in a fresh simulation produces
results byte-identical to the uninterrupted run — on every registered
batch experiment.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ConfigurationError,
    SnapshotError,
    SnapshotIntegrityError,
)
from repro.faults.plan import FaultPlan, NodeFaultSpec
from repro.snapshot import (
    EXPERIMENTS,
    NONDETERMINISTIC_FIELDS,
    SimRecipe,
    SnapshotPlan,
    build_experiment,
    build_from_recipe,
    canonical_json,
    capture_state,
    finish_point,
    fingerprint,
    read_snapshot_doc,
    restore_simulation,
    run_experiment,
    to_jsonable,
    write_snapshot,
)
from repro.units import GB, MB


def canon(point) -> str:
    """Canonical encoding of a point dataclass, nondeterminism excluded."""
    return canonical_json(point)


# ------------------------------------------------------------- canonical
@dataclasses.dataclass
class _Record:
    """A result-like dataclass with an excluded field."""

    label: str
    wallclock_time: float
    payload: Any


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sets(st.integers(-3, 3), max_size=3),
    st.frozensets(st.text(max_size=2), max_size=3),
)
_keys = st.one_of(
    st.text(max_size=3), st.integers(-2, 2), st.floats(allow_nan=False),
    st.tuples(st.integers(0, 2), st.text(max_size=1)),
    st.sampled_from(sorted(NONDETERMINISTIC_FIELDS)),
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
        st.builds(_Record, label=st.text(max_size=2),
                  wallclock_time=st.floats(), payload=children),
    ),
    max_leaves=12,
)


class TestCanonical:
    @settings(max_examples=150, deadline=None)
    @given(value=_values)
    def test_encoding_is_idempotent(self, value):
        # Callers pass raw results to canonical_json/fingerprint instead
        # of normalizing them first; the bytes must not change.
        assert canonical_json(to_jsonable(value)) == canonical_json(value)

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
        plain = run_experiment("exp6", n_jobs=30)
        sim = build_experiment("exp6", n_jobs=30)
        t = 0.0
        while not sim.completed:
            t += 3.0
            sim.step_until(t)
            if t > 10_000:  # pragma: no cover - runaway guard
                pytest.fail("simulation did not complete")
        stepped = finish_point(sim.recipe, sim.run())
        assert canon(stepped) == canon(plain)

    def test_stepped_capture_matches_plain_capture(self):
        """Same events processed => byte-identical capture at time T."""
        a = build_experiment("exp6", n_jobs=30)
        a.step_until(4.0)
        a.step_until(8.0)
        b = build_experiment("exp6", n_jobs=30)
        b.step_until(8.0)
        assert fingerprint(capture_state(a)) == fingerprint(capture_state(b))

    def test_clock_ends_at_t_until_completion(self):
        """A pause leaves the clock at ``t``, not at the last event."""
        sim = build_experiment("exp6", n_jobs=30)
        assert sim.step_until(4.3) == sim.env.now == 4.3
        assert not sim.completed
        sim.step_until(math.inf)
        assert sim.completed
        end = sim.env.now
        assert sim.step_until(end + 100.0) == end

    def test_stepped_observed_run_counts_like_plain_run(self, monkeypatch):
        """Pausing at ``t`` counts DES events and tombstones like run()."""
        monkeypatch.setenv("REPRO_OBS", "1")
        params = dict(policy="easy", n_jobs=60, n_nodes=4, seed=3)
        plain = build_experiment("exp6", **params)
        plain.run()
        stepped = build_experiment("exp6", **params)
        t = 0.0
        while not stepped.completed:
            t += 0.5
            stepped.step_until(t)
        stepped.run()
        assert plain.observer.des_tombstones > 0
        assert (stepped.observer.des_tombstones
                == plain.observer.des_tombstones)
        assert (stepped.observer.des_event_counts
                == plain.observer.des_event_counts)

    def test_step_into_the_past_rejected(self):
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(5.0)
        with pytest.raises(ConfigurationError):
            sim.step_until(1.0)


#: Captures of two small runs stopped mid-flight, pinned byte for byte:
#: exp1 at t = 110 holds clean and dirty runs in both LRU lists, exp6 at
#: t = 20 holds four hosts' caches.  A change of the cache's storage that
#: moved a capture would break every snapshot written before it.
PINNED_CAPTURES = {
    "exp1": (dict(simulator="wrench-cache", file_size=20 * GB), 110.0,
             "0596135b33a55fb7c3e75612ae4c78ce3e4f64f549493fe278c335b21c9e9db2"),
    "exp6": (dict(n_jobs=40, n_nodes=4), 20.0,
             "3931c83736d0d0e47c3c98eefbca9e47874970d105b29444d9af6c6b535e3e38"),
}


class TestPinnedCapture:
    def test_mid_run_captures_are_pinned(self):
        for name, (params, t, expected) in PINNED_CAPTURES.items():
            sim = build_experiment(name, **params)
            sim.step_until(t)
            state = capture_state(sim)
            assert state["capture_version"] == 2
            assert fingerprint(state) == expected, name

    def test_exp1_capture_holds_both_states_in_both_lists(self):
        params, t, _ = PINNED_CAPTURES["exp1"]
        sim = build_experiment("exp1", **params)
        sim.step_until(t)
        assert not sim.completed
        kinds = {(name, run["dirty"])
                 for host in capture_state(sim)["hosts"].values()
                 if "cache" in host
                 for name, lru in host["cache"]["lists"].items()
                 for run in lru["runs"]}
        assert kinds == {("inactive", False), ("inactive", True),
                         ("active", False), ("active", True)}

    def test_pinned_captures_do_not_depend_on_the_hash_seed(self):
        cases = sorted((name, params, t) for name, (params, t, _)
                       in PINNED_CAPTURES.items())
        code = (
            "from repro.snapshot import build_experiment, capture_state, "
            "fingerprint\n"
            f"for name, params, t in {cases!r}:\n"
            "    sim = build_experiment(name, **params)\n"
            "    sim.step_until(t)\n"
            "    print(name, fingerprint(capture_state(sim)))\n"
        )
        expected = "".join(f"{name} {PINNED_CAPTURES[name][2]}\n"
                           for name, _, _ in cases)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout == expected, seed


# ---------------------------------------------------------- file format
class TestSnapshotFile:
    def test_write_is_byte_deterministic(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(6.0)
        p1 = write_snapshot(sim, tmp_path / "a.json")
        p2 = write_snapshot(sim, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_fields(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(6.0)
        doc = read_snapshot_doc(write_snapshot(sim, tmp_path / "s.json"))
        assert doc["format"] == "repro-snapshot"
        assert doc["version"] == 1
        assert doc["experiment"] == "exp6"
        assert doc["t"] == sim.env.now
        assert doc["fingerprint"] == fingerprint(doc["state"])

    def test_unstarted_simulation_rejected(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
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
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            read_snapshot_doc(path)

    def test_tampered_state_fails_integrity_check(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotIntegrityError):
            restore_simulation(path)

    def test_verify_false_skips_integrity_check(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
        sim.step_until(6.0)
        path = write_snapshot(sim, tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 64
        path.write_text(json.dumps(doc))
        restored = restore_simulation(path, verify=False)
        assert restored.env.now == sim.env.now
        assert not restored.completed


# ------------------------------------------------------- restore parity
#: One small case per registered batch experiment: its parameters and a
#: snapshot time that lands mid-run.
PARITY_CASES = {
    "exp1": (dict(simulator="wrench-cache", file_size=2 * GB,
                  trace_interval=1.0), 3.0),
    "exp2": (dict(simulator="wrench-cache", n_apps=4, input_size=3 * GB), 20.0),
    "exp4": (dict(simulator="wrench-cache"), 60.0),
    "exp6": (dict(placement="cache", n_jobs=40), 8.0),
    "exp7": (dict(policy="preemptive-priority", load_factor=40.0), 10.0),
    "exp9": (dict(workload="exp6", mtbf=15.0, mttr=3.0, n_jobs=20,
                  n_nodes=3, n_datasets=6), 8.0),
}


class TestRestoreParity:
    """The tentpole invariant, on every registered batch experiment."""

    @pytest.mark.parametrize(
        "name", sorted(set(EXPERIMENTS) - {"service-cluster"}))
    def test_resume_parity(self, name, tmp_path):
        params, t = PARITY_CASES[name]
        plain = run_experiment(name, **params)
        sim = build_experiment(name, **params)
        sim.step_until(t)
        assert not sim.completed
        path = write_snapshot(sim, tmp_path / "s.json")
        resumed = finish_point(sim.recipe, restore_simulation(path).run())
        assert canon(resumed) == canon(plain)

    def test_restore_is_paused_at_snapshot_time(self, tmp_path):
        sim = build_experiment("exp6", n_jobs=30)
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

    def test_recipe_keeps_every_builder_parameter(self):
        recipe = build_experiment("exp6", n_jobs=30).recipe
        assert recipe == SimRecipe("exp6", dict(
            placement="cache", policy="fifo", n_jobs=30, n_nodes=8,
            n_datasets=16, cores_per_node=8, input_size=1 * GB,
            output_size=256 * MB, arrival_rate=3.0, chunk_size=100 * MB,
            seed=42, eviction_policy="lru", fault_plan=None,
        ))

    def test_unencodable_parameter_named_on_write(self, tmp_path):
        from repro.experiments.exp7_trace_replay import default_trace_path
        from repro.scheduler.swf import load_swf

        trace = load_swf(default_trace_path())
        sim = build_experiment("exp7", policy="fifo", trace=trace,
                               max_jobs=20)
        sim.step_until(1.0)
        with pytest.raises(SnapshotError, match="'trace'"):
            write_snapshot(sim, tmp_path / "s.json")

    def test_path_parameter_stored_as_string(self):
        from repro.experiments.exp7_trace_replay import default_trace_path

        recipe = build_experiment("exp7", trace=default_trace_path(),
                                  max_jobs=20).recipe
        assert recipe.encoded()["params"]["trace"] == str(default_trace_path())
