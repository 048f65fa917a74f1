"""Telemetry parity: enabling observation must not change simulated results.

The telemetry invariant is *observe, never schedule*: spans and metrics
read simulator state but never mutate it, and the DES sampler's periodic
timeouts interleave with — without reordering — the simulation's own
events.  These tests pin that by comparing the canonical JSON of an
entire simulation result (everything except wall-clock time) across the
telemetry settings, byte for byte.
"""

from __future__ import annotations

import json

from obs_workload import build_small_exp6, result_fingerprint
from repro.obs import Observer
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.units import GB


def _canonical(result) -> str:
    return json.dumps(result_fingerprint(result), sort_keys=True)


def _run_single_node(observe):
    from repro.apps.synthetic import synthetic_workflow

    simulation = Simulation(
        config=SimulationConfig(cache_mode="writeback"), observe=observe
    )
    simulation.create_cluster_platform(1, with_nfs_server=False)
    service = simulation.create_storage_service("node1", "/local")
    app = synthetic_workflow(input_size=2 * GB)
    simulation.stage_file(app.input_files()[0], service)
    simulation.submit_workflow(app, host="node1", storage=service)
    return simulation.run()


class TestParity:
    def test_single_node_results_byte_identical(self):
        disabled = _canonical(_run_single_node(observe=False))
        enabled = _canonical(_run_single_node(observe=True))
        assert enabled == disabled

    def test_cluster_results_byte_identical(self):
        disabled = _canonical(build_small_exp6(observe=False).run())
        enabled = _canonical(build_small_exp6(observe=True).run())
        assert enabled == disabled

    def test_custom_observer_instance_also_parity(self):
        observer = Observer(max_spans=64, des_sample_interval=0.25)
        enabled = build_small_exp6(observe=observer).run()
        disabled = build_small_exp6(observe=False).run()
        assert _canonical(enabled) == _canonical(disabled)
        assert enabled.observer is observer
        # The tiny ring truncated (64 << emitted spans) without harm.
        assert observer.spans_emitted > 64
        assert observer.dropped_spans == observer.spans_emitted - 64

    def test_disabled_simulation_has_no_observer(self):
        result = _run_single_node(observe=False)
        assert result.observer is None


class TestEnvVarSwitch:
    def test_repro_obs_enables_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        result = _run_single_node(observe=None)
        assert result.observer is not None
        assert result.observer.spans

    def test_explicit_false_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        result = _run_single_node(observe=False)
        assert result.observer is None

    def test_falsy_env_values_stay_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        result = _run_single_node(observe=None)
        assert result.observer is None
