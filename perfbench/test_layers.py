"""Tests of the benchmark's tracing: it observes, then leaves nothing behind.

Run from the repository root::

    python3 -m pytest perfbench/test_layers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "benchmarks"),
                str(HERE)]

from layers import SHARE_LAYERS, Clock, LayerTrace, own_layer  # noqa: E402
from workloads import copy_live_dir  # noqa: E402

from repro.experiments.exp6_cluster import build_exp6  # noqa: E402
from repro.service import SimulationService, canonical_result  # noqa: E402
from repro.snapshot import SimRecipe, SnapshotPlan  # noqa: E402
from repro.units import MB  # noqa: E402


def program_namespaces():
    """Every attribute of every loaded ``repro`` module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        seen[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                seen[f"{name}.{attr}"] = dict(vars(value))
    return seen


def cluster_run(clock) -> str:
    sim = build_exp6("cache", policy="easy", n_jobs=60, n_nodes=4,
                     n_datasets=6, input_size=64 * MB, output_size=16 * MB,
                     chunk_size=16 * MB, seed=5)
    with clock:
        result = sim.run()
    return canonical_result(result)


def service_round(tmp_path: Path, clock) -> int:
    recipe = SimRecipe("service-cluster", dict(n_nodes=2, cores_per_node=4,
                                               n_datasets=2,
                                               input_size=32 * MB))
    service = SimulationService(tmp_path / "svc", recipe=recipe,
                                snapshot_plan=SnapshotPlan.fixed(0.5)).start()
    with clock:
        for i in range(6):
            service.submit({"dataset": i % 2, "runtime": 1.0})
    copy_live_dir(tmp_path / "svc", tmp_path / "copy")
    with clock:
        service.drain(timeout=60.0)
        recovered = SimulationService(tmp_path / "copy").start()
    recovered.stop(timeout=60.0)
    return service.summary()["jobs_completed"]


def test_traced_run_equals_untraced_and_unwraps_everything(tmp_path):
    untraced = cluster_run(Clock())
    before = program_namespaces()
    with LayerTrace(cpu_time=True) as trace:
        traced = cluster_run(Clock(trace.profile))
        completed = service_round(tmp_path, Clock(trace.profile))
    assert trace.unrestored() == []
    after = program_namespaces()
    for namespace, attrs in before.items():
        changed = [attr for attr, value in attrs.items()
                   if after[namespace].get(attr) is not value]
        assert not changed, f"{namespace} still patched: {changed}"
    assert traced == untraced
    assert completed == 6

    metrics = trace.layer_metrics(untraced_wall=1.0, traced_wall=2.0)
    shares = [metrics[f"{layer}.self_share"] for layer in SHARE_LAYERS]
    assert abs(sum(shares) - 100.0) < 1e-6
    assert metrics["scheduler.select_calls"] > 0
    assert metrics["service.log_appends"] >= 6
    assert metrics["snapshot.count"] > 0
    assert metrics["snapshot.replay_s"] > 0
    assert metrics["des.events"] > 0
    assert metrics["trace.overhead_pct"] == 100.0


def test_layer_map():
    assert own_layer(("/x/src/repro/des/environment.py", 1, "run")) == "des"
    assert own_layer(("/x/src/repro/platform/flows.py", 1, "f")) == "flows"
    assert own_layer(("/x/src/repro/platform/storage.py", 1, "f")) == "other"
    assert own_layer(("~", 0, "<built-in method _heapq.heappop>")) == "des"
    assert own_layer(("~", 0, "<built-in method builtins.len>")) is None
