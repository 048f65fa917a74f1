"""Regenerate the experiment-output golden (``tests/data/experiment_golden.json``).

Captures the headline numbers (makespans, hit ratios, slowdowns) of cheap
experiment configurations.  The committed file was recorded from the
pre-refactor tree, so the parity suite certifies that the hot-path rewrite
left every experiment output bit-identical (within float tolerance)::

    PYTHONPATH=src:tests python tests/record_experiment_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.snapshot import run_experiment
from repro.units import GB, MB


def collect() -> dict:
    golden: dict = {}

    exp2 = run_experiment("exp2", simulator="wrench-cache", n_apps=8,
                          input_size=3 * GB, chunk_size=100 * MB, nfs=False)
    golden["exp2_cache_local_8"] = {
        "makespan": exp2.makespan,
        "read_time": exp2.read_time,
        "write_time": exp2.write_time,
    }
    exp2_nfs = run_experiment("exp2", simulator="wrench-cache", n_apps=4,
                              input_size=3 * GB, chunk_size=100 * MB, nfs=True)
    golden["exp2_cache_nfs_4"] = {
        "makespan": exp2_nfs.makespan,
        "read_time": exp2_nfs.read_time,
        "write_time": exp2_nfs.write_time,
    }

    for placement in ("round-robin", "cache"):
        point = run_experiment("exp6", placement=placement)
        golden[f"exp6_{placement}"] = {
            "makespan": point.makespan,
            "cache_hit_ratio": point.cache_hit_ratio,
            "mean_wait_time": point.mean_wait_time,
            "mean_bounded_slowdown": point.mean_bounded_slowdown,
            "utilization": point.utilization,
        }

    for policy in ("fifo", "preemptive-priority"):
        point = run_experiment("exp7", policy=policy, load_factor=40.0)
        golden[f"exp7_{policy}"] = {
            "makespan": point.makespan,
            "cache_hit_ratio": point.cache_hit_ratio,
            "mean_bounded_slowdown": point.mean_bounded_slowdown,
            "high_prio_slowdown": point.high_priority.mean_bounded_slowdown,
            "high_prio_wait": point.high_priority.mean_wait_time,
            "n_preemptions": point.n_preemptions,
        }
    return golden


def main() -> None:
    golden = collect()
    out = Path(__file__).parent / "data" / "experiment_golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} experiment points -> {out}")


if __name__ == "__main__":
    main()
