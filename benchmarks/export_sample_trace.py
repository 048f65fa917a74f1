#!/usr/bin/env python
"""Export a sample telemetry bundle from a small Exp 6 cluster run.

Runs the seeded cluster-scheduling workload with telemetry enabled and
writes everything the observability stack produces:

* ``exp6_trace.json`` — Chrome trace-event / Perfetto JSON (open it at
  https://ui.perfetto.dev or in ``chrome://tracing``);
* ``exp6_spans.jsonl`` / ``exp6_spans.csv`` — the raw spans;
* ``exp6_metrics.json`` — the metrics registry (counters, gauges,
  sim-time-weighted histograms).

CI runs this on every push and uploads the bundle as an artifact, so a
reviewer can inspect what a change does to the simulated timeline without
running anything locally.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/export_sample_trace.py --out /tmp/obs
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0]
    )
    parser.add_argument("--out", type=Path, default=Path("telemetry-sample"),
                        help="output directory (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=24,
                        help="number of batch jobs (default: %(default)s)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="number of compute nodes (default: %(default)s)")
    args = parser.parse_args(argv)

    from repro.experiments.exp6_cluster import build_cluster_workload
    from repro.obs import (
        write_chrome_trace,
        write_spans_csv,
        write_spans_jsonl,
    )
    from repro.pagecache.config import PageCacheConfig
    from repro.simulator.simulation import Simulation, SimulationConfig
    from repro.units import MB

    simulation = Simulation(
        config=SimulationConfig(
            cache_mode="writeback",
            page_cache=PageCacheConfig(chunk_size=16 * MB),
            trace_interval=1.0,
        ),
        observe=True,
    )
    simulation.create_cluster_platform(
        args.nodes, cores_per_node=4, with_nfs_server=False
    )
    simulation.create_cluster_scheduler(policy="fifo", placement="cache")
    build_cluster_workload(
        simulation,
        n_jobs=args.jobs,
        n_datasets=max(2, args.jobs // 4),
        input_size=128 * MB,
        output_size=32 * MB,
        arrival_rate=2.0,
        seed=11,
    )
    result = simulation.run()
    observer = result.observer

    args.out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(observer, args.out / "exp6_trace.json")
    n_spans = write_spans_jsonl(observer, args.out / "exp6_spans.jsonl")
    write_spans_csv(observer, args.out / "exp6_spans.csv")
    (args.out / "exp6_metrics.json").write_text(
        json.dumps(observer.registry.as_dict(), indent=2, sort_keys=True)
        + "\n"
    )
    print(
        f"wrote {args.out}/: {n_spans} spans, "
        f"{len(observer.counter_samples)} counter samples, "
        f"{len(observer.registry)} metric series "
        f"(makespan {result.makespan:.1f}s, "
        f"{observer.des_events_processed} DES events)"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
