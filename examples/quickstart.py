#!/usr/bin/env python3
"""Quickstart: simulate one data-processing pipeline with and without a page cache.

This example builds a single 32-core node (250 GiB RAM, one 450 GB local
SSD), runs the paper's synthetic three-task pipeline on a 20 GB file, and
compares three simulators:

* ``none``          — the cacheless baseline (original WRENCH behaviour);
* ``writethrough``  — page cache with synchronous writes;
* ``writeback``     — full Linux-like page cache (the paper's model).

Run it with::

    python examples/quickstart.py [file_size_GB]
"""

from __future__ import annotations

import sys

from repro import GB, Simulation, SimulationConfig
from repro.analysis.tables import format_table
from repro.apps.synthetic import synthetic_workflow
from repro.units import format_time


def run_once(cache_mode: str, file_size: float):
    """Run the synthetic pipeline with one cache mode and return the result."""
    simulation = Simulation(config=SimulationConfig(cache_mode=cache_mode,
                                                    trace_interval=None))
    simulation.create_cluster_platform(1, with_nfs_server=False)
    storage = simulation.create_storage_service("node1", "/local")

    workflow = synthetic_workflow(file_size)
    simulation.stage_file(workflow.input_files()[0], storage)
    simulation.submit_workflow(workflow, host="node1", storage=storage, label="app")
    return simulation.run()


def main() -> None:
    file_size = (float(sys.argv[1]) if len(sys.argv) > 1 else 20.0) * GB
    print(f"Synthetic 3-task pipeline, {file_size / GB:.0f} GB files\n")

    results = {mode: run_once(mode, file_size)
               for mode in ("none", "writethrough", "writeback")}

    rows = []
    for mode, result in results.items():
        rows.append([
            mode,
            result.total_read_time(),
            result.total_write_time(),
            result.makespan,
        ])
    print(format_table(
        ["cache mode", "total read (s)", "total write (s)", "makespan (s)"],
        rows, precision=1,
    ))

    writeback = results["writeback"]
    stats = writeback.cache_stats["node1"]
    print(f"\nWith the writeback page cache, {stats.hit_ratio * 100:.0f}% of the "
          f"bytes read by the application were served from memory,")
    print(f"and the pipeline finished in {format_time(writeback.makespan)} instead "
          f"of {format_time(results['none'].makespan)} without a cache.")


if __name__ == "__main__":
    main()
