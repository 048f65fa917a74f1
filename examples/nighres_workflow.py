#!/usr/bin/env python3
"""Simulate the Nighres cortical-reconstruction workflow (Exp 4).

The workflow has four steps (skull stripping, tissue classification, region
extraction, cortical reconstruction) whose file sizes and CPU times were
measured on the real application (Table II).  Later steps re-read files
produced earlier, so the page cache turns most of their reads into memory
accesses; the cacheless baseline charges every byte at disk bandwidth.

Run it with::

    python examples/nighres_workflow.py
"""

from __future__ import annotations

from repro import Simulation, SimulationConfig
from repro.analysis.tables import format_table
from repro.apps.nighres import NIGHRES_STEPS, nighres_input_files, nighres_workflow


def run(cache_mode: str):
    simulation = Simulation(config=SimulationConfig(cache_mode=cache_mode,
                                                    trace_interval=None))
    simulation.create_cluster_platform(1, with_nfs_server=False)
    storage = simulation.create_storage_service("node1", "/local")
    workflow = nighres_workflow()
    for file in nighres_input_files():
        simulation.stage_file(file, storage)
    simulation.submit_workflow(workflow, host="node1", storage=storage,
                               label="nighres")
    return simulation.run()


def main() -> None:
    print("Nighres cortical reconstruction workflow (participant 0027430)\n")
    cacheless = run("none")
    cached = run("writeback")

    rows = []
    for index, step in enumerate(NIGHRES_STEPS, start=1):
        rows.append([
            f"{index}. {step.name}",
            cacheless.duration_of(step.name, "read"),
            cached.duration_of(step.name, "read"),
            cacheless.duration_of(step.name, "write"),
            cached.duration_of(step.name, "write"),
        ])
    print(format_table(
        ["step", "read no-cache (s)", "read page-cache (s)",
         "write no-cache (s)", "write page-cache (s)"],
        rows, precision=2,
    ))
    print(f"\nWorkflow makespan: {cacheless.makespan:.0f} s without page cache, "
          f"{cached.makespan:.0f} s with the writeback page cache model.")
    print("Steps 3 and 4 re-read files produced earlier (1376 MB and 393 MB), "
          "which is where the cache pays off.")


if __name__ == "__main__":
    main()
