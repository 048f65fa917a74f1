"""Concurrent application instances (Exp 2 and Exp 3).

The paper's concurrency experiments run 1 to 32 independent instances of
the synthetic application on one 32-core compute node, each instance
operating on its own files of 3 GB.  These helpers create the instances
(with per-instance file names so the page cache sees distinct files), stage
their input files and submit them to a :class:`~repro.simulator.Simulation`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.filesystem.file import File
from repro.simulator.simulation import Simulation
from repro.simulator.storage_service import StorageService
from repro.simulator.workflow import Workflow
from repro.apps.synthetic import synthetic_workflow


def make_instances(count: int, input_size: float,
                   workflow_factory: Optional[Callable[..., Workflow]] = None,
                   ) -> List[Tuple[Workflow, File]]:
    """Create ``count`` independent synthetic-application instances.

    Returns a list of ``(workflow, input_file)`` pairs; the input file is
    the one that must be staged before execution.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    factory = workflow_factory or synthetic_workflow
    instances: List[Tuple[Workflow, File]] = []
    for index in range(count):
        name = f"app{index + 1}"
        workflow = factory(input_size, name=name, file_prefix=f"{name}_")
        input_file = workflow.input_files()[0]
        instances.append((workflow, input_file))
    return instances


def stage_and_submit_instances(simulation: Simulation, instances,
                               *, host: str, storage: StorageService) -> None:
    """Stage the input file of each instance and submit it for execution."""
    for workflow, input_file in instances:
        simulation.stage_file(input_file, storage)
        simulation.submit_workflow(
            workflow,
            host=host,
            storage=storage,
            label=workflow.name,
        )
