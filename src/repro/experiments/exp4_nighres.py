"""Exp 4 — real application: the Nighres workflow (Figure 6).

The four-step cortical-reconstruction workflow (Table II) runs on a single
cluster node using a single local disk.  The paper reports the absolute
relative simulation error of WRENCH and WRENCH-cache for each of the eight
I/O operations (Read 1, Write 1, ..., Read 4, Write 4); errors drop from an
average of 337 % (WRENCH) to 47 % (WRENCH-cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.nighres import NIGHRES_STEPS, nighres_input_files, nighres_workflow
from repro.experiments.exp1_single import sweep_errors_vs_reference
from repro.experiments.harness import ScenarioConfig, build_simulation
from repro.experiments.metrics import mean_error_percent
from repro.units import MB

#: Operation labels of Figure 6, in execution order.
EXP4_OPERATIONS: Tuple[str, ...] = tuple(
    f"{kind} {index}" for index in range(1, len(NIGHRES_STEPS) + 1)
    for kind in ("Read", "Write")
)

#: Simulators compared in Figure 6.
EXP4_SIMULATORS: Tuple[str, ...] = ("wrench", "wrench-cache")


@dataclass
class Exp4Result:
    """Outcome of one Exp 4 run."""

    simulator: str
    #: Duration of each operation, keyed by label ("Read 1", ..., "Write 4").
    durations: Dict[str, float]
    makespan: float = 0.0
    wallclock_time: float = 0.0

    def operation_series(self) -> List[Tuple[str, float]]:
        """Durations in execution order."""
        return [(label, self.durations[label]) for label in EXP4_OPERATIONS]


def build_exp4(simulator: str, *, chunk_size: float = 50 * MB,
               trace_interval: Optional[float] = None):
    """Build the Nighres workflow run (unstarted) for one simulator."""
    scenario = ScenarioConfig(
        nfs=False, chunk_size=chunk_size, trace_interval=trace_interval
    )
    simulation, storage = build_simulation(simulator, scenario)
    workflow = nighres_workflow()
    for file in nighres_input_files():
        simulation.stage_file(file, storage)
    simulation.submit_workflow(
        workflow, host="node1", storage=storage, label="nighres"
    )
    return simulation


def finish_exp4(result, simulator: str, **_params) -> Exp4Result:
    """Collect the per-operation durations of a finished Exp 4 run."""
    durations: Dict[str, float] = {}
    for index, step in enumerate(NIGHRES_STEPS, start=1):
        durations[f"Read {index}"] = result.duration_of(step.name, "read")
        durations[f"Write {index}"] = result.duration_of(step.name, "write")

    return Exp4Result(
        simulator=simulator,
        durations=durations,
        makespan=result.makespan,
        wallclock_time=result.wallclock_time,
    )


def exp4_errors(*, simulators: Sequence[str] = EXP4_SIMULATORS,
                chunk_size: float = 50 * MB,
                reference: Optional[Exp4Result] = None,
                workers: Union[None, int, str] = None,
                ) -> Dict[str, Dict[str, float]]:
    """Per-operation absolute relative errors (%) — the data of Figure 6.

    The per-simulator runs (and the reference, unless supplied) execute
    as one sweep through
    :func:`repro.experiments.exp1_single.sweep_errors_vs_reference`.
    """
    return sweep_errors_vs_reference(
        "exp4",
        simulators,
        reference,
        workers=workers,
        chunk_size=chunk_size,
    )


def exp4_mean_errors(errors: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Mean error (%) per simulator, excluding the fully-uncached first read."""
    means: Dict[str, float] = {}
    for simulator, per_op in errors.items():
        values = [value for label, value in per_op.items() if label != "Read 1"]
        means[simulator] = mean_error_percent(values)
    return means
