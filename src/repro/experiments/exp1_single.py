"""Exp 1 — single-threaded execution on a local disk (Figures 4a, 4b, 4c).

A single instance of the synthetic application runs on one cluster node,
with all I/O directed to the same local disk, for input file sizes of 20,
50, 75 and 100 GB.  The paper reports, for each of the six I/O operations
(Read 1, Write 1, ..., Write 3):

* the absolute relative simulation error of the Python prototype, WRENCH
  and WRENCH-cache against the real execution (Figure 4a);
* the memory profile over time (used memory, cache, dirty data; Figure 4b);
* the per-file cache content after each operation (Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.synthetic import NUM_TASKS, synthetic_workflow
from repro.experiments.harness import ScenarioConfig, build_simulation
from repro.experiments.metrics import mean_error_percent, per_operation_errors
from repro.experiments.runner import make_spec, sweep_values
from repro.pagecache.memory_manager import MemorySnapshot
from repro.simulator.tracing import CacheContentRecord
from repro.units import GB, MB

#: Operation labels, in execution order (the x axis of Figures 4a and 4c).
EXP1_OPERATIONS: Tuple[str, ...] = tuple(
    f"{kind} {index}" for index in range(1, NUM_TASKS + 1) for kind in ("Read", "Write")
)

#: File sizes evaluated by the paper (20 and 100 GB are the ones plotted).
EXP1_FILE_SIZES: Tuple[float, ...] = (20 * GB, 50 * GB, 75 * GB, 100 * GB)

#: Simulators compared against the reference in Figure 4a.
EXP1_SIMULATORS: Tuple[str, ...] = ("pysim", "wrench", "wrench-cache")


@dataclass
class Exp1Result:
    """Outcome of one Exp 1 run for one simulator and one file size."""

    simulator: str
    file_size: float
    #: Duration of each operation, keyed by label ("Read 1", "Write 1", ...).
    durations: Dict[str, float]
    #: Memory profile samples (empty when tracing is disabled).
    memory_trace: List[MemorySnapshot] = field(default_factory=list)
    #: Per-file cache contents after each I/O operation.
    cache_contents: List[CacheContentRecord] = field(default_factory=list)
    makespan: float = 0.0
    wallclock_time: float = 0.0

    def operation_series(self) -> List[Tuple[str, float]]:
        """Durations in execution order, as (label, seconds) pairs."""
        return [(label, self.durations[label]) for label in EXP1_OPERATIONS]

    def cache_contents_per_operation(self) -> Dict[str, Dict[str, float]]:
        """Per-file cache content right after each operation (Figure 4c)."""
        contents: Dict[str, Dict[str, float]] = {}
        for record in self.cache_contents:
            task_index = int(record.task.replace("task", ""))
            label = f"{'Read' if record.kind == 'read' else 'Write'} {task_index}"
            contents[label] = dict(record.contents)
        return contents


def build_exp1(simulator: str, file_size: float, *, chunk_size: float = 100 * MB,
               trace_interval: Optional[float] = 5.0):
    """Build one Exp 1 configuration (unstarted): one app on a local disk."""
    scenario = ScenarioConfig(
        nfs=False, chunk_size=chunk_size, trace_interval=trace_interval
    )
    simulation, storage = build_simulation(simulator, scenario)
    workflow = synthetic_workflow(file_size)
    simulation.stage_file(workflow.input_files()[0], storage)
    simulation.submit_workflow(workflow, host="node1", storage=storage, label="app1")
    return simulation


def finish_exp1(result, simulator: str, file_size: float,
                **_params) -> Exp1Result:
    """Collect the observables of a finished Exp 1 run."""
    durations: Dict[str, float] = {}
    for index in range(1, NUM_TASKS + 1):
        durations[f"Read {index}"] = result.duration_of(f"task{index}", "read")
        durations[f"Write {index}"] = result.duration_of(f"task{index}", "write")

    return Exp1Result(
        simulator=simulator,
        file_size=file_size,
        durations=durations,
        memory_trace=result.memory_trace,
        cache_contents=result.cache_contents,
        makespan=result.makespan,
        wallclock_time=result.wallclock_time,
    )


def sweep_errors_vs_reference(experiment: str, simulators: Sequence[str],
                              reference, *,
                              workers: Union[None, int, str] = None,
                              **params) -> Dict[str, Dict[str, float]]:
    """Per-simulator error sweeps against a reference run, as one fan-out.

    Runs ``experiment`` once per simulator — plus a trailing ``"real"``
    run when ``reference`` is ``None`` — through the sweep engine, then
    maps each simulator to its per-operation errors against the
    reference's durations.  Shared by :func:`exp1_errors` and
    :func:`repro.experiments.exp4_nighres.exp4_errors`, whose result
    objects both expose ``.durations``.
    """
    simulators = list(simulators)
    sweep = list(simulators)
    if reference is None:
        sweep.append("real")
    runs = sweep_values(
        [
            make_spec(experiment, label=f"{experiment}[{simulator}]",
                      simulator=simulator, **params)
            for simulator in sweep
        ],
        workers=workers,
    )
    if reference is None:
        reference = runs.pop()
    return {
        simulator: per_operation_errors(run.durations, reference.durations)
        for simulator, run in zip(simulators, runs)
    }


def exp1_errors(file_size: float, *, simulators: Sequence[str] = EXP1_SIMULATORS,
                chunk_size: float = 100 * MB,
                reference: Optional[Exp1Result] = None,
                workers: Union[None, int, str] = None,
                ) -> Dict[str, Dict[str, float]]:
    """Per-operation absolute relative errors (%) against the reference.

    Returns ``{simulator: {operation label: error percent}}`` — the data of
    Figure 4a for one file size.  The reference run can be passed in to
    avoid recomputing it across simulators or file sizes; when it is not,
    it joins the per-simulator runs in one sweep, fanned out across
    ``workers`` processes (:mod:`repro.experiments.runner`).
    """
    return sweep_errors_vs_reference(
        "exp1",
        simulators,
        reference,
        workers=workers,
        file_size=file_size,
        chunk_size=chunk_size,
        trace_interval=None,
    )


def exp1_mean_errors(errors: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Mean error (%) per simulator, skipping the unaffected first read."""
    means: Dict[str, float] = {}
    for simulator, per_op in errors.items():
        # The first read only involves uncached data and is accurately
        # simulated by every simulator; the paper's averages are dominated
        # by the remaining operations, which we average here.
        values = [value for label, value in per_op.items() if label != "Read 1"]
        means[simulator] = mean_error_percent(values)
    return means
