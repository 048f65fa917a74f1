"""Exps 2 and 3 — concurrent applications on local disk and NFS (Figs 5, 7).

1 to 32 concurrent instances of the synthetic application run on a single
32-core node, each instance operating on its own 3 GB files stored on the
same local SSD.  The paper plots, as a function of the number of concurrent
applications, the mean per-application cumulative read time and write time
for the real execution, WRENCH and WRENCH-cache.

Exp 3 (``nfs=True``) runs the same workload against an NFS-mounted
partition of a remote disk served over the 25 Gbps network: no client
write cache and a writethrough server cache, so writes happen at disk
bandwidth while reads can hit the server's cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.concurrent import make_instances, stage_and_submit_instances
from repro.experiments.harness import ScenarioConfig, build_simulation
from repro.experiments.runner import PointResult, make_spec, sweep_values
from repro.units import GB, MB

#: Concurrency levels plotted in Figures 5 and 7.
DEFAULT_APP_COUNTS: Tuple[int, ...] = (1, 4, 8, 12, 16, 20, 24, 28, 32)

#: File size of each instance (3 GB in the paper).
DEFAULT_INPUT_SIZE = 3 * GB


@dataclass
class ConcurrencyPoint:
    """One point of Figure 5 / Figure 7."""

    simulator: str
    n_apps: int
    #: Mean per-application cumulative read time (seconds).
    read_time: float
    #: Mean per-application cumulative write time (seconds).
    write_time: float
    makespan: float
    wallclock_time: float
    #: Fraction of read bytes served from page caches (0.0 for the
    #: cacheless simulator).  Added for the policy ablation (exp8); the
    #: parity goldens pin the named time fields above, not this one.
    hit_ratio: float = 0.0

    def as_row(self) -> Tuple[int, float, float]:
        """(n_apps, read_time, write_time) row for reports."""
        return (self.n_apps, self.read_time, self.write_time)


def build_exp2(simulator: str, n_apps: int, *,
               input_size: float = DEFAULT_INPUT_SIZE,
               chunk_size: float = 100 * MB,
               nfs: bool = False,
               eviction_policy: object = "lru"):
    """Build one concurrency-level simulation (unstarted).

    ``nfs=True`` runs the same workload against the NFS-mounted remote
    disk (Exp 3); ``eviction_policy`` is swept by the exp8 ablation.
    """
    scenario = ScenarioConfig(nfs=nfs, chunk_size=chunk_size, trace_interval=None,
                              eviction_policy=eviction_policy)
    simulation, storage = build_simulation(simulator, scenario)
    instances = make_instances(n_apps, input_size)
    stage_and_submit_instances(simulation, instances, host="node1",
                               storage=storage)
    return simulation


def finish_exp2(result, simulator: str, n_apps: int,
                **_params) -> ConcurrencyPoint:
    """Reduce a finished Exp 2 ``SimulationResult`` to its point metrics."""
    return ConcurrencyPoint(
        simulator=simulator,
        n_apps=n_apps,
        read_time=result.mean_app_read_time(),
        write_time=result.mean_app_write_time(),
        makespan=result.makespan,
        wallclock_time=result.wallclock_time,
        hit_ratio=result.read_cache_hit_ratio(),
    )


def _exp2_specs(simulator: str, counts: Sequence[int], input_size: float,
                chunk_size: float, nfs: bool):
    storage = "nfs" if nfs else "local"
    return [
        make_spec(
            "exp2",
            label=f"exp2[{simulator},{storage},{n_apps}]",
            simulator=simulator,
            n_apps=n_apps,
            input_size=input_size,
            chunk_size=chunk_size,
            nfs=nfs,
        )
        for n_apps in counts
    ]


def sweep_exp2(simulator: str, *, counts: Sequence[int] = DEFAULT_APP_COUNTS,
               input_size: float = DEFAULT_INPUT_SIZE,
               chunk_size: float = 100 * MB,
               nfs: bool = False,
               workers: Union[None, int, str] = None,
               progress: Optional[Callable[[PointResult, int, int], None]] = None,
               ) -> List[ConcurrencyPoint]:
    """Run a full concurrency sweep for one simulator (one curve of Fig 5/7).

    The points are independent simulations and fan out across ``workers``
    processes (see :mod:`repro.experiments.runner`); results come back in
    ``counts`` order for any worker count.
    """
    return sweep_values(
        _exp2_specs(simulator, counts, input_size, chunk_size, nfs),
        workers=workers,
        progress=progress,
    )


def exp2_series(simulators: Sequence[str] = ("real", "wrench", "wrench-cache"), *,
                counts: Sequence[int] = DEFAULT_APP_COUNTS,
                input_size: float = DEFAULT_INPUT_SIZE,
                chunk_size: float = 100 * MB,
                nfs: bool = False,
                workers: Union[None, int, str] = None,
                progress: Optional[Callable[[PointResult, int, int], None]] = None,
                ) -> Dict[str, List[ConcurrencyPoint]]:
    """All the curves of Figure 5 (or Figure 7 with ``nfs=True``).

    The whole (simulator × count) grid is submitted as one flat sweep, so
    a pool is kept busy across curve boundaries instead of draining at the
    end of each curve.
    """
    simulators = list(simulators)
    counts = list(counts)
    specs = [
        spec
        for simulator in simulators
        for spec in _exp2_specs(simulator, counts, input_size, chunk_size, nfs)
    ]
    values = sweep_values(specs, workers=workers, progress=progress)
    per_curve = len(counts)
    return {
        simulator: values[i * per_curve:(i + 1) * per_curve]
        for i, simulator in enumerate(simulators)
    }
