"""Simulation-time scalability (Figure 8).

The paper measures the wall-clock time needed to *run the simulation* as a
function of the number of concurrent applications, for WRENCH and
WRENCH-cache, with local and NFS I/O, and fits a linear regression to each
curve.  WRENCH-cache scales linearly like WRENCH, with a higher per-
application overhead; it is faster with NFS than with local I/O because the
writethrough server cache bypasses the flushing machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.regression import LinearFit, linear_fit
from repro.experiments.exp2_concurrent import DEFAULT_INPUT_SIZE
from repro.experiments.runner import PointResult, make_spec, sweep_values
from repro.units import MB

#: The four curves plotted in Figure 8.
SCALING_CONFIGS: Tuple[Tuple[str, bool], ...] = (
    ("wrench", False),
    ("wrench", True),
    ("wrench-cache", False),
    ("wrench-cache", True),
)


@dataclass
class ScalingPoint:
    """Wall-clock simulation time for one (simulator, storage, #apps) point."""

    simulator: str
    nfs: bool
    n_apps: int
    wallclock_time: float
    simulated_makespan: float

    @property
    def label(self) -> str:
        """Curve label, e.g. ``"WRENCH-cache (NFS)"``."""
        pretty = "WRENCH-cache" if self.simulator == "wrench-cache" else "WRENCH"
        return f"{pretty} ({'NFS' if self.nfs else 'local'})"


def run_scaling(counts: Sequence[int] = (1, 4, 8, 16, 24, 32), *,
                configs: Sequence[Tuple[str, bool]] = SCALING_CONFIGS,
                input_size: float = DEFAULT_INPUT_SIZE,
                chunk_size: float = 100 * MB,
                workers: Union[None, int, str] = None,
                progress: Optional[Callable[[PointResult, int, int], None]] = None,
                ) -> Dict[str, List[ScalingPoint]]:
    """Measure every curve of Figure 8.

    Returns ``{curve label: [ScalingPoint, ...]}``.

    The whole (config × count) grid runs as one flat sweep of Exp 2
    points through :mod:`repro.experiments.runner`; the *simulated*
    outputs are identical for any ``workers`` value.  Each point's
    ``wallclock_time`` is its simulation's own run time (the build is not
    counted), measured inside its worker, so with more workers than cores
    the readings contend — keep the default serial mode when the
    measurement itself is the result (Figure 8), use workers when only the
    simulated outputs matter.
    """
    counts = list(counts)
    configs = list(configs)
    specs = [
        make_spec(
            "exp2",
            label=f"exp5[{simulator},{'nfs' if nfs else 'local'},{n_apps}]",
            simulator=simulator,
            n_apps=n_apps,
            nfs=nfs,
            input_size=input_size,
            chunk_size=chunk_size,
        )
        for simulator, nfs in configs
        for n_apps in counts
    ]
    values = sweep_values(specs, workers=workers, progress=progress)
    per_curve = len(counts)
    curves: Dict[str, List[ScalingPoint]] = {}
    for i, (simulator, nfs) in enumerate(configs):
        points = [
            ScalingPoint(simulator=simulator, nfs=nfs, n_apps=point.n_apps,
                         wallclock_time=point.wallclock_time,
                         simulated_makespan=point.makespan)
            for point in values[i * per_curve:(i + 1) * per_curve]
        ]
        curves[points[0].label] = points
    return curves


def scaling_regressions(curves: Dict[str, List[ScalingPoint]]) -> Dict[str, LinearFit]:
    """Linear regression of wall-clock time vs number of applications.

    This reproduces the ``y = a x + b`` annotations of Figure 8 and the
    reported linearity (p < 1e-24 in the paper; with fewer points here the
    p-value is larger but the fit is still strongly linear).
    """
    fits: Dict[str, LinearFit] = {}
    for label, points in curves.items():
        xs = [float(point.n_apps) for point in points]
        ys = [point.wallclock_time for point in points]
        fits[label] = linear_fit(xs, ys)
    return fits
