"""Evaluation harness: regenerates every table and figure of the paper.

Each simulation experiment is a ``build_expN``/``finish_expN`` pair
registered in :data:`repro.snapshot.recipe.EXPERIMENTS`:
``run_experiment("exp2", simulator=..., n_apps=...)`` builds, runs and
finishes one point, and the ``*_series``/``*_errors`` sweeps fan points
out through :mod:`repro.experiments.runner`.  ``*_report`` helpers format
the same rows/series the paper reports.  The mapping between paper
artifacts and modules is:

===========  ==========================================  =========================
Artifact     Content                                      Module
===========  ==========================================  =========================
Table I      synthetic application parameters             ``calibration``
Table II     Nighres application parameters               ``calibration``
Table III    bandwidth benchmarks / simulator config      ``calibration``
Figure 4a    Exp 1 simulation errors                      ``exp1_single``
Figure 4b    Exp 1 memory profiles                        ``exp1_single``
Figure 4c    Exp 1 cache contents                         ``exp1_single``
Figure 5     Exp 2 concurrent local I/O                   ``exp2_concurrent``
Figure 6     Exp 4 Nighres errors                         ``exp4_nighres``
Figure 7     Exp 3 concurrent NFS I/O                     ``exp2_concurrent``
Figure 8     simulation-time scaling                      ``exp5_scaling``
(beyond)     Exp 6 cluster batch scheduling               ``exp6_cluster``
(beyond)     Exp 7 SWF trace replay / preemption          ``exp7_trace_replay``
(beyond)     parallel sweep engine                        ``runner``
===========  ==========================================  =========================

The "real execution" columns are produced by a calibrated reference
simulator (see :mod:`repro.experiments.harness` and DESIGN.md §4): the same
page-cache engine run at higher fidelity (asymmetric measured bandwidths,
kernel idiosyncrasies such as eviction protection of files being written).
"""

from repro.experiments.calibration import (
    BandwidthCalibration,
    TABLE1_SYNTHETIC,
    TABLE2_NIGHRES,
    TABLE3_BANDWIDTHS,
)
from repro.experiments.harness import (
    SIMULATORS,
    ScenarioConfig,
    build_simulation,
)
from repro.experiments.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.experiments.exp1_single import exp1_errors, EXP1_OPERATIONS
from repro.experiments.exp2_concurrent import sweep_exp2
from repro.experiments.exp4_nighres import exp4_errors
from repro.experiments.exp5_scaling import run_scaling, ScalingPoint
from repro.experiments.exp6_cluster import (
    ClusterPoint,
    exp6_grid,
    exp6_policy_series,
    exp6_report,
    exp6_series,
)
from repro.experiments.exp10_warmstart import (
    Exp10Result,
    exp10_report,
    run_exp10,
    snapshot_branch_point,
)
from repro.experiments.runner import (
    PointResult,
    PointSpec,
    SweepPointError,
    make_spec,
    resolve_workers,
    run_named_sweep,
    run_sweep,
    sweep_values,
)

__all__ = [
    "BandwidthCalibration",
    "TABLE1_SYNTHETIC",
    "TABLE2_NIGHRES",
    "TABLE3_BANDWIDTHS",
    "SIMULATORS",
    "ScenarioConfig",
    "build_simulation",
    "absolute_relative_error",
    "mean_absolute_relative_error",
    "exp1_errors",
    "EXP1_OPERATIONS",
    "sweep_exp2",
    "exp4_errors",
    "run_scaling",
    "ScalingPoint",
    "ClusterPoint",
    "exp6_series",
    "exp6_policy_series",
    "exp6_grid",
    "exp6_report",
    "Exp10Result",
    "run_exp10",
    "exp10_report",
    "snapshot_branch_point",
    "PointSpec",
    "PointResult",
    "SweepPointError",
    "make_spec",
    "run_sweep",
    "run_named_sweep",
    "sweep_values",
    "resolve_workers",
]
