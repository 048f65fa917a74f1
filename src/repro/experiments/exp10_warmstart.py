"""Exp 10 — warm-start sweeps: N variants branched off one snapshot.

The checkpoint/restore machinery (PR 9) replays a simulation back to a
snapshot boundary; this experiment measures what that buys a *sweep*.  A
shared Exp 6-shaped cluster prefix runs once to a branch time, a snapshot
pins it, and then a grid of scheduler variants (policy × placement — the
parameters that can be swapped on a live simulation, see
:data:`~repro.snapshot.run.LIVE_OVERRIDES`) continues from the branch
point under each variant:

cold
    every variant restores the snapshot itself — build + replay the
    prefix, swap the scheduler, run the tail.  N variants pay N full
    prefix replays.
warm
    :func:`~repro.snapshot.run.warm_start_values` restores (and verifies)
    the prefix **once**, then forks one child per variant off the live
    replayed state: one prefix replay plus N tails.

Both paths run the *identical* simulation per variant, so the per-variant
metrics must agree exactly — the experiment asserts that before reporting
the wall-clock ratio.  The expected speedup approaches
``(prefix + tail) / (prefix/N + tail)`` as the prefix dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.exp6_cluster import ClusterPoint
from repro.snapshot import (
    apply_live_overrides,
    build_experiment,
    finish_point,
    restore_simulation,
    warm_start_values,
    write_snapshot,
)

#: Scheduler variants of the default grid (policy × placement).
EXP10_POLICIES: Tuple[str, ...] = ("fifo", "sjf")
EXP10_PLACEMENTS: Tuple[str, ...] = ("round-robin", "least-loaded", "cache")

#: Default scale: a long shared prefix (most arrivals land before the
#: branch) makes the warm/cold contrast visible — at this scale the warm
#: path wins by ~3x over six variants.
DEFAULT_N_JOBS = 150
DEFAULT_T_BRANCH = 50.0


@dataclass(frozen=True)
class Exp10Result:
    """The warm-start cell: per-variant points plus the cost comparison."""

    points: Dict[Tuple[str, str], ClusterPoint]
    t_branch: float
    cold_seconds: float
    warm_seconds: float

    @property
    def speedup(self) -> float:
        """Cold wall-clock over warm wall-clock (> 1 means warm wins)."""
        if self.warm_seconds <= 0.0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds


def snapshot_branch_point(directory: Union[str, Path], *,
                          t_branch: float = DEFAULT_T_BRANCH,
                          n_jobs: int = DEFAULT_N_JOBS,
                          **params) -> Path:
    """Run the shared Exp 6 prefix to ``t_branch`` and snapshot it.

    ``params`` are forwarded to :func:`~repro.experiments.exp6_cluster.
    build_exp6`; the snapshot embeds them in its recipe, so every restore
    (cold or warm) rebuilds the identical prefix.
    """
    if t_branch <= 0.0:
        raise ConfigurationError(
            f"t_branch must be positive, got {t_branch}"
        )
    simulation = build_experiment("exp6", n_jobs=n_jobs, **params)
    simulation.step_until(t_branch)
    path = Path(directory) / "exp10-branch.json"
    return write_snapshot(simulation, path)


def _variant_grid(policies: Sequence[str],
                  placements: Sequence[str]) -> List[dict]:
    return [
        {"policy": policy, "placement": placement}
        for policy in policies
        for placement in placements
    ]


def run_exp10(snapshot_dir: Union[str, Path], *,
              policies: Sequence[str] = EXP10_POLICIES,
              placements: Sequence[str] = EXP10_PLACEMENTS,
              t_branch: float = DEFAULT_T_BRANCH,
              n_jobs: int = DEFAULT_N_JOBS,
              check: bool = True,
              **params) -> Exp10Result:
    """Run the warm-start cell: snapshot once, branch the variant grid.

    Times the cold path (every variant restores the snapshot itself) and
    the warm path (:func:`warm_start_values`: one verified restore, one
    fork per variant), and — with ``check=True`` — asserts both paths
    produce identical per-variant metrics before reporting the ratio.
    """
    variants = _variant_grid(policies, placements)
    if not variants:
        raise ConfigurationError("exp10 needs at least one variant")
    path = snapshot_branch_point(snapshot_dir, t_branch=t_branch,
                                 n_jobs=n_jobs, **params)

    start = time.perf_counter()
    cold_points = []
    for overrides in variants:
        simulation = restore_simulation(path, verify=False)
        apply_live_overrides(simulation, overrides)
        result = simulation.run()
        cold_points.append(finish_point(simulation.recipe, result))
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm_points = warm_start_values(path, variants, finish=finish_point)
    warm_seconds = time.perf_counter() - start

    points: Dict[Tuple[str, str], ClusterPoint] = {}
    for overrides, cold, warm in zip(variants, cold_points, warm_points):
        # The recipe carries the *template's* scheduler parameters; stamp
        # the variant's own so the report rows are labelled correctly.
        warm = replace(warm, policy=overrides["policy"],
                       placement=overrides["placement"])
        if check:
            cold = replace(cold, policy=overrides["policy"],
                           placement=overrides["placement"],
                           wallclock_time=warm.wallclock_time)
            if cold != warm:
                raise ConfigurationError(
                    f"warm-start variant {overrides!r} diverged from its "
                    f"cold restore: {warm} != {cold}"
                )
        points[(overrides["policy"], overrides["placement"])] = warm
    return Exp10Result(points=points, t_branch=t_branch,
                       cold_seconds=cold_seconds, warm_seconds=warm_seconds)


def exp10_report(result: Exp10Result, title: Optional[str] = None) -> str:
    """Render the warm-start cell as a plain-text table."""
    header = title or (
        f"Exp 10 — warm-start sweep off one snapshot (t_branch="
        f"{result.t_branch:g}s): cold {result.cold_seconds:.2f}s, "
        f"warm {result.warm_seconds:.2f}s, speedup {result.speedup:.2f}x"
    )
    rows = [
        (policy, placement, point.makespan, 100.0 * point.cache_hit_ratio,
         point.mean_wait_time)
        for (policy, placement), point in result.points.items()
    ]
    return format_table(
        ["Policy", "Placement", "Makespan (s)", "Cache hit (%)",
         "Mean wait (s)"],
        rows,
        title=header,
        precision=2,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """Run the default cell in a temp directory and print the table."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        result = run_exp10(directory)
    print(exp10_report(result))


if __name__ == "__main__":  # pragma: no cover
    main()
