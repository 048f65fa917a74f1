"""Snapshot/restore of full simulator state.

Deterministic snapshots of a live simulation (``write_snapshot`` /
``restore_simulation``), warm-start branching of scheduler variants off
one restore (``warm_start_values``), and fixed-interval ``SnapshotPlan``s
for the service's opt-in audit snapshots.  The invariant throughout: a
run snapshotted at ``t=T`` and restored produces byte-identical results to
the uninterrupted run.  A restore rebuilds from the recipe and replays
from t=0, so it is a verified branch point, not a faster recovery.
"""

from repro.snapshot.canonical import (
    NONDETERMINISTIC_FIELDS,
    canonical_json,
    fingerprint,
    to_jsonable,
)
from repro.snapshot.capture import capture_state
from repro.snapshot.plan import SnapshotPlan
from repro.snapshot.recipe import (
    EXPERIMENTS,
    SimRecipe,
    build_experiment,
    build_from_recipe,
    finish_point,
    run_experiment,
)
from repro.snapshot.run import (
    LIVE_OVERRIDES,
    apply_live_overrides,
    restore_simulation,
    warm_start_values,
    write_snapshot,
)
from repro.snapshot.store import (
    FORMAT,
    VERSION,
    read_snapshot_doc,
    write_snapshot_doc,
)

__all__ = [
    "EXPERIMENTS",
    "FORMAT",
    "LIVE_OVERRIDES",
    "NONDETERMINISTIC_FIELDS",
    "SimRecipe",
    "SnapshotPlan",
    "VERSION",
    "apply_live_overrides",
    "build_experiment",
    "build_from_recipe",
    "canonical_json",
    "capture_state",
    "fingerprint",
    "finish_point",
    "read_snapshot_doc",
    "restore_simulation",
    "run_experiment",
    "to_jsonable",
    "warm_start_values",
    "write_snapshot",
    "write_snapshot_doc",
]
