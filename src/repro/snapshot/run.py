"""Snapshot, restore and warm starts of simulations.

The snapshot contract, end to end:

1. a run paused with :meth:`Simulation.step_until` is written with
   :func:`write_snapshot` — the file stores the build recipe, the
   simulated time ``T`` and a fingerprint of the captured state;
2. :func:`restore_simulation` rebuilds the simulation from the recipe,
   *replays* it to ``T`` (generators cannot be pickled, but the simulator
   is deterministic — replay reaches the exact same state) and verifies
   the replayed fingerprint against the stored one;
3. the restored simulation continues exactly as the original would have:
   a run snapshotted at ``T`` and restored produces byte-identical results
   to the uninterrupted run.

Because a restore replays from t=0, it costs as much as running to ``T``
again; a snapshot is a verified branch point, not a shortcut.  That is
what :func:`warm_start_values` exploits: it replays once and forks N
scheduler variants off the live replayed state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.errors import SnapshotError, SnapshotIntegrityError
from repro.snapshot.canonical import fingerprint, to_jsonable
from repro.snapshot.capture import capture_state
from repro.snapshot.recipe import SimRecipe, build_from_recipe
from repro.snapshot.store import (
    FORMAT,
    VERSION,
    read_snapshot_doc,
    write_snapshot_doc,
)


def write_snapshot(sim, path: Union[str, Path]) -> Path:
    """Snapshot ``sim`` (paused at a :meth:`step_until` boundary) to ``path``.

    Requires a recipe-bound (see :meth:`Simulation.bind_recipe`), started
    simulation: the snapshot records *how to rebuild* the simulation plus
    a fingerprint of its current state, so an unbuildable or unstarted
    simulation cannot be meaningfully snapshotted.
    """
    recipe = sim.recipe
    if recipe is None:
        raise SnapshotError(
            "this simulation has no build recipe bound; construct it via an "
            "experiment builder (build_exp2/build_exp6/build_exp7) or call "
            "bind_recipe() before snapshotting"
        )
    if not sim._started:
        raise SnapshotError(
            "snapshot a simulation only after it has started; advance it "
            "with step_until(t) first"
        )
    state = to_jsonable(capture_state(sim))
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "t": sim.env.now,
        "experiment": recipe.experiment,
        "params": recipe.encoded()["params"],
        "fingerprint": fingerprint(state),
        "state": state,
    }
    return write_snapshot_doc(doc, path)


def restore_simulation(path: Union[str, Path], *, verify: bool = True,
                       overrides: Optional[dict] = None):
    """Rebuild the snapshotted simulation and replay it to snapshot time.

    With ``verify=True`` (the default) the replayed state's fingerprint is
    checked against the one stored in the file;
    :class:`~repro.errors.SnapshotIntegrityError` is raised on mismatch.
    The returned simulation is paused at the snapshot time — continue it
    with :meth:`step_until` / :meth:`run`.

    ``overrides`` merges into the embedded recipe's parameters before the
    rebuild (warm-start sweeps: N variants branch off one snapshot).  An
    overridden restore replays *the variant's own* history from t=0 to the
    snapshot time, so the stored fingerprint cannot apply and verification
    is skipped.  For overrides that can be applied to the *live* restored
    state without rebuilding (scheduler policy/placement), prefer
    :func:`warm_start_values`, which also amortizes a single verified
    replay across all variants.
    """
    path = Path(path)
    doc = read_snapshot_doc(path)
    recipe = SimRecipe.decode(doc)
    if overrides:
        recipe = SimRecipe(recipe.experiment,
                           {**recipe.params, **overrides})
        verify = False
    sim = build_from_recipe(recipe)
    sim.step_until(doc["t"])
    if verify:
        replayed = fingerprint(to_jsonable(capture_state(sim)))
        if replayed != doc["fingerprint"]:
            raise SnapshotIntegrityError(
                f"restored state does not match snapshot {path}: replay "
                f"fingerprint {replayed} != stored {doc['fingerprint']} "
                "(corrupt file, different code version, or lost determinism)"
            )
    return sim


# ------------------------------------------------------------- warm starts
#: Recipe parameters that can be swapped on a *live* (already replayed)
#: simulation without rebuilding it.  Maps parameter name to an applier.
def _apply_policy(sim, value):
    from repro.scheduler.policies import make_policy

    sim.scheduler.policy = make_policy(value)


def _apply_placement(sim, value):
    from repro.scheduler.placement import make_placement

    sim.scheduler.placement = make_placement(value)


LIVE_OVERRIDES = {
    "policy": _apply_policy,
    "placement": _apply_placement,
}


def apply_live_overrides(sim, overrides: dict) -> None:
    """Apply ``overrides`` to a live simulation (no rebuild, no replay).

    Only parameters whose effect is forward-looking can be swapped on a
    running simulation — currently the scheduler's ``policy`` and
    ``placement``.  Anything else (workload shape, platform size, cache
    configuration) is baked into the simulated history and raises.
    """
    if getattr(sim, "scheduler", None) is None and overrides:
        raise SnapshotError(
            "live overrides require a cluster scheduler; this snapshot "
            "has none"
        )
    for key, value in overrides.items():
        applier = LIVE_OVERRIDES.get(key)
        if applier is None:
            raise SnapshotError(
                f"parameter {key!r} cannot be applied to a live simulation "
                f"(supported: {sorted(LIVE_OVERRIDES)}); use "
                "restore_simulation(path, overrides=...) to rebuild the "
                "variant from scratch instead"
            )
        applier(sim, value)


def warm_start_values(path: Union[str, Path], variants, *,
                      finish=None, verify: bool = True) -> list:
    """Branch N live-override variants off one snapshot; return their values.

    Restores (replays + optionally verifies) the snapshot **once**, then
    runs each variant in a forked child process sharing that replayed
    state copy-on-write: warm cost is one replay plus N tails, against N
    full runs for cold starts.  Each ``variants[i]`` is a dict of live
    overrides (see :data:`LIVE_OVERRIDES`); ``finish`` maps
    ``(recipe, result)`` to the value returned per variant (default: the
    raw :class:`~repro.simulator.simulation.SimulationResult`, which must
    then be picklable).

    On platforms without ``os.fork`` each variant falls back to its own
    restore (correct, but no warm-start savings).
    """
    import os
    import pickle

    variants = list(variants)
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX fallback
        values = []
        for overrides in variants:
            sim = restore_simulation(path, verify=verify)
            apply_live_overrides(sim, overrides)
            result = sim.run()
            values.append(finish(sim.recipe, result) if finish else result)
        return values

    template = restore_simulation(path, verify=verify)
    recipe = template.recipe
    values = []
    for overrides in variants:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: the template is pristine (the parent never advances
            # it), so apply the variant's overrides and run the tail.
            status = 1
            try:
                os.close(read_fd)
                apply_live_overrides(template, overrides)
                result = template.run()
                value = finish(recipe, result) if finish else result
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(("ok", value), pipe)
                status = 0
            except BaseException as exc:  # noqa: BLE001 - crosses processes
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(("error", repr(exc)), pipe)
                except Exception:
                    pass
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, exit_status = os.waitpid(pid, 0)
        if not payload:
            raise SnapshotError(
                f"warm-start variant {overrides!r} died without reporting "
                f"a value (wait status {exit_status})"
            )
        kind, value = pickle.loads(payload)
        if kind != "ok":
            raise SnapshotError(
                f"warm-start variant {overrides!r} failed: {value}"
            )
        values.append(value)
    return values
