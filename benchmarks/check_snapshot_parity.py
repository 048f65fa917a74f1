#!/usr/bin/env python
"""CI gate: snapshot/restore parity and snapshot-file determinism.

Runs one small case of every registered batch experiment (every name in
``repro.snapshot.recipe.EXPERIMENTS`` but the service's base cluster,
which ``check_service_recovery.py`` gates) two ways and demands
byte-identical canonical result JSON:

1. **Uninterrupted** — build, run to completion.
2. **Interrupted** — build, step to ``t = T``, snapshot to disk, then
   restore the snapshot *in a fresh Python process* (so nothing survives
   but the file) and run that restored simulation to completion.

Also writes each snapshot twice from independently built simulations and
asserts the two files are byte-for-byte identical — the snapshot format
itself must be deterministic, or resumed sweeps could not be audited.

Usage::

    PYTHONPATH=src python benchmarks/check_snapshot_parity.py

Exit status 0 on parity, 1 on any divergence.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.units import GB

#: One case per registered batch experiment: its parameters and a snapshot
#: time T that lands mid-run (jobs queued, transfers in flight, cache
#: warm), small enough to finish in seconds.
CASES = {
    "exp1": (dict(simulator="wrench-cache", file_size=2 * GB,
                  trace_interval=1.0), 3.0),
    "exp2": (dict(simulator="wrench-cache", n_apps=8, input_size=3 * GB),
             20.0),
    "exp4": (dict(simulator="wrench-cache"), 60.0),
    "exp6": (dict(placement="cache", n_jobs=40), 8.0),
    "exp7": (dict(policy="preemptive-priority", load_factor=40.0), 10.0),
    "exp9": (dict(workload="exp6", mtbf=15.0, mttr=3.0, n_jobs=20,
                  n_nodes=3, n_datasets=6), 8.0),
}


def finished_point_json(simulation) -> str:
    """Run ``simulation`` to completion and canonicalize its point."""
    from repro.snapshot import canonical_json, finish_point

    result = simulation.run()
    return canonical_json(finish_point(simulation.recipe, result))


def child_restore(path: str) -> None:
    """Fresh-process half: restore the snapshot, finish, print the JSON."""
    from repro.snapshot import restore_simulation

    simulation = restore_simulation(Path(path))
    sys.stdout.write(finished_point_json(simulation))


def snapshot_at(name: str, params: dict, t: float, path: Path) -> Path:
    from repro.snapshot import build_experiment, write_snapshot

    simulation = build_experiment(name, **params)
    simulation.step_until(t)
    if simulation.completed:
        raise SystemExit(f"FAIL: {name} finished before t={t}")
    return write_snapshot(simulation, path)


def check(name: str, params: dict, t: float, tmp_path: Path) -> bool:
    """Parity and file determinism of one case; prints what it checks."""
    from repro.snapshot import build_experiment

    print(f"{name} {params}: uninterrupted run ...")
    reference = finished_point_json(build_experiment(name, **params))

    print(f"  snapshot at t={t}, restore in a fresh process ...")
    snapshot = snapshot_at(name, params, t, tmp_path / f"{name}.json")
    proc = subprocess.run(
        [sys.executable, __file__, "--restore", str(snapshot)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"FAIL: {name} restore process crashed", file=sys.stderr)
        return False
    if proc.stdout != reference:
        print(f"FAIL: {name} restored run diverged from the uninterrupted "
              "run", file=sys.stderr)
        print(f"  reference: {reference[:200]}...", file=sys.stderr)
        print(f"  restored:  {proc.stdout[:200]}...", file=sys.stderr)
        return False
    print(f"  parity OK ({len(reference)} canonical bytes)")

    first = snapshot.read_bytes()
    again = snapshot_at(name, params, t, tmp_path / f"{name}-again.json")
    if first != again.read_bytes():
        print(f"FAIL: {name}: two snapshots of the same run differ "
              "byte-wise", file=sys.stderr)
        return False
    print(f"  determinism OK ({len(first)} snapshot bytes)")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restore", metavar="SNAPSHOT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.restore:
        child_restore(args.restore)
        return 0

    from repro.snapshot import EXPERIMENTS

    registered = set(EXPERIMENTS) - {"service-cluster"}
    if set(CASES) != registered:
        print(f"FAIL: cases {sorted(CASES)} do not cover the registered "
              f"batch experiments {sorted(registered)}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name, (params, t) in CASES.items():
            if not check(name, params, t, Path(tmp)):
                return 1

    print(f"snapshot parity: all checks passed ({len(CASES)} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
