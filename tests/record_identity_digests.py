"""Regenerate the full-result identity digests (``tests/data/identity_digests.json``).

Run from the repo root against a *known-good* tree::

    PYTHONPATH=src:tests python tests/record_identity_digests.py

Each case builds one simulation, runs it to completion and records the
SHA-256 of ``canonical_json(result)`` with the number of event ids the
run issued (``next(sim.env._eid)``).  ``tests/test_identity_digests.py``
recomputes them, so a refactor that moves any simulated field, or the
event count of any case, fails tier-1.  The cases run in a child
interpreter under a fixed ``PYTHONHASHSEED``, so the digests do not
depend on the hash seed of the process that checks them.  Only
regenerate the file on purpose, when a change of behaviour is meant.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

from repro import GB, Simulation, SimulationConfig
from repro.apps.synthetic import synthetic_workflow
from repro.snapshot import build_experiment, canonical_json

#: The golden file, and the hash seed its digests are recorded under.
DIGESTS = Path(__file__).parent / "data" / "identity_digests.json"
HASH_SEED = "0"


def readme_quickstart() -> Simulation:
    """The README quickstart: one 3 GB synthetic app, writeback cache."""
    sim = Simulation(config=SimulationConfig(cache_mode="writeback"))
    sim.create_cluster_platform(1, with_nfs_server=False)
    svc = sim.create_storage_service("node1", "/local")
    app = synthetic_workflow(input_size=3 * GB)
    sim.stage_file(app.input_files()[0], svc)
    sim.submit_workflow(app, host="node1", storage=svc)
    return sim


#: Case name -> builder of the unstarted simulation.
CASES = {
    "readme-quickstart": readme_quickstart,
    "exp1-wrench-cache-20gb": partial(
        build_experiment, "exp1", simulator="wrench-cache",
        file_size=20 * GB),
    "exp1-real-20gb": partial(
        build_experiment, "exp1", simulator="real", file_size=20 * GB),
    "exp2-local-8": partial(
        build_experiment, "exp2", simulator="wrench-cache", n_apps=8),
    "exp2-nfs-8": partial(
        build_experiment, "exp2", simulator="wrench-cache", n_apps=8,
        nfs=True),
    "exp2-local-32": partial(
        build_experiment, "exp2", simulator="wrench-cache", n_apps=32),
    "exp4": partial(build_experiment, "exp4", simulator="wrench-cache"),
    "exp6-60-jobs-4-nodes": partial(
        build_experiment, "exp6", n_jobs=60, n_nodes=4),
    "exp7-120-jobs": partial(build_experiment, "exp7", max_jobs=120),
    "exp9-exp6-cell": partial(
        build_experiment, "exp9", workload="exp6", mtbf=15.0, mttr=3.0,
        fault_seed=1, n_jobs=20, n_nodes=3, n_datasets=6),
}


def identity(build) -> dict:
    """Run ``build()``'s simulation; its result digest and event ids."""
    sim = build()
    result = sim.run()
    digest = hashlib.sha256(canonical_json(result).encode("utf-8"))
    return {"sha256": digest.hexdigest(), "event_ids": next(sim.env._eid)}


def collect(hash_seed: str = HASH_SEED) -> dict:
    """Every case's identity, computed in a child interpreter run under
    ``PYTHONHASHSEED=hash_seed``."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(here.parent / "src"), str(here),
                    os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--print"], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    if sys.argv[1:] == ["--print"]:
        print(json.dumps({name: identity(build)
                          for name, build in CASES.items()}))
        return
    digests = collect()
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps({"hash_seed": HASH_SEED, "cases": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} identity digests -> {DIGESTS}")


if __name__ == "__main__":
    main()
