"""The benchmark's four workloads.

Each workload has the same shape: ``setup()`` builds the simulation (or
starts the service) and is timed as ``setup_s``; ``run(state, clock)``
does the timed part inside ``with clock:`` segments and returns a
:class:`Rep`; ``check(rep)`` compares the simulated outputs with the
values recorded in ``expected.json`` (or, for the service, with an
offline replay of its own log) and returns the mismatches.

Why these four: each loads a different mix of layers, so a change to one
layer shows on the workload that exercises it and should not move the
workload that bypasses it.

* ``exp7-replay`` — cache-, flow- and DES-heavy cluster replay with
  writeback; the scheduler is under 1% of it.  Takes no seed.
* ``concurrent-io`` — 32 concurrent apps on one node, 32 flows per
  channel; local disk (writeback) then NFS (writethrough).  No scheduler.
  Takes no seed.
* ``sched-dispatch`` — 4000 short jobs under EASY backfill with
  cache-locality placement and small I/O: scheduler and DES heavy, page
  cache light.  The seed picks one of :data:`SCHED_INPUT_SETS` recorded
  job streams.
* ``service-stream`` — the simulation service with its default snapshot
  plan, fed by one closed-loop client; the only workload that runs the
  submission log, admission and periodic snapshots.  The seed drives the
  client's job specs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from test_bench_hotpath import EXP7_N_JOBS, EXP7_N_NODES, tiled_trace

from repro.errors import ServiceError
from repro.experiments.exp2_concurrent import build_exp2
from repro.experiments.exp6_cluster import build_exp6
from repro.experiments.exp7_trace_replay import build_exp7
from repro.service import (
    ServiceConfig,
    SimulationService,
    SubmissionLog,
    canonical_result,
    replay_result,
)
from repro.snapshot import SimRecipe
from repro.units import GB, MB

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"
#: Scratch space for service data directories (git-ignored).
WORK_DIR = HERE / "out" / "work"
#: Relative tolerance of the output checks: loose enough for a change of
#: float rounding, far too tight for a change of behaviour.
REL_TOL = 1e-6
#: Number of recorded sched-dispatch job streams; ``--seed`` picks one.
SCHED_INPUT_SETS = 32


@dataclass
class Rep:
    """One repetition: the timed seconds and what the simulation produced."""

    wall: float
    outputs: Dict
    attempted: int
    failed: int = 0


def load_expected() -> Dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def mismatches(expected, actual, path: str = "") -> List[str]:
    """Differences between recorded and simulated outputs."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(set(expected) ^ set(actual))} differ"]
        found = []
        for key in expected:
            found += mismatches(expected[key], actual[key], f"{path}.{key}")
        return found
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if expected == actual else [f"{path}: {actual} != {expected}"]
    if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-12):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


class BatchWorkload:
    """A simulation built in set-up and run to completion in the timed part.

    Its outputs are checked against ``expected.json[name][input_key]``.
    """

    name = ""
    deterministic = True
    threaded = False
    #: Report timings scaled to the reference spin (see run.py).
    calibrated = True
    input_key = "paper"

    def discard(self, state) -> None:
        pass

    def expected_outputs(self, rep: Rep) -> Dict:
        return rep.outputs

    def check(self, rep: Rep) -> List[str]:
        expected = load_expected()[self.name][self.input_key]
        return mismatches(expected, self.expected_outputs(rep), self.name)

    def summary(self) -> Dict[str, tuple]:
        return {}


class ClusterWorkload(BatchWorkload):
    """A batch workload on a scheduled cluster of ``n_jobs`` jobs."""

    n_jobs = 0

    def run(self, sim, clock) -> Rep:
        with clock:
            result = sim.run()
        metrics = result.scheduler
        return Rep(
            wall=clock.seconds,
            outputs={
                "makespan": metrics.makespan,
                "jobs_completed": metrics.n_jobs,
                "hit_ratio": result.read_cache_hit_ratio(),
                "mean_wait": metrics.mean_wait_time,
                "preemptions": metrics.n_preemptions,
            },
            attempted=self.n_jobs,
            failed=self.n_jobs - metrics.n_jobs,
        )


class Exp7Replay(ClusterWorkload):
    """Exp 7 preemptive-priority replay at paper scale (run_exp7_paper)."""

    name = "exp7-replay"
    n_jobs = EXP7_N_JOBS

    def __init__(self, seed: int):
        pass

    def setup(self):
        # The parameters of benchmarks/test_bench_hotpath.py::run_exp7_paper.
        return build_exp7(
            "preemptive-priority",
            trace=tiled_trace(),
            max_jobs=EXP7_N_JOBS,
            n_nodes=EXP7_N_NODES,
            load_factor=120.0,
            dataset_size=2 * GB,
            output_size=2 * GB,
            chunk_size=4 * MB,
        )


class SchedDispatch(ClusterWorkload):
    """Exp 6 under EASY backfill + cache placement: 4000 short jobs."""

    name = "sched-dispatch"
    n_jobs = 4000

    def __init__(self, seed: int):
        self.input_seed = seed % SCHED_INPUT_SETS
        self.input_key = str(self.input_seed)

    def setup(self):
        # run_sched_dispatch's parameters, scaled from 400 to 4000 jobs.
        return build_exp6(
            "cache",
            policy="easy",
            n_jobs=self.n_jobs,
            n_nodes=32,
            n_datasets=48,
            cores_per_node=8,
            input_size=64 * MB,
            output_size=16 * MB,
            arrival_rate=12.0,
            chunk_size=16 * MB,
            seed=self.input_seed,
        )


class ConcurrentIO(BatchWorkload):
    """Exp 2/3/5: 32 concurrent apps, 3 GB files, 10 MB chunks, local + NFS."""

    name = "concurrent-io"
    N_APPS = 32
    HALVES = (("local", False), ("nfs", True))

    def __init__(self, seed: int):
        self._model_error = None

    def _build(self, simulator: str, nfs: bool):
        return build_exp2(simulator, self.N_APPS, input_size=3 * GB,
                          chunk_size=10 * MB, nfs=nfs)

    def setup(self):
        return {half: self._build("wrench-cache", nfs)
                for half, nfs in self.HALVES}

    @staticmethod
    def outputs_of(result) -> Dict:
        apps = sorted({record.app for record in result.operations})
        return {
            "makespan": result.makespan,
            "apps_completed": len(result.app_makespans),
            "hit_ratio": result.read_cache_hit_ratio(),
            "read_s": {app: result.total_read_time(app) for app in apps},
            "write_s": {app: result.total_write_time(app) for app in apps},
        }

    def run(self, sims, clock) -> Rep:
        outputs = {}
        failed = 0
        for half, sim in sims.items():
            with clock:
                result = sim.run()
            outputs[half] = self.outputs_of(result)
            failed += self.N_APPS - outputs[half]["apps_completed"]
        return Rep(wall=clock.seconds, outputs=outputs,
                   attempted=self.N_APPS * len(sims), failed=failed)

    def model_error_pct(self, outputs: Dict) -> float:
        """Mean |wrench-cache - real| / real over per-app read and write times.

        The reference simulator runs once per process, untimed, on the
        same inputs.
        """
        if self._model_error is None:
            errors = []
            for half, nfs in self.HALVES:
                reference = self.outputs_of(self._build("real", nfs).run())
                for kind in ("read_s", "write_s"):
                    for app, real in reference[kind].items():
                        errors.append(
                            abs(outputs[half][kind][app] - real) / real)
            self._model_error = 100.0 * statistics.fmean(errors)
        return self._model_error

    def expected_outputs(self, rep: Rep) -> Dict:
        return {**rep.outputs,
                "model_error_pct": self.model_error_pct(rep.outputs)}

    def summary(self) -> Dict[str, tuple]:
        if self._model_error is None:
            return {}
        return {"model_error_pct": (self._model_error, "%", "deterministic")}


class ServiceStream:
    """The simulation service as ``python -m repro.service`` serves it.

    ``ServiceConfig`` defaults: ``SnapshotPlan.fixed(2.0, keep=3)`` and an
    admission queue of 64.  One client thread submits Exp 6-shaped specs
    with tokens, one request in flight, and waits for each ack.  Then the
    service drains, and a copy of its data directory taken before the
    drain is recovered.  The timed part is submits + drain + recovery.
    """

    name = "service-stream"
    deterministic = False
    threaded = True
    #: Thread hand-offs and fsyncs set its pace, which the CPU spin does
    #: not track: scaling by the spin widened its run-to-run spread.
    calibrated = False
    N_SUBMITS = 240
    #: The cluster ``python -m repro.service`` serves by default.
    RECIPE = dict(n_nodes=4, cores_per_node=8, n_datasets=8,
                  policy="fifo", placement="cache")

    def __init__(self, seed: int):
        self.input_key = str(seed)
        # The seed shuffles one fixed set of job shapes (runtimes spread
        # over 2-6 s, 1-4 cores, datasets in turn), so every seed asks for
        # the same total work and seeds differ only in order and pairing.
        rng = random.Random(f"service-stream:{seed}")
        n = self.N_SUBMITS
        shapes = [(2.0 + 4.0 * (i + 0.5) / n, 1 + i % 4) for i in range(n)]
        datasets = [i % self.RECIPE["n_datasets"] for i in range(n)]
        rng.shuffle(shapes)
        rng.shuffle(datasets)
        self.specs = [
            {"label": f"job{i}", "dataset": datasets[i],
             "runtime": runtime, "cores": cores}
            for i, (runtime, cores) in enumerate(shapes)
        ]
        self.tokens = [f"{seed}-{i}" for i in range(self.N_SUBMITS)]
        self._dirs = 0
        self.latencies: List[float] = []
        self.phases: Dict[str, List[float]] = {"submit": [], "drain": [],
                                               "recovery": []}

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        path = WORK_DIR / f"svc-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> SimulationService:
        config = ServiceConfig(data_dir=self._fresh_dir(),
                               recipe=SimRecipe("service-cluster",
                                                dict(self.RECIPE)))
        return config.build_service().start()

    def discard(self, service: SimulationService) -> None:
        service.stop(timeout=60.0)
        shutil.rmtree(service.data_dir, ignore_errors=True)

    def run(self, service: SimulationService, clock) -> Rep:
        latencies = []
        failed = 0
        with clock:
            for spec, token in zip(self.specs, self.tokens):
                start = time.perf_counter()
                try:
                    service.submit(spec, token=token)
                except (ServiceError, TimeoutError):
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - start)
        submit_s = clock.last
        copy_dir = service.data_dir.with_name(service.data_dir.name + "-copy")
        copy_live_dir(service.data_dir, copy_dir)
        with clock:
            summary = service.drain(timeout=120.0)
        drain_s = clock.last
        service.join(timeout=60.0)
        with clock:
            recovered = SimulationService(copy_dir).start()
        recovery_s = clock.last
        recovered_submitted = recovered.metrics()["sim"]["submitted"]
        recovered.stop(timeout=120.0)
        acks = len(latencies)
        failed += acks - summary["jobs_completed"]
        self.latencies += latencies
        for phase, seconds in (("submit", submit_s), ("drain", drain_s),
                               ("recovery", recovery_s)):
            self.phases[phase].append(seconds)
        return Rep(
            wall=clock.seconds,
            outputs={"acks": acks,
                     "jobs_completed": summary["jobs_completed"],
                     "recovered_submitted": recovered_submitted,
                     "data_dir": str(service.data_dir)},
            attempted=self.N_SUBMITS,
            failed=failed,
        )

    def check(self, rep: Rep) -> List[str]:
        """Drained result == offline replay of the log; every ack completed."""
        data_dir = Path(rep.outputs["data_dir"])
        found = []
        if rep.outputs["jobs_completed"] != rep.outputs["acks"]:
            found.append(f"{self.name}: {rep.outputs['jobs_completed']} of "
                         f"{rep.outputs['acks']} acknowledged jobs completed")
        if rep.outputs["recovered_submitted"] != rep.outputs["acks"]:
            found.append(f"{self.name}: recovery saw "
                         f"{rep.outputs['recovered_submitted']} submissions")
        entries = SubmissionLog(data_dir / "submissions.log").entries()
        recipe = SimRecipe("service-cluster", dict(self.RECIPE))
        reference = canonical_result(replay_result(recipe, entries))
        drained = (data_dir / "result.json").read_text(encoding="utf-8")
        if drained != reference:
            found.append(f"{self.name}: drained result differs from the "
                         "replay of its log")
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(data_dir.with_name(data_dir.name + "-copy"),
                      ignore_errors=True)
        return found

    def summary(self) -> Dict[str, tuple]:
        """Service cells: medians over rounds, ack percentiles over acks."""
        acks = sorted(self.latencies)
        if not acks:
            return {}
        n = len(acks)
        cells = {
            "submit_rate": (n / sum(self.phases["submit"]), "1/s",
                            f"{n} acks"),
            "ack_p50_ms": (1e3 * statistics.median(acks), "ms", f"n={n}"),
            "ack_p95_ms": (1e3 * statistics.quantiles(acks, n=20)[-1], "ms",
                           f"n={n}"),
        }
        for phase in ("drain", "recovery"):
            values = self.phases[phase]
            cells[f"{phase}_s"] = (statistics.median(values), "s",
                                   f"median of {len(values)}")
        return cells


def copy_live_dir(source: Path, target: Path) -> None:
    """Copy a running service's data directory.

    The worker may rotate snapshots while the copy runs; a file that
    vanishes is skipped, and a half-written ``.tmp`` file is ignored by
    recovery, so the copy is a state the service really was in.
    """
    for root, _dirs, files in os.walk(source):
        destination = target / Path(root).relative_to(source)
        destination.mkdir(parents=True, exist_ok=True)
        for name in files:
            try:
                shutil.copy2(Path(root) / name, destination / name)
            except FileNotFoundError:
                pass


WORKLOADS = {cls.name: cls for cls in
             (Exp7Replay, ConcurrentIO, SchedDispatch, ServiceStream)}
