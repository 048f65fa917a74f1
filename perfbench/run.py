#!/usr/bin/env python3
"""Benchmark of the page-cache simulator and its simulation service.

Usage, from the repository root::

    python3 perfbench/run.py --workload exp7-replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload repeats for ``--seconds`` seconds and each timing is the median
over the repetitions.  ``--trace 1`` runs the workload once untraced and
once traced and reports the per-layer metrics (see ``layers.py``).  Either
way the simulated outputs are checked (see ``workloads.py``).

The metric names and units are those of ``BENCHMARK.json``.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the calibration spin time and the machine context, is written to
``perfbench/out/`` (git-ignored).  The exit code is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUP_SAMPLES = 25
#: Iterations of the calibration spin timed before and after every
#: repetition.
SPIN_ITERATIONS = 500_000
#: Host seconds of that spin on the reference machine (one core of an
#: idle 2-vCPU Xeon VM); timings are reported at its speed.
REF_SPIN_S = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def spin_seconds() -> float:
    """Host seconds of one short calibration spin (``reference_workload``)."""
    from test_bench_reference import reference_workload

    start = time.perf_counter()
    reference_workload(SPIN_ITERATIONS)
    return time.perf_counter() - start


def measure(workload, seconds: float):
    """Repeat set-up + timed run for ``seconds``.

    Returns the repetitions, their set-up times and the calibration spins
    timed just before and just after each repetition.  A repetition
    starts only if the previous one's length still fits the budget, so a
    run takes about ``seconds`` whatever the workload.
    """
    from layers import Clock

    workload.discard(workload.setup())  # lazy imports on the build path
    reps, setup_times, spins = [], [], []
    started = time.perf_counter()
    last = 0.0
    while not reps or time.perf_counter() - started + last <= seconds:
        gc.collect()
        rep_start = time.perf_counter()
        before = spin_seconds()
        setup_start = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - setup_start)
        reps.append(workload.run(state, Clock()))
        del state
        spins += [before, spin_seconds()]
        last = time.perf_counter() - rep_start
    while len(setup_times) < MIN_SETUP_SAMPLES:
        start = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - start)
        workload.discard(state)
    return reps, setup_times, spins


def measure_traced(workload):
    """One untraced and one traced repetition; return reps, metrics, failures."""
    from layers import Clock, LayerTrace

    workload.discard(workload.setup())
    untraced = workload.run(workload.setup(), Clock())
    gc.collect()
    with LayerTrace(cpu_time=workload.threaded) as layer_trace:
        traced = workload.run(workload.setup(), Clock(layer_trace.profile))
    metrics = layer_trace.layer_metrics(untraced.wall, traced.wall)
    failures = [f"tracing left {name} wrapped"
                for name in layer_trace.unrestored()]
    if workload.deterministic and traced.outputs != untraced.outputs:
        failures.append("traced outputs differ from untraced outputs")
    return [untraced, traced], metrics, failures


def calibration() -> dict:
    """Machine context, so numbers from different machines can be compared."""
    from test_bench_reference import reference_workload

    start = time.perf_counter()
    reference_workload()
    return {
        "reference_workload_s": time.perf_counter() - start,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Run every workload in its own process; non-zero if any fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in spec["workloads"]:
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], check=False)
        if child.returncode != 0:
            print(f"{workload['name']}: exit code {child.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.dont_write_bytecode = True  # write nothing outside perfbench/out
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    context = calibration()
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        reps, values, failures = measure_traced(workload)
        declared = spec["per_layer"]
        samples = "one untraced and one traced repetition"
    else:
        reps, setup_times, spins = measure(workload, args.seconds)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6)
        # Other tenants of a shared host slow the simulator and the spin
        # alike, so timings scaled to the reference spin drift less between
        # runs than raw seconds (see README.md).
        scale = (REF_SPIN_S / statistics.median(spins)
                 if workload.calibrated else 1.0)
        values = {
            "wall_s": scale * statistics.median(rep.wall for rep in reps),
            "setup_s": scale * statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        failures = []
        declared = spec["end_to_end"]
        samples = (f"{len(reps)} repetitions, {len(setup_times)} set-ups")

    failed_checks = 0
    for rep in reps:
        found = workload.check(rep)
        failures += found
        failed_checks += bool(found)
    attempted = sum(rep.attempted for rep in reps) + len(reps)
    failed = sum(rep.failed for rep in reps) + failed_checks
    if not args.trace:
        values["completed_pct"] = 100.0 * (attempted - failed) / attempted
    correct = not failures and failed == 0
    if set(values) != {metric["name"] for metric in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match "
                         "BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    cells = {}
    if not args.trace:
        cells["raw_wall_s"] = (statistics.median(rep.wall for rep in reps),
                               "s", f"median of {len(reps)}, not calibrated")
        cells["raw_setup_s"] = (statistics.median(setup_times), "s",
                                f"median of {len(setup_times)}, not calibrated")
        cells["spin_s"] = (statistics.median(spins), "s",
                           f"median of {len(spins)}; {REF_SPIN_S} s on the "
                           "reference machine")
        cells.update(workload.summary())

    print(f"workload {workload.name}, seed {args.seed} "
          f"(inputs: {workload.input_key}), {samples}")
    print("calibration: reference_workload "
          f"{context['reference_workload_s']:.4f} s, nproc {context['nproc']}, "
          f"Python {context['python']}")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    for name, (value, unit, note) in cells.items():
        print(f"  {name:<26} {value:>14.6g} {unit}  ({note})")
    for failure in failures:
        print(f"FAILED CHECK: {failure}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed,
        "inputs": workload.input_key, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "context": context,
        "metrics": metrics,
        "cells": {name: {"value": value, "unit": unit, "note": note}
                  for name, (value, unit, note) in cells.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures,
    }
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
