#!/usr/bin/env python
"""Profile the simulator's hot paths so perf work starts from data.

Runs a chosen experiment workload under :mod:`cProfile` and prints the
top functions by cumulative and by self time — the two views that matter
when deciding what to optimise next (where the time *flows* vs where it
is *spent*).  Profiles can also be dumped to a file for ``snakeviz`` /
``pstats`` exploration.

Usage (from the repo root)::

    PYTHONPATH=src:benchmarks python benchmarks/profile_hotpaths.py exp5
    PYTHONPATH=src:benchmarks python benchmarks/profile_hotpaths.py exp7 --top 30
    PYTHONPATH=src:benchmarks python benchmarks/profile_hotpaths.py exp1 \
        --dump /tmp/exp1.prof

Workloads:

* ``exp1`` — single-application read/write sequence (Figure 4);
* ``exp5`` — the Exp 5 hot-path sweep (WRENCH-cache scaling curves);
* ``exp5-fine`` — the fine-chunk Exp 5 point (10x the cache blocks);
* ``exp7`` — the paper-scale SWF replay (400 jobs / 32 nodes);
* ``sched`` — the dispatch-heavy cluster workload (400 short jobs over
  32 nodes, EASY backfilling + cache-locality placement, small I/O): the
  workload where the ``wms``/``cluster`` scheduling layers — not the page
  cache — dominate, used to profile the dispatch path itself;
* ``pagecache`` — the cache core in isolation: sequential and strided
  (8-way interleaved) multi-gigabyte reads plus a writeback stream, all
  at fine chunk sizes, driving the Memory Manager / IO Controller with no
  scheduler on top.  Reports the extent-run occupancy and (by default)
  the tracemalloc peak alongside the cProfile hot lists, so a cache-core
  time or memory regression is diagnosable without a full experiment run.

Peak-memory reporting: ``--memory`` re-runs the workload under
``tracemalloc`` (separately from the cProfile pass, so neither skews the
other) and prints the peak traced allocation; it defaults to on for the
``pagecache`` workload and off elsewhere.

Telemetry overhead: ``--obs`` times the workload twice — telemetry off,
then on (``REPRO_OBS=1``) — and reports the enabled-vs-disabled slowdown.
``--obs-gate PCT`` turns the report into a check (non-zero exit above the
threshold), and ``--no-profile`` skips the cProfile pass so the timing
runs are the only work (the mode the CI overhead check uses).

Every workload also reports the extent-run occupancy of each page-cached
memory manager it touched (captured when the manager stops).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import os
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

# Allow running as a script from the repo root: the workload definitions
# live next to this file in benchmarks/.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _exp1():
    from repro.snapshot import run_experiment
    from repro.units import GB

    return lambda: run_experiment("exp1", simulator="wrench-cache",
                                  file_size=5 * GB)


def _exp5():
    from test_bench_hotpath import run_exp5_paper

    return run_exp5_paper


def _exp5_fine():
    from test_bench_hotpath import run_exp5_fine_chunks

    return run_exp5_fine_chunks


def _exp7():
    from test_bench_hotpath import run_exp7_paper

    return run_exp7_paper


def _sched():
    from test_bench_hotpath import run_sched_dispatch

    return run_sched_dispatch


def run_pagecache_workload(file_size=None, chunk_size=None, streams=8):
    """Drive the cache core directly: sequential + strided fine-chunk I/O.

    Three phases on one 16 GB host (no scheduler, no workflow layer):

    1. *sequential*: stream a multi-GB file in cold, then re-read it from
       cache — the single-stream regime where runs coalesce maximally;
    2. *strided*: ``streams`` concurrent readers each stream their own
       file, interleaving their chunks in LRU order — the concurrent
       regime that shreds a per-block cache into ``size / chunk`` nodes;
    3. *writeback*: the readers write private outputs, accumulating
       dirty data past the threshold so foreground flushing carves the
       dirty runs.

    Returns the memory manager so callers can inspect occupancy/stats.
    """
    from repro.des import Environment
    from repro.pagecache import IOController, MemoryManager, PageCacheConfig
    from repro.units import GB, MB, MBps
    from repro.platform.memory import MemoryDevice
    from repro.platform.storage import Disk

    from repro.obs import observer_from_env

    file_size = file_size or 2 * GB
    chunk_size = chunk_size or 4 * MB
    env = Environment()
    # No Simulation facade here, so honour REPRO_OBS directly: the --obs
    # timing pass toggles telemetry through the environment variable.
    observer_from_env(env)
    memory = MemoryDevice.symmetric(env, "ram", 2000 * MBps, size=16 * GB)
    disk = Disk.symmetric(env, "disk", 500 * MBps)
    mm = MemoryManager(env, memory, PageCacheConfig(chunk_size=chunk_size),
                       name="pagecache-profile")
    io = IOController(env, mm)

    def sequential():
        yield from io.read_file("seq", file_size, disk,
                                use_anonymous_memory=False)
        yield from io.read_file("seq", file_size, disk,
                                use_anonymous_memory=False)

    def strided(index):
        name = f"strided{index}"
        yield from io.read_file(name, file_size, disk,
                                use_anonymous_memory=False)
        yield from io.write_file(f"{name}.out", file_size, disk)

    def driver():
        yield env.process(sequential(), name="sequential")
        readers = [
            env.process(strided(index), name=f"strided{index}")
            for index in range(streams)
        ]
        for reader in readers:
            yield reader
        yield from mm.flush(mm.dirty)

    process = env.process(driver(), name="pagecache-driver")
    env.run(until=process)
    mm.stop()
    return mm


def _pagecache():
    from repro.pagecache.stats import ExtentOccupancy

    def run():
        mm = run_pagecache_workload()
        occupancy = ExtentOccupancy.of(mm.lists)
        print(
            f"[pagecache] hit ratio {100 * mm.stats.hit_ratio:.1f}%, "
            f"flushed {mm.stats.flushed_bytes / 1e9:.2f} GB, "
            f"occupancy: {occupancy.runs} runs / {occupancy.fragments} "
            f"fragments ({occupancy.fragments_per_run:.1f} frags/run, "
            f"{occupancy.merges} merges)"
        )
        return mm

    return run


WORKLOADS = {
    "exp1": _exp1,
    "exp5": _exp5,
    "exp5-fine": _exp5_fine,
    "exp7": _exp7,
    "sched": _sched,
    "pagecache": _pagecache,
}


@contextlib.contextmanager
def capture_occupancy():
    """Capture every memory manager's extent occupancy as it stops.

    Workloads build their platforms internally, so the capture hooks
    ``MemoryManager.stop`` (every run path stops its managers) instead of
    threading a reporting object through each workload's setup.
    """
    from repro.pagecache.memory_manager import MemoryManager
    from repro.pagecache.stats import ExtentOccupancy

    captured = {}
    original = MemoryManager.stop

    def stop(self):
        captured[self.name] = ExtentOccupancy.of(self.lists)
        return original(self)

    MemoryManager.stop = stop
    try:
        yield captured
    finally:
        MemoryManager.stop = original


def print_occupancy(captured) -> None:
    """Print the captured per-manager extent occupancies."""
    print("==== extent occupancy (at manager stop) ====")
    if not captured:
        print("no page-cached memory manager in this workload")
        return
    runs = sum(occ.runs for occ in captured.values())
    fragments = sum(occ.fragments for occ in captured.values())
    merges = sum(occ.merges for occ in captured.values())
    ratio = fragments / runs if runs else 0.0
    print(
        f"total over {len(captured)} manager(s): {runs} runs / "
        f"{fragments} fragments ({ratio:.1f} frags/run, {merges} merges)"
    )
    if len(captured) <= 8:
        for name in sorted(captured):
            occ = captured[name]
            print(
                f"  {name}: {occ.runs} runs / {occ.fragments} fragments "
                f"({occ.fragments_per_run:.1f} frags/run, "
                f"{occ.merges} merges)"
            )


@contextlib.contextmanager
def _obs_env(enabled: bool):
    """Set or clear ``REPRO_OBS`` for the duration of one timed run."""
    from repro.obs import OBS_ENV_VAR

    saved = os.environ.get(OBS_ENV_VAR)
    if enabled:
        os.environ[OBS_ENV_VAR] = "1"
    else:
        os.environ.pop(OBS_ENV_VAR, None)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(OBS_ENV_VAR, None)
        else:
            os.environ[OBS_ENV_VAR] = saved


def measure_obs_overhead(workload: str, repeats: int = 1):
    """Time the workload with telemetry off and on; best of ``repeats``.

    Returns ``(disabled_seconds, enabled_seconds, overhead_percent)``.
    The workload callable is rebuilt for every run so no state carries
    over between passes.
    """
    def best(enabled: bool) -> float:
        timings = []
        with _obs_env(enabled):
            for _ in range(max(1, repeats)):
                run = WORKLOADS[workload]()
                start = time.perf_counter()
                run()
                timings.append(time.perf_counter() - start)
        return min(timings)

    disabled = best(False)
    enabled = best(True)
    overhead = (enabled - disabled) / disabled * 100.0 if disabled > 0 else 0.0
    return disabled, enabled, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0]
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="experiment workload to profile")
    parser.add_argument("--top", type=int, default=20,
                        help="number of functions to print (default: %(default)s)")
    parser.add_argument("--filter", default=None, metavar="REGEX",
                        help="only print functions whose file/name matches "
                             "this regex (e.g. 'scheduler|wms' to isolate "
                             "the dispatch path)")
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write the raw profile to this file")
    parser.add_argument("--memory", action="store_true", default=None,
                        help="re-run the workload under tracemalloc and "
                             "report the peak traced allocation (default: "
                             "on for the pagecache workload)")
    parser.add_argument("--no-memory", dest="memory", action="store_false",
                        help="disable the tracemalloc pass")
    parser.add_argument("--obs", action="store_true",
                        help="time the workload with telemetry off and on "
                             "(REPRO_OBS=1) and report the overhead")
    parser.add_argument("--obs-gate", type=float, default=None, metavar="PCT",
                        help="fail (exit 1) if the telemetry overhead "
                             "exceeds PCT percent (implies --obs)")
    parser.add_argument("--obs-repeats", type=int, default=1, metavar="N",
                        help="timed runs per telemetry setting; the best "
                             "of N is compared (default: %(default)s)")
    parser.add_argument("--no-profile", dest="profile", action="store_false",
                        default=True,
                        help="skip the cProfile pass (with --obs the "
                             "timing runs are the only work, as in CI)")
    args = parser.parse_args(argv)
    do_obs = args.obs or args.obs_gate is not None

    if args.profile:
        run = WORKLOADS[args.workload]()
        profile = cProfile.Profile()
        with capture_occupancy() as captured:
            profile.enable()
            run()
            profile.disable()

        if args.dump is not None:
            profile.dump_stats(args.dump)
            print(f"profile written to {args.dump}\n")

        restrictions = ([args.filter] if args.filter else []) + [args.top]
        for order, title in (("cumulative", "by cumulative time (where time flows)"),
                             ("tottime", "by self time (where time is spent)")):
            print(f"==== top {args.top} {title} ====")
            stats = pstats.Stats(profile)
            stats.sort_stats(order).print_stats(*restrictions)
        print_occupancy(captured)
    elif not do_obs:
        # No profile and no overhead check: one plain run, occupancy only.
        with capture_occupancy() as captured:
            WORKLOADS[args.workload]()()
        print_occupancy(captured)

    report_memory = args.memory
    if report_memory is None:
        report_memory = args.profile and args.workload == "pagecache"
    if report_memory:
        # A separate pass: tracemalloc and cProfile would skew each other.
        run = WORKLOADS[args.workload]()
        tracemalloc.start()
        run()
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(
            f"==== tracemalloc ====\n"
            f"peak traced memory: {peak / 1e6:.1f} MB "
            f"(still allocated at exit: {current / 1e6:.1f} MB)"
        )

    if do_obs:
        if args.profile:
            disabled, enabled, overhead = measure_obs_overhead(
                args.workload, args.obs_repeats
            )
        else:
            with capture_occupancy() as captured:
                disabled, enabled, overhead = measure_obs_overhead(
                    args.workload, args.obs_repeats
                )
            print_occupancy(captured)
        print(
            f"==== telemetry overhead ====\n"
            f"disabled: {disabled:.3f}s  enabled: {enabled:.3f}s  "
            f"overhead: {overhead:+.1f}%"
        )
        if args.obs_gate is not None and overhead > args.obs_gate:
            print(
                f"FAIL: telemetry overhead {overhead:.1f}% exceeds the "
                f"{args.obs_gate:.1f}% gate"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
