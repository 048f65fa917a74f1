"""Hot-path benchmarks: paper-scale experiment runs and micro-benchmarks.

Two layers:

* **Meso benchmarks** (gated by the regression baseline): Exp 5 simulation-
  time scalability at the paper's full concurrency sweep, a fine-chunk
  variant that multiplies the number of live cache blocks by 10, and an
  Exp 7 trace replay scaled to 400 jobs over 32 nodes (the paper-scale
  cluster of Exp 6).  These are the workloads the O(1) LRU / slotted DES
  rewrite targets; their medians are compared against
  ``benchmarks/baseline.json`` in CI.
* **Micro benchmarks** (marked ``perf``): direct churn on the LRU structure
  and the DES event loop, runnable standalone with ``pytest -m perf``.

The Exp 7 workload tiles the bundled 84-job sample trace five times (time
offsets keep the arrival pattern) and replays the first 400 jobs.
"""

from __future__ import annotations

import pytest

from conftest import fastest_of, paper_scale
from repro.des import Environment
from repro.experiments.exp5_scaling import run_scaling, scaling_regressions
from repro.experiments.exp7_trace_replay import default_trace_path
from repro.pagecache.extents import Mark
from repro.pagecache.lru import PageCacheLists
from repro.scheduler.swf import SWFRecord, SWFTrace, load_swf
from repro.snapshot import run_experiment
from repro.units import GB, MB

#: The paper's full Figure 8 sweep (reduced suite stops at 16).
EXP5_COUNTS = (1, 4, 8, 16, 24, 32) if paper_scale() else (1, 4, 8, 16, 24)
#: Paper-scale Exp 7: 400 jobs over 32 nodes.
EXP7_N_JOBS = 400
EXP7_N_NODES = 32


def tiled_trace(repeats: int = 5) -> SWFTrace:
    """The bundled sample trace tiled ``repeats`` times back to back.

    Each copy is shifted by the span of the original trace (plus one mean
    inter-arrival gap, so copies do not overlap at the seam) and renumbered;
    applications keep their identity across copies, so tiling raises the
    job count without inflating the dataset count.
    """
    base = load_swf(default_trace_path())
    submits = [record.submit_time for record in base.records]
    first, last = min(submits), max(submits)
    span = (last - first) + max(1.0, (last - first) / max(1, len(submits) - 1))
    records = []
    for copy in range(repeats):
        for record in base.records:
            values = {name: getattr(record, name) for name in
                      SWFRecord.__dataclass_fields__}
            values["job_id"] = record.job_id + copy * len(base.records)
            values["submit_time"] = record.submit_time + copy * span
            records.append(SWFRecord(**values))
    return SWFTrace(directives=dict(base.directives), records=records)


def run_exp5_paper(workers=None):
    """Figure 8 sweep, WRENCH-cache curves only (the hot-path targets).

    The sweep goes through the process-pool engine
    (:mod:`repro.experiments.runner`); the default resolves ``workers``
    from ``REPRO_WORKERS`` (serial when unset, so the wall-clock-per-point
    measurements stay uncontended).
    """
    return run_scaling(
        EXP5_COUNTS,
        configs=(("wrench-cache", False), ("wrench-cache", True)),
        input_size=3 * GB,
        chunk_size=100 * MB,
        workers=workers,
    )


def run_exp5_fine_chunks(workers=None):
    """One Exp 5 point with 10 MB chunks: 10x the live cache blocks.

    This is the configuration where the old list-of-Blocks LRU went
    quadratic (every chunk scanned every cached block of the host).
    """
    return run_scaling(
        (16,),
        configs=(("wrench-cache", False),),
        input_size=3 * GB,
        chunk_size=10 * MB,
        workers=workers,
    )


def run_sched_dispatch():
    """Dispatch-heavy cluster workload: the wms/cluster profiling frontier.

    400 short jobs over 32 nodes under EASY backfilling (exercising the
    ``earliest_fit_time`` reservation walks) with cache-locality placement
    (exercising per-dispatch candidate scoring), and deliberately small
    I/O so the scheduling layers — not the page cache — dominate.  This is
    the workload behind ``profile_hotpaths.py sched``.
    """
    return run_experiment(
        "exp6",
        placement="cache",
        policy="easy",
        n_jobs=400,
        n_nodes=32,
        n_datasets=48,
        cores_per_node=8,
        input_size=64 * MB,
        output_size=16 * MB,
        arrival_rate=12.0,
        chunk_size=16 * MB,
    )


def run_exp7_paper():
    """Exp 7 preemptive-priority replay at 400 jobs / 32 nodes.

    The replay is data-intensive, as in the paper's workflows: every job
    reads a 2 GB shared dataset and writes a 2 GB private output at 4 MB
    chunk granularity.  Output fragments accumulate in the node caches
    (they are never re-read, so cache hits never re-merge them), which is
    exactly the regime where the pre-PR-3 LRU went quadratic — every
    chunk operation scanned every cached block of the node.
    """
    return run_experiment(
        "exp7",
        policy="preemptive-priority",
        trace=tiled_trace(),
        max_jobs=EXP7_N_JOBS,
        n_nodes=EXP7_N_NODES,
        load_factor=120.0,
        dataset_size=2 * GB,
        output_size=2 * GB,
        chunk_size=4 * MB,
    )


# --------------------------------------------------------------------- meso
def test_hotpath_exp5_paper_scale(benchmark, report):
    """Exp 5 at the paper's concurrency sweep stays linear in #apps."""
    # pytest-benchmark times the first sweep; the fit takes each point's
    # fastest of three.
    curves = fastest_of(
        benchmark.pedantic(run_exp5_paper, rounds=1, iterations=1),
        run_exp5_paper,
    )
    fits = scaling_regressions(curves)
    lines = [f"Exp 5 hot-path sweep (counts={EXP5_COUNTS})"]
    for label, points in curves.items():
        lines.append(
            f"  {label}: "
            + ", ".join(f"{p.n_apps}:{p.wallclock_time:.3f}s" for p in points)
            + f"  (slope {fits[label].slope * 1e3:.2f} ms/app, "
            f"R^2 {fits[label].r_squared:.3f})"
        )
    report("hotpath_exp5", "\n".join(lines))
    for label, points in curves.items():
        for point in points:
            assert point.simulated_makespan > 0, label
        assert fits[label].r_squared > 0.7, label


def test_hotpath_exp5_fine_chunks(benchmark, report):
    """Exp 5 with 10x the cache blocks: the old-LRU quadratic regime."""
    curves = benchmark.pedantic(run_exp5_fine_chunks, rounds=1, iterations=1)
    (points,) = curves.values()
    report(
        "hotpath_exp5_fine_chunks",
        f"Exp 5 fine-chunk point (16 apps, 10 MB chunks): "
        f"makespan {points[0].simulated_makespan:.1f}s",
        timing=f"{points[0].wallclock_time:.3f}s wall-clock",
    )
    assert points[0].simulated_makespan > 0


def test_hotpath_exp7_paper_scale(benchmark, report):
    """Exp 7 trace replay at paper scale (400 jobs / 32 nodes)."""
    point = benchmark.pedantic(run_exp7_paper, rounds=1, iterations=1)
    report(
        "hotpath_exp7",
        f"Exp 7 paper scale: {point.n_jobs} jobs / {point.n_nodes} nodes, "
        f"makespan {point.makespan:.1f}s, hit ratio "
        f"{100 * point.cache_hit_ratio:.1f}%, "
        f"{point.n_preemptions} preemptions, "
        f"high-prio slowdown {point.high_priority.mean_bounded_slowdown:.2f}",
    )
    assert point.n_jobs == EXP7_N_JOBS
    assert point.n_nodes == EXP7_N_NODES
    assert point.makespan > 0
    assert 0.0 < point.cache_hit_ratio < 1.0
    assert set(point.classes) == {0, 1, 2}


def test_hotpath_sched_dispatch(benchmark, report):
    """Dispatch-heavy cluster run: scheduler layers under the profiler's eye."""
    point = benchmark.pedantic(run_sched_dispatch, rounds=1, iterations=1)
    report(
        "hotpath_sched_dispatch",
        f"Dispatch-heavy Exp 6 (400 short jobs / 32 nodes, EASY + cache "
        f"placement): makespan {point.makespan:.2f}s, hit ratio "
        f"{100 * point.cache_hit_ratio:.1f}%, "
        f"mean wait {point.mean_wait_time:.3f}s",
        timing=f"{point.wallclock_time:.3f}s wall-clock",
    )
    assert point.n_jobs == 400
    assert point.makespan > 0
    assert 0.0 < point.cache_hit_ratio < 1.0


# -------------------------------------------------------------------- micro
@pytest.mark.perf
def test_perf_lru_churn(benchmark):
    """Raw LRU structure churn: add / re-access / evict cycles.

    Measures the page-cache data structure alone (no simulated time): a
    workload of appends, promotions via removal+re-insertion, per-file
    queries and LRU pops over a few thousand live fragments.  A promotion
    finds its fragment through a mark, as the periodic flusher does, and
    carries the mark to the active list.
    """

    def churn():
        lists = PageCacheLists()
        inactive, active = lists.inactive, lists.active
        n_files, blocks_per_file = 20, 100
        clock = 0.0
        for index in range(n_files * blocks_per_file):
            clock += 1.0
            inactive.push(f"f{index % n_files}", index % 3 == 0, None,
                          1 * MB, clock, clock)
            lists.balance()
        # Re-access half of each file's bytes (promote to the active list):
        # mark every other fragment of the file in LRU order, then move
        # each marked fragment.
        for index in range(n_files):
            name = f"f{index}"
            keyed = sorted(((run.row[offset + 2], run.row[offset + 3]), run)
                           for run in inactive.runs() if run.filename == name
                           for offset in run.offsets())
            marks = []
            for (last_access, stamp), run in keyed[::2]:
                mark = Mark(run, stamp, last_access)
                run.register(mark, stamp)
                marks.append(mark)
            for mark in marks:
                clock += 1.0
                run = mark.run
                offset = run.offset_of(mark)
                row = run.row
                size, entry_time = row[offset], row[offset + 1]
                inactive.take(run, offset)
                active.push(name, run.dirty, None, size, entry_time, clock,
                            mark)
                lists.balance()
        # Take everything back out in LRU order.
        drained = 0
        for lru in (inactive, active):
            while len(lru):
                run = lru.front_run()
                drained += run.row[run.head]
                lru.take(run, run.head)
        lists.assert_consistent()
        return drained

    total = benchmark(churn)
    assert total == 20 * 100 * MB


@pytest.mark.perf
def test_perf_extent_streams(benchmark):
    """Concurrent-stream churn on the extent-run cache core.

    Eight interleaved per-file streams append fine-grained fragments
    (the regime that shredded the per-block cache into ``size / chunk``
    nodes), then the cache is drained through the eviction cursor in
    exact LRU order.  Structural invariants are checked at the end.
    """

    def churn():
        lists = PageCacheLists()
        n_streams, frags_per_stream = 8, 400
        clock = 0.0
        for round_index in range(frags_per_stream):
            for stream in range(n_streams):
                clock += 1.0
                lists.inactive.push(f"s{stream}", False, None, 1 * MB, clock,
                                    clock)
        # The interleaved streams must still coalesce to one run each.
        assert lists.run_count == n_streams
        lists.assert_consistent()
        drained = 0.0
        cursor = lists.inactive.clean_cursor()
        try:
            while True:
                run = cursor.next()
                if run is None:
                    break
                drained += run.row[run.head]
                lists.inactive.take(run, run.head)
        finally:
            cursor.close()
        return drained

    total = benchmark(churn)
    assert total == 8 * 400 * MB


@pytest.mark.perf
def test_perf_des_event_churn(benchmark):
    """Raw DES core churn: timeout scheduling, process joins, resumes."""

    def churn():
        env = Environment()
        done = []

        def worker(idx):
            for _ in range(50):
                yield env.timeout(1.0 + (idx % 7) * 0.1)
            done.append(idx)

        def overseer():
            workers = [env.process(worker(i), name=f"w{i}") for i in range(100)]
            for process in workers:
                yield process

        env.run(until=env.process(overseer(), name="overseer"))
        return len(done)

    assert benchmark(churn) == 100
