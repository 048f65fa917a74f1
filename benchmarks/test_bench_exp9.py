"""Exp 9 — scheduling under node failures, stragglers and elastic capacity.

Sweeps MTBF over the exp6 cluster workload with the seeded fault plan and
reports degradation against the fault-free baseline of the *same seeded
workload*.  The headline claims: every submitted job completes no matter
how often nodes crash (checkpoint-rollback-requeue never loses work
permanently), and the makespan degrades with the crash rate while the
simulator charges the lost compute explicitly.
"""

from __future__ import annotations

from conftest import paper_scale
from repro.experiments.exp9_failures import (
    exp9_report,
    exp9_series,
)
from repro.snapshot import run_experiment

MTBFS = (None, 120.0, 60.0, 30.0, 15.0)
SCALE = (
    dict(n_jobs=120, n_nodes=8, n_datasets=16)
    if paper_scale()
    else dict(n_jobs=60, n_nodes=6, n_datasets=12)
)


def test_exp9_failures_degrade_but_never_lose_jobs(benchmark, report):
    """All jobs complete under crashes; makespan degrades with crash rate."""

    def run():
        return exp9_series(MTBFS, mttr=10.0, **SCALE)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = points[None]
    text = exp9_report(points)
    worst = points[min(m for m in points if m is not None)]
    text += (
        f"\n\nWorst-case degradation (MTBF {min(m for m in MTBFS if m):g}s): "
        f"makespan x{worst.makespan / baseline.makespan:.2f}, "
        f"{worst.n_node_failures} crashes, {worst.n_job_restarts} restarts, "
        f"{worst.lost_work_seconds:.1f}s compute lost and redone"
    )
    report("exp9_failures", text)

    # Fault-free baseline: the zero plan injected nothing.
    assert baseline.n_node_failures == 0
    assert baseline.n_job_restarts == 0
    assert baseline.lost_work_seconds == 0.0
    for mtbf, point in points.items():
        # The fault-tolerance invariant, at every crash rate.
        assert point.all_jobs_completed, mtbf
        assert point.makespan >= baseline.makespan or mtbf is None, mtbf
    # The harshest cell actually exercised the machinery.
    assert worst.n_node_failures > 0
    assert worst.n_job_restarts > 0
    assert worst.lost_work_seconds > 0.0
    assert worst.makespan > baseline.makespan


def test_exp9_stragglers_and_elastic_capacity(benchmark, report):
    """Stragglers slow the run; elastic capacity absorbs part of the hit."""

    def run():
        slow = run_experiment("exp9", workload="exp6", mtbf=None,
                              stragglers=True, **SCALE)
        slow_elastic = run_experiment("exp9", workload="exp6", mtbf=None,
                                      stragglers=True, elastic=True,
                                      elastic_join=5.0, **SCALE)
        clean = run_experiment("exp9", workload="exp6", mtbf=None, **SCALE)
        return clean, slow, slow_elastic

    clean, slow, slow_elastic = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    text = (
        "Exp 9 — stragglers and elastic capacity "
        f"({clean.n_jobs} jobs, seeded straggler windows)\n"
        f"clean:             makespan {clean.makespan:10.2f}s\n"
        f"stragglers:        makespan {slow.makespan:10.2f}s "
        f"(x{slow.makespan / clean.makespan:.2f})\n"
        f"stragglers+elastic: makespan {slow_elastic.makespan:9.2f}s "
        f"(x{slow_elastic.makespan / clean.makespan:.2f})"
    )
    report("exp9_stragglers", text)

    assert clean.all_jobs_completed
    assert slow.all_jobs_completed
    assert slow_elastic.all_jobs_completed
    # Seeded slow-node windows cost simulated time.
    assert slow.makespan > clean.makespan
