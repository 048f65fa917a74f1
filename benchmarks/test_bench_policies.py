"""Eviction-policy benchmarks: the Exp 8 ablation and the LRU dispatch gate.

Two layers, mirroring the rest of the suite:

* **Meso benchmarks** (gated by the regression baseline): one skewed-
  workload run per registered policy — the Exp 8 ablation cells.  Their
  normalized medians live in ``benchmarks/baseline.json``, so a policy
  whose bookkeeping cost blows up fails the bench-regression job.
* **The LRU dispatch-overhead gate**: the policy API routes the default
  eviction path through ``EvictionPolicy.clean_cursor`` instead of calling
  ``LRUList.clean_cursor`` directly.  A structural check asserts the
  policy hands back the lists' own cursor type, so no per-fragment
  wrapper can slip in.  The timed gate drains identical prebuilt caches
  through both entry points in pairs and asserts the median per-pair
  cost ratio is at most 1.05 — a self-relative A/B on one machine,
  immune to the shared-runner noise that makes absolute medians
  untrustworthy.
"""

from __future__ import annotations

import gc
import statistics
import time
from functools import partial

import pytest

from repro.experiments.exp8_policy_ablation import (
    EXP8_POLICIES,
    exp8_report,
    run_skewed,
)
from repro.pagecache.lru import PageCacheLists
from repro.pagecache.policy import LRUPolicy
from repro.units import MB

#: Skewed-workload scale used for the per-policy benchmark cells (more
#: rounds than the tier-1 smoke test so the victim-selection paths
#: dominate setup cost).
BENCH_ROUNDS = 12

#: LRU-gate workload: clean fragments drained per pass.
GATE_FILES = 50
GATE_FRAGS_PER_FILE = 80
#: Timed pairs; even, so each side drains first equally often.  Single
#: pair ratios on a shared 2-vCPU VM ranged from 0.3 to 2.2, so the
#: median needs many pairs: with 21 it ranged from 0.949 to above
#: 1.05 over 30 runs, with 60 from 0.981 to 1.016 over 20 runs.
GATE_REPEATS = 60
GATE_MAX_OVERHEAD = 1.05


@pytest.mark.parametrize("policy", EXP8_POLICIES)
def test_bench_policy_skewed(benchmark, report, policy):
    """One Exp 8 skewed-workload cell per policy, wall-clock gated."""
    point = benchmark.pedantic(
        lambda: run_skewed(policy, rounds=BENCH_ROUNDS), rounds=1, iterations=3
    )
    report(
        f"policy_skewed_{point.policy}",
        f"Exp 8 skewed cell [{point.policy}]: hit ratio "
        f"{100 * point.hit_ratio:.1f}%, makespan {point.makespan:.2f}s",
        timing=f"{point.wallclock_time:.3f}s wall-clock",
    )
    assert 0.0 <= point.hit_ratio < 1.0
    assert point.makespan > 0


def test_bench_policy_ablation_table(benchmark, report):
    """The full skewed-workload ablation row set (the Exp 8 headline)."""

    def ablation():
        return {
            ("skewed", policy): run_skewed(policy, rounds=BENCH_ROUNDS)
            for policy in EXP8_POLICIES
        }

    points = benchmark.pedantic(ablation, rounds=1, iterations=1)
    report("policy_ablation", exp8_report(points))
    lru = points[("skewed", "lru")]
    best = max(points.values(), key=lambda p: p.hit_ratio)
    # The reason the policy zoo exists: scan-resistant victim selection
    # beats LRU on the adversarial workload.
    assert best.hit_ratio > lru.hit_ratio


# ----------------------------------------------------------------- LRU gate
def _build_clean_lists() -> PageCacheLists:
    lists = PageCacheLists()
    clock = 0.0
    for frag in range(GATE_FRAGS_PER_FILE):
        for index in range(GATE_FILES):
            clock += 1.0
            lists.inactive.push(f"f{index}", False, None, 1 * MB, clock,
                                clock)
    return lists


def _drain(lru, make_cursor) -> float:
    """CPU seconds of one full drain through ``make_cursor()``.

    The garbage collector is off while it runs, and the clock is the
    process's CPU time, so time spent descheduled by other tenants does
    not count.  The cache itself is built outside the timed part.
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        cursor = make_cursor()
        try:
            while True:
                run = cursor.next()
                if run is None:
                    break
                lru.take(run, run.head)
        finally:
            cursor.close()
        return time.process_time() - start
    finally:
        if gc_enabled:
            gc.enable()


def test_lru_policy_clean_cursor_is_the_lists_cursor():
    """LRUPolicy passes the lists' own cursor through, unwrapped."""
    lru = _build_clean_lists().inactive
    excluded = {"f0", "f1"}
    assert type(LRUPolicy().clean_cursor(lru, excluded)) is type(
        lru.clean_cursor(excluded)
    )


def test_lru_policy_dispatch_overhead(report):
    """Default-path gate: LRUPolicy dispatch costs <= 5% over the raw cursor.

    Each repeat drains two identically built caches, one through each
    entry point, alternating which side drains first; the gate holds the
    median of the per-pair ratios policy / raw.  The drained byte totals
    double as a check that both entry points walk the same victim stream.
    """
    policy = LRUPolicy()
    expected = GATE_FILES * GATE_FRAGS_PER_FILE * MB
    sides = ("raw", "policy")
    raw_times, policy_times, ratios = [], [], []
    for repeat in range(GATE_REPEATS):
        times = {}
        for side in (sides if repeat % 2 == 0 else sides[::-1]):
            lru = _build_clean_lists().inactive
            assert lru.size == expected
            make_cursor = (lru.clean_cursor if side == "raw"
                           else partial(policy.clean_cursor, lru))
            times[side] = _drain(lru, make_cursor)
            assert lru.size == 0.0
        raw_times.append(times["raw"])
        policy_times.append(times["policy"])
        ratios.append(times["policy"] / times["raw"])

    ratio = statistics.median(ratios)
    raw_median = statistics.median(raw_times)
    policy_median = statistics.median(policy_times)
    report(
        "policy_lru_dispatch_overhead",
        f"LRU dispatch overhead: raw {raw_median * 1e3:.3f} ms, "
        f"via LRUPolicy {policy_median * 1e3:.3f} ms (medians of "
        f"{GATE_REPEATS} pairs), median pair ratio {ratio:.4f} "
        f"(gate {GATE_MAX_OVERHEAD:.2f})",
    )
    assert ratio <= GATE_MAX_OVERHEAD, (
        f"LRUPolicy dispatch overhead {ratio:.4f} (median of "
        f"{GATE_REPEATS} pair ratios) exceeds the "
        f"{GATE_MAX_OVERHEAD:.2f} gate"
    )
