"""Eviction-policy benchmarks: the Exp 8 ablation and the LRU dispatch gate.

Two layers, mirroring the rest of the suite:

* **Meso benchmarks** (gated by the regression baseline): one skewed-
  workload run per registered policy — the Exp 8 ablation cells.  Their
  normalized medians live in ``benchmarks/baseline.json``, so a policy
  whose bookkeeping cost blows up fails the bench-regression job.
* **The LRU dispatch-overhead gate**: the policy API routes the default
  eviction path through ``EvictionPolicy.clean_cursor`` instead of calling
  ``LRUList.clean_cursor`` directly.  The gate drains identical prebuilt
  caches through both entry points and asserts the policy dispatch costs
  at most 5% — a self-relative A/B on one machine, immune to the
  shared-runner noise that makes absolute medians untrustworthy.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.exp8_policy_ablation import (
    EXP8_POLICIES,
    exp8_report,
    run_skewed,
)
from repro.pagecache.block import Block
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
GATE_REPEATS = 5
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
    lists = PageCacheLists(balance=False)
    clock = 0.0
    for frag in range(GATE_FRAGS_PER_FILE):
        for index in range(GATE_FILES):
            clock += 1.0
            lists.add_to_inactive(Block(f"f{index}", 1 * MB, clock, dirty=False))
    return lists


def _drain(lru, make_cursor) -> float:
    """Time one full drain through ``make_cursor()`` (construction excluded)."""
    start = time.perf_counter()
    cursor = make_cursor()
    try:
        while True:
            block = cursor.next()
            if block is None:
                break
            lru.remove(block)
    finally:
        cursor.close()
    return time.perf_counter() - start


def test_lru_policy_dispatch_overhead(report):
    """Default-path gate: LRUPolicy dispatch costs <= 5% over the raw cursor.

    Alternates raw and policy drains over identically built caches and
    compares the best (most noise-free) timing of each; the drained byte
    totals double as a correctness check that both entry points walk the
    exact same victim stream.
    """
    policy = LRUPolicy()
    raw_times, policy_times = [], []
    expected = GATE_FILES * GATE_FRAGS_PER_FILE * MB
    for _ in range(GATE_REPEATS):
        lists = _build_clean_lists()
        assert lists.inactive.size == expected
        raw_times.append(
            _drain(lists.inactive, lists.inactive.clean_cursor)
        )
        assert lists.inactive.size == 0.0

        lists = _build_clean_lists()
        policy_times.append(
            _drain(lists.inactive,
                   lambda: policy.clean_cursor(lists.inactive))
        )
        assert lists.inactive.size == 0.0

    raw_best = min(raw_times)
    policy_best = min(policy_times)
    ratio = policy_best / raw_best
    report(
        "policy_lru_dispatch_overhead",
        f"LRU dispatch overhead: raw {raw_best * 1e3:.3f} ms, "
        f"via LRUPolicy {policy_best * 1e3:.3f} ms, ratio {ratio:.4f} "
        f"(gate {GATE_MAX_OVERHEAD:.2f})",
    )
    assert ratio <= GATE_MAX_OVERHEAD, (
        f"LRUPolicy dispatch overhead {ratio:.4f} exceeds the "
        f"{GATE_MAX_OVERHEAD:.2f} gate (raw {raw_best:.6f}s vs "
        f"policy {policy_best:.6f}s)"
    )
