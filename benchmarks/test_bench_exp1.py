"""Exp 1 (Figures 4a, 4b, 4c) — single-threaded execution on a local disk.

Regenerates, for a small and a large file size:

* Figure 4a: per-operation absolute relative simulation errors of the
  Python prototype, WRENCH and WRENCH-cache against the calibrated
  reference;
* Figure 4b: the memory profile (used / cache / dirty) over time;
* Figure 4c: the per-file cache contents after each I/O operation.

The paper uses 20 GB and 100 GB files; the default benchmark scale uses
5 GB and 20 GB to keep the suite fast (set ``PAGECACHE_SIM_PAPER_SCALE=1``
for the full sizes).  The qualitative result — errors drop by a large
factor with the page cache model — holds at both scales.
"""

from __future__ import annotations

import pytest

from conftest import paper_scale
from repro.analysis.tables import format_table
from repro.experiments.exp1_single import (
    exp1_errors,
    exp1_mean_errors,
)
from repro.experiments.metrics import error_reduction_factor
from repro.experiments.report import exp1_cache_report, exp1_error_report
from repro.snapshot import run_experiment
from repro.units import GB, MB

SMALL_SIZE = 20 * GB if paper_scale() else 5 * GB
LARGE_SIZE = 100 * GB if paper_scale() else 20 * GB
CHUNK = 100 * MB


@pytest.mark.parametrize("file_size", [SMALL_SIZE, LARGE_SIZE],
                         ids=lambda s: f"{s / GB:.0f}GB")
def test_fig4a_errors(benchmark, report, file_size):
    """Figure 4a: absolute relative simulation errors."""
    reference = run_experiment("exp1", simulator="real", file_size=file_size,
                               chunk_size=CHUNK, trace_interval=None)

    def run():
        return exp1_errors(file_size, chunk_size=CHUNK, reference=reference)

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    means = exp1_mean_errors(errors)
    text = exp1_error_report(file_size, errors)
    text += "\n\nMean error excluding Read 1 (%):\n" + format_table(
        ["Simulator", "Mean error (%)"], sorted(means.items()), precision=1
    )
    factor = error_reduction_factor(
        errors["wrench"].values(), errors["wrench-cache"].values()
    )
    text += f"\n\nError reduction factor (WRENCH -> WRENCH-cache): {factor:.1f}x"
    report(f"fig4a_errors_{int(file_size / GB)}GB", text)

    # Shape of the paper's result: the page cache model cuts the error by a
    # large factor (the paper reports up to ~9x).
    assert means["wrench-cache"] < means["wrench"] / 3.0
    assert factor > 3.0


def test_fig4b_memory_profiles(benchmark, report):
    """Figure 4b: memory profiles over time (WRENCH-cache vs reference)."""

    def run():
        return {
            "wrench-cache": run_experiment("exp1", simulator="wrench-cache",
                                           file_size=LARGE_SIZE,
                                           chunk_size=CHUNK,
                                           trace_interval=5.0),
            "real": run_experiment("exp1", simulator="real",
                                   file_size=LARGE_SIZE, chunk_size=CHUNK,
                                   trace_interval=5.0),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    sections = []
    for simulator, result in results.items():
        rows = [
            [snap.time, snap.used / GB, snap.cached / GB, snap.dirty / GB]
            for snap in result.memory_trace[:: max(1, len(result.memory_trace) // 40)]
        ]
        sections.append(format_table(
            ["time (s)", "used (GB)", "cache (GB)", "dirty (GB)"],
            rows,
            precision=1,
            title=f"Figure 4b: memory profile ({simulator}, "
                  f"{LARGE_SIZE / GB:.0f} GB files)",
        ))
    report("fig4b_memory_profiles", "\n\n".join(sections))

    profile = results["wrench-cache"].memory_trace
    assert max(snap.cached for snap in profile) > 0
    assert all(snap.dirty <= snap.dirty_threshold * 1.01 for snap in profile)


def test_fig4c_cache_contents(benchmark, report):
    """Figure 4c: per-file cache contents after each I/O operation."""

    def run():
        return {
            "wrench-cache": run_experiment("exp1", simulator="wrench-cache",
                                           file_size=SMALL_SIZE,
                                           chunk_size=CHUNK,
                                           trace_interval=None),
            "real": run_experiment("exp1", simulator="real",
                                   file_size=SMALL_SIZE, chunk_size=CHUNK,
                                   trace_interval=None),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    files = ["file1", "file2", "file3", "file4"]
    sections = []
    for simulator, result in results.items():
        contents = result.cache_contents_per_operation()
        sections.append(
            exp1_cache_report(contents, files).replace(
                "Figure 4c:", f"Figure 4c ({simulator}):"
            )
        )
    report("fig4c_cache_contents", "\n\n".join(sections))

    # With files that fit in the page cache, every file is fully cached
    # right after it is read or written (as in the paper's 20 GB case).
    contents = results["wrench-cache"].cache_contents_per_operation()
    assert contents["Read 1"]["file1"] == pytest.approx(SMALL_SIZE, rel=0.02)
    assert contents["Write 1"]["file2"] == pytest.approx(SMALL_SIZE, rel=0.02)
    assert contents["Write 3"]["file4"] == pytest.approx(SMALL_SIZE, rel=0.02)
