"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding experiment (through ``pytest-benchmark`` so that simulation
wall-clock time is also measured), renders the rows/series the paper
reports as plain text, prints them and saves them under
``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

#: Directory where benchmark reports are written.
RESULTS_DIR = Path(__file__).parent / "results"


def emit_report(name: str, text: str, timing: str = "") -> None:
    """Print a report and persist it under ``benchmarks/results/<name>.txt``.

    ``timing`` (wall-clock readings) is printed but not persisted, so the
    tracked reports hold simulated outputs only and a run of the suite
    leaves them unchanged.
    """
    print(f"\n{text}\n" + (f"{timing}\n" if timing else ""))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def report():
    """Fixture exposing :func:`emit_report` to benchmarks."""
    return emit_report


def paper_scale() -> bool:
    """Whether to run the experiments at full paper scale.

    The default is a reduced scale that keeps the whole benchmark suite
    under a few minutes while preserving every qualitative result; set
    ``PAGECACHE_SIM_PAPER_SCALE=1`` to regenerate the figures with the
    paper's exact file sizes and concurrency sweeps.
    """
    return os.environ.get("PAGECACHE_SIM_PAPER_SCALE", "0") not in ("0", "", "false")


def fastest_of(curves, sweep, reruns: int = 2):
    """Lower each point's wall time in ``curves`` to its minimum over
    ``reruns`` more, untimed runs of ``sweep`` (garbage collected first).

    A single sub-second reading is at the mercy of whatever else shares
    the machine; the minimum of three is the cost of the simulation
    itself, which is what a Figure 8 linearity check is about.
    """
    for _ in range(reruns):
        gc.collect()
        for label, points in sweep().items():
            for point, rerun in zip(curves[label], points):
                point.wallclock_time = min(point.wallclock_time,
                                           rerun.wallclock_time)
    return curves
