"""Exp 3 (Figure 7) — concurrent applications on NFS storage.

Same workload as Exp 2 but all files live on an NFS-mounted remote disk:
no client write cache, writethrough server cache, read caches enabled.
Regenerates the read-time and write-time curves of Figure 7.
"""

from __future__ import annotations

import pytest

from conftest import paper_scale
from repro.experiments.exp2_concurrent import exp2_series
from repro.experiments.report import concurrency_report
from repro.units import GB, MB

COUNTS = (1, 4, 8, 12, 16, 20, 24, 28, 32) if paper_scale() else (1, 4, 8, 16, 24, 32)
INPUT_SIZE = 3 * GB
CHUNK = 100 * MB
SIMULATORS = ("real", "wrench", "wrench-cache")


def test_fig7_concurrent_nfs(benchmark, report):
    """Figure 7: concurrent read/write times with 3 GB files on NFS."""

    def run():
        return exp2_series(SIMULATORS, counts=COUNTS, input_size=INPUT_SIZE,
                           chunk_size=CHUNK, nfs=True)

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    text = concurrency_report(
        "Figure 7: NFS results with 3 GB files (Exp 3)", series
    )
    report("fig7_concurrent_nfs", text)

    last = {sim: series[sim][-1] for sim in SIMULATORS}
    # Page cache simulation helps for reads (server read cache)...
    assert last["wrench-cache"].read_time < last["wrench"].read_time
    assert (
        abs(last["wrench-cache"].read_time - last["real"].read_time)
        < abs(last["wrench"].read_time - last["real"].read_time)
    )
    # ...but not for writes, since the NFS server is writethrough: both
    # simulators write at (remote) disk bandwidth.
    assert last["wrench-cache"].write_time == pytest.approx(
        last["wrench"].write_time, rel=0.35
    )
