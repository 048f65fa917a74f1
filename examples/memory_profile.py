#!/usr/bin/env python3
"""Reproduce the Exp 1 memory profile (Figure 4b) as an ASCII chart.

Runs a single instance of the synthetic application on a local disk with
the page cache model enabled, samples the memory manager every few
simulated seconds, and renders used memory, cache and dirty data over time
— the same observables the paper collects with ``atop``/``collectl`` on the
real cluster.

Run it with::

    python examples/memory_profile.py [file_size_GB]
"""

from __future__ import annotations

import sys

from repro.snapshot import run_experiment
from repro.units import GB, GiB


def ascii_profile(samples, width: int = 60) -> str:
    """Render memory snapshots as a rough ASCII chart (one line per sample)."""
    if not samples:
        return "(no samples)"
    total = samples[0].total
    lines = [
        f"{'time (s)':>9}  {'used':>7}  {'cache':>7}  {'dirty':>7}  "
        f"0 {' ' * (width - 6)} {total / GiB:.0f} GiB",
    ]
    step = max(1, len(samples) // 50)
    for snap in samples[::step]:
        bar = [" "] * width
        cache_end = int(width * min(1.0, snap.cached / total))
        used_end = int(width * min(1.0, snap.used / total))
        dirty_end = int(width * min(1.0, snap.dirty / total))
        for i in range(cache_end):
            bar[i] = "c"
        for i in range(cache_end, used_end):
            bar[i] = "a"  # anonymous memory on top of the cache
        for i in range(dirty_end):
            bar[i] = "D"  # dirty subset of the cache
        lines.append(
            f"{snap.time:9.1f}  {snap.used / GB:6.1f}G  {snap.cached / GB:6.1f}G  "
            f"{snap.dirty / GB:6.1f}G  |{''.join(bar)}|"
        )
    lines.append("legend: D = dirty cache, c = clean cache, a = anonymous memory")
    return "\n".join(lines)


def main() -> None:
    file_size = (float(sys.argv[1]) if len(sys.argv) > 1 else 100.0) * GB
    print(f"Memory profile of the synthetic pipeline with {file_size / GB:.0f} GB files "
          f"(WRENCH-cache model)\n")
    result = run_experiment("exp1", simulator="wrench-cache",
                            file_size=file_size, trace_interval=10.0)
    print(ascii_profile(result.memory_trace))
    print("\nPer-operation durations (s):")
    for label, duration in result.operation_series():
        print(f"  {label:10s} {duration:8.1f}")


if __name__ == "__main__":
    main()
