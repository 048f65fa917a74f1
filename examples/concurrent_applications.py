#!/usr/bin/env python3
"""Concurrent applications competing for one page cache and one disk (Exp 2).

Runs N independent instances of the synthetic application (3 GB files) on a
single 32-core node and reports the mean per-application read and write
times for the cacheless baseline and the page cache model — the curves of
Figure 5.  The write-time plateau appears once the aggregate dirty data
exceeds the dirty ratio and foreground flushing kicks in.

Run it with::

    python examples/concurrent_applications.py [max_apps]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_table
from repro.snapshot import run_experiment
from repro.units import GB


def main() -> None:
    max_apps = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    counts = [n for n in (1, 4, 8, 16, 24, 32) if n <= max_apps] or [max_apps]

    rows = []
    for n_apps in counts:
        cacheless = run_experiment("exp2", simulator="wrench", n_apps=n_apps,
                                   input_size=3 * GB)
        cached = run_experiment("exp2", simulator="wrench-cache",
                                n_apps=n_apps, input_size=3 * GB)
        rows.append([
            n_apps,
            cacheless.read_time, cached.read_time,
            cacheless.write_time, cached.write_time,
        ])

    print("Mean per-application cumulative I/O times, 3 GB files on a local SSD\n")
    print(format_table(
        ["apps", "read no-cache (s)", "read page-cache (s)",
         "write no-cache (s)", "write page-cache (s)"],
        rows, precision=1,
    ))
    print("\nNote the write-time plateau of the page cache model at high concurrency:")
    print("once the aggregate dirty data hits the dirty ratio (20% of RAM), writes")
    print("must wait for flushing and converge towards disk bandwidth.")


if __name__ == "__main__":
    main()
