#!/usr/bin/env python3
"""Record the simulated outputs the benchmark checks against.

Runs each seedless workload once and ``sched-dispatch`` once per recorded
input set, and writes ``perfbench/expected.json``.  Run it from the
repository root only when a change of simulated behaviour is intended::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]
    from layers import Clock
    from workloads import (
        EXPECTED_FILE,
        SCHED_INPUT_SETS,
        ConcurrentIO,
        Exp7Replay,
        SchedDispatch,
    )

    def record(workload):
        rep = workload.run(workload.setup(), Clock())
        return {workload.input_key: workload.expected_outputs(rep)}

    expected = {
        Exp7Replay.name: record(Exp7Replay(0)),
        ConcurrentIO.name: record(ConcurrentIO(0)),
        SchedDispatch.name: {},
    }
    for seed in range(SCHED_INPUT_SETS):
        expected[SchedDispatch.name].update(record(SchedDispatch(seed)))
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
