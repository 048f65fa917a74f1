"""Byte-accounting tolerances of the page-cache model, in one place.

Every quantity the page cache tracks is a float64 number of *bytes*.
Simulated hosts cache gigabytes to terabytes (1e9-1e12 bytes), and one
float64 ulp at that magnitude is 1e-7 to 1e-4 bytes; each add/remove or
split cycle can accumulate a few ulps of drift.  Three tolerances cover
the three ways that drift can surface — use these constants instead of
module-local ``_EPSILON`` copies.

The extent-run rebuild made the *structure* exact: fragments keep their
individually recorded sizes through coalescing and state changes (no
arithmetic is performed on a merge), so on integer-sized
workloads the totals are exactly the sum of the run lengths and the unit
tests assert ``==`` with no slack (``tests/test_pagecache_extents.py``).
What remains float-inexact is the *accumulation order* of the
incrementally maintained totals versus a from-scratch recomputation —
bit-for-bit the same stream of additions and subtractions as the
historical one-block-per-node code, which is what keeps replays
golden-identical.

``BYTE_EPSILON`` (1e-6 bytes)
    Comparison slack for *single-operation* arithmetic: loop guards like
    "is there anything left to evict/flush/read" and the per-file
    accounting cleanup.  One operation contributes at most a few ulps, so
    a millionth of a byte cleanly separates "residual float noise" from
    "real bytes remaining" while being far below any real block size.
    This constant participates in control flow, so changing it changes
    simulation results; it is part of the parity contract.

``NEGATIVE_TOLERANCE`` (1e-3 bytes)
    The negative-accounting guard of the LRU lists, checked on the
    consumption hot path at paper scale (terabyte magnitudes, where one
    ulp is already 1e-4 bytes).  Instrumented runs of the heaviest
    committed workloads (the fine-chunk Exp 5 point and the Exp 7 golden
    replay) observe no negative excursion at all, but the guard must
    tolerate the worst case the arithmetic allows at magnitudes the test
    scale cannot probe; a thousandth of a byte still catches any real
    accounting bug (the smallest real inconsistency is a whole block).

``DRIFT_TOLERANCE`` (1e-4 bytes)
    Allowed divergence between the incrementally maintained totals and a
    from-scratch recomputation in ``assert_consistent``.  Tightened from
    1e-3 with the extent rebuild: the worst drift observed across the
    randomized parity workloads (4 GB scale, thousands of operations) is
    3e-6 bytes, thirty times below this bound, and the old value's extra
    slack only reflected per-block index bookkeeping that no longer
    exists.
"""

from __future__ import annotations

#: Comparison slack for single-operation byte arithmetic.
BYTE_EPSILON = 1e-6

#: Tolerance of the negative-accounting guard (whole-simulation drift).
NEGATIVE_TOLERANCE = 1e-3

#: Allowed divergence between incremental and recomputed totals.
DRIFT_TOLERANCE = 1e-4
