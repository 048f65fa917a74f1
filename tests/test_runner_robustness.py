"""Tests of the sweep runner's failure handling and point-value cache.

A failing point or a dying worker fails the sweep once, with the point
named; the point-value cache makes the failed or killed sweep resumable.
The governing invariant: resuming cannot change a sweep's results — a
resumed sweep and an undisturbed one return byte-identical values.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.experiments.runner import (
    SweepPointError,
    make_spec,
    point_cache_key,
    run_sweep,
)


def _count(counter: str = "", x: int = 0, **kwargs):
    """Point that records each call in the file ``counter``; returns ``x``."""
    with open(counter, "a") as handle:
        handle.write("x")
    return x


def _fail_and_count(counter: str = "", **kwargs):
    """Point that records each call in ``counter`` and then fails."""
    _count(counter)
    raise RuntimeError("boom")


def _ok(**kwargs):
    return "ok"


def _die(**kwargs):
    os._exit(1)


# Point names resolve by import; ``__name__`` is the name pytest imported
# this module under, so the points run this very module's functions.
COUNT = f"{__name__}:_count"
FAIL_COUNT = f"{__name__}:_fail_and_count"
OK = f"{__name__}:_ok"
DIE = f"{__name__}:_die"


def calls(counter) -> int:
    return len(counter.read_text()) if counter.exists() else 0


# ------------------------------------------------------------- failures
class TestFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_runs_exactly_once(self, tmp_path, workers):
        counter = tmp_path / "calls"
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep([make_spec(FAIL_COUNT, counter=str(counter)),
                       make_spec(OK)], workers=workers)
        assert excinfo.value.index == 0
        assert counter.read_text() == "x"

    def test_dead_workers_fail_the_sweep_and_leave_no_children(self):
        specs = [make_spec(DIE, label=f"die-{tag}") for tag in range(2)]
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(specs, workers=2)
        assert excinfo.value.spec is specs[excinfo.value.index]
        assert "died abruptly" in str(excinfo.value)
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


# ------------------------------------------------------------ the cache
class TestPointCache:
    def test_cached_points_are_not_recomputed(self, tmp_path):
        counter = tmp_path / "calls"
        specs = [make_spec(COUNT, counter=str(counter), x=x)
                 for x in range(3)]
        first = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls(counter) == 3
        second = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls(counter) == 3, "cached values must short-circuit"
        assert [r.value for r in first] == [r.value for r in second]

    def test_partial_cache_runs_only_the_missing_points(self, tmp_path):
        counter = tmp_path / "calls"
        specs = [make_spec(COUNT, counter=str(counter), x=x)
                 for x in range(4)]
        run_sweep(specs[:2], checkpoint_dir=tmp_path)
        assert calls(counter) == 2
        results = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls(counter) == 4, "only the two missing points may run"
        assert [r.value for r in results] == [0, 1, 2, 3]

    def test_cache_key_distinguishes_params_and_seed(self):
        a = make_spec("e", x=1)
        b = make_spec("e", x=2)
        assert point_cache_key(a, None) != point_cache_key(b, None)
        assert point_cache_key(a, 1) != point_cache_key(a, 2)
        assert point_cache_key(a, 1) == point_cache_key(a, 1)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = make_spec(OK)
        key = point_cache_key(spec, None)
        bad = tmp_path / f"point-{key}.pkl"
        bad.write_bytes(b"this is not a pickle")
        results = run_sweep([spec], checkpoint_dir=tmp_path)
        assert results[0].value == "ok"
        # And the recomputed value replaced the corrupt entry.
        with open(bad, "rb") as handle:
            assert pickle.load(handle) == "ok"

    def test_progress_counts_cached_points(self, tmp_path):
        counter = tmp_path / "calls"
        specs = [make_spec(COUNT, counter=str(counter), x=x)
                 for x in range(3)]
        run_sweep(specs[:2], checkpoint_dir=tmp_path)
        seen = []
        run_sweep(specs, checkpoint_dir=tmp_path,
                  progress=lambda r, done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]
