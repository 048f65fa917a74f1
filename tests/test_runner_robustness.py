"""Tests of the sweep runner's robustness layer.

Wall-clock timeouts, identically-reseeded retries with exponential
backoff, recovery from a worker pool broken by a dying worker, and the
point-value cache that makes killed sweeps resumable.  The governing
invariant: no recovery mechanism may change a sweep's results — a
disturbed sweep and an undisturbed one return byte-identical values.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    SweepPointError,
    make_spec,
    point_cache_key,
    register_experiment,
    run_sweep,
)


@pytest.fixture
def patched_sleep(monkeypatch):
    """Capture retry backoff sleeps instead of actually sleeping."""
    sleeps = []
    monkeypatch.setattr(runner, "_sleep", sleeps.append)
    return sleeps


# -------------------------------------------------------------- timeout
class TestTimeout:
    def test_point_over_budget_is_interrupted(self):
        import time

        def spin(**kwargs):
            for _ in range(10_000):
                time.sleep(0.01)

        register_experiment("rt-spin", spin)
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep([make_spec("rt-spin")], timeout=0.2)
        assert "PointTimeoutError" in str(excinfo.value)

    def test_fast_point_unaffected_by_timeout(self):
        register_experiment("rt-fast", lambda **kw: "done")
        results = run_sweep([make_spec("rt-fast")], timeout=30.0)
        assert results[0].value == "done"

    def test_timer_is_cleared_after_the_point(self):
        import signal

        register_experiment("rt-quick", lambda **kw: 1)
        run_sweep([make_spec("rt-quick")], timeout=5.0)
        # No pending real-timer may leak out of the sweep.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


# -------------------------------------------------------------- retries
class TestRetries:
    def test_flaky_point_recovers_with_backoff(self, patched_sleep):
        calls = {"n": 0}

        def flaky(**kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "recovered"

        register_experiment("rt-flaky", flaky)
        results = run_sweep([make_spec("rt-flaky")], retries=3,
                            retry_backoff=0.5)
        assert results[0].value == "recovered"
        assert calls["n"] == 3
        # Exponential: 0.5, then 1.0 (the third attempt succeeded).
        assert patched_sleep == [0.5, 1.0]

    def test_retries_reuse_the_identical_seed(self, patched_sleep):
        seeds = []

        def flaky_seeded(seed=None, **kwargs):
            seeds.append(seed)
            if len(seeds) < 3:
                raise RuntimeError("transient")
            return seed

        register_experiment("rt-flaky-seed", flaky_seeded)
        results = run_sweep(
            [make_spec("rt-flaky-seed", seed_key="p0")],
            base_seed=42, retries=2,
        )
        assert len(set(seeds)) == 1, "retries must not reseed"
        assert results[0].value == seeds[0]

    def test_exhausted_retries_report_attempt_count(self, patched_sleep):
        register_experiment(
            "rt-hopeless",
            lambda **kw: (_ for _ in ()).throw(RuntimeError("always"))
        )
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep([make_spec("rt-hopeless")], retries=2)
        assert "after 3 attempts" in str(excinfo.value)
        assert patched_sleep == [0.5, 1.0]

    def test_no_retries_by_default(self, patched_sleep):
        calls = {"n": 0}

        def fail_once(**kwargs):
            calls["n"] += 1
            raise RuntimeError("boom")

        register_experiment("rt-failonce", fail_once)
        with pytest.raises(SweepPointError):
            run_sweep([make_spec("rt-failonce")])
        assert calls["n"] == 1
        assert patched_sleep == []


# ---------------------------------------------------------- broken pool
def _die_once(marker: str = "", tag: int = 0, **kwargs):
    """Point that hard-kills its worker exactly once (marker-file latch)."""
    if tag == 1 and marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return f"value-{tag}"


register_experiment("rt-die-once", "tests.test_runner_robustness:_die_once")


def _die_always(**kwargs):
    os._exit(1)


register_experiment("rt-die-always",
                    "tests.test_runner_robustness:_die_always")


class TestBrokenPool:
    def test_killed_worker_pool_recovers(self, tmp_path):
        """One worker hard-exits mid-point; the sweep still completes
        with outputs identical to an undisturbed sweep."""
        marker = str(tmp_path / "killed-once")
        specs = [
            make_spec("rt-die-once", marker=marker, tag=tag)
            for tag in range(4)
        ]
        disturbed = run_sweep(specs, workers=2)
        assert os.path.exists(marker), "the worker was never killed"

        undisturbed = run_sweep(
            [make_spec("rt-die-once", marker="", tag=tag) if tag != 1
             else make_spec("rt-die-once",
                            marker=marker, tag=tag)  # latch already set
             for tag in range(4)],
            workers=2,
        )
        assert ([r.value for r in disturbed]
                == [r.value for r in undisturbed]
                == [f"value-{t}" for t in range(4)])

    def test_respawn_budget_exhaustion_raises(self):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep([make_spec("rt-die-always"),
                       make_spec("rt-die-always")],
                      workers=2, pool_respawns=0)
        assert "respawn budget" in str(excinfo.value)


# ------------------------------------------------------------ the cache
class TestPointCache:
    def test_cached_points_are_not_recomputed(self, tmp_path):
        calls = {"n": 0}

        def counting(x=0, **kwargs):
            calls["n"] += 1
            return x * 10

        register_experiment("rt-counting", counting)
        specs = [make_spec("rt-counting", x=x) for x in range(3)]
        first = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls["n"] == 3
        second = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls["n"] == 3, "cached values must short-circuit"
        assert [r.value for r in first] == [r.value for r in second]

    def test_partial_cache_runs_only_the_missing_points(self, tmp_path):
        calls = {"n": 0}

        def counting(x=0, **kwargs):
            calls["n"] += 1
            return x

        register_experiment("rt-counting2", counting)
        specs = [make_spec("rt-counting2", x=x) for x in range(4)]
        run_sweep(specs[:2], checkpoint_dir=tmp_path)
        assert calls["n"] == 2
        results = run_sweep(specs, checkpoint_dir=tmp_path)
        assert calls["n"] == 4, "only the two missing points may run"
        assert [r.value for r in results] == [0, 1, 2, 3]

    def test_cache_key_distinguishes_params_and_seed(self):
        a = make_spec("e", x=1)
        b = make_spec("e", x=2)
        assert point_cache_key(a, None) != point_cache_key(b, None)
        assert point_cache_key(a, 1) != point_cache_key(a, 2)
        assert point_cache_key(a, 1) == point_cache_key(a, 1)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        register_experiment("rt-const", lambda **kw: "fresh")
        spec = make_spec("rt-const")
        key = point_cache_key(spec, None)
        bad = tmp_path / f"point-{key}.pkl"
        bad.write_bytes(b"this is not a pickle")
        results = run_sweep([spec], checkpoint_dir=tmp_path)
        assert results[0].value == "fresh"
        # And the recomputed value replaced the corrupt entry.
        with open(bad, "rb") as handle:
            assert pickle.load(handle) == "fresh"

    def test_progress_counts_cached_points(self, tmp_path):
        register_experiment("rt-progress", lambda x=0, **kw: x)
        specs = [make_spec("rt-progress", x=x) for x in range(3)]
        run_sweep(specs[:2], checkpoint_dir=tmp_path)
        seen = []
        run_sweep(specs, checkpoint_dir=tmp_path,
                  progress=lambda r, done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]
