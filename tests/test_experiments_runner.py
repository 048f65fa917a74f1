"""Sweep-engine tests: determinism, seeding, failure paths, clean shutdown.

The engine's contract (see :mod:`repro.experiments.runner`):

* results come back in spec order and are byte-identical for any worker
  count — proven here both on synthetic experiments and on the real
  exp5/exp6 sweep pipelines;
* per-point seeds derive from ``(base_seed, seed_key)`` only;
* a point failing in a worker surfaces as :class:`SweepPointError` with
  the failing :class:`PointSpec` attached;
* ``KeyboardInterrupt`` cancels the queue and shuts the pool down
  cleanly (no worker processes left behind).

The synthetic experiments below are module-level functions named
``"<this module>:<function>"``; the pool uses a fork context on Linux, so
workers find this module already imported under the same name.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    SweepPointError,
    make_spec,
    resolve_workers,
    run_sweep,
    sweep_values,
)
from repro.rng import derive_seed
from repro.snapshot.recipe import EXPERIMENTS


# --------------------------------------------------------- test experiments
def _square(x):
    return x * x


def _echo_seed(tag, seed=None):
    return (tag, seed)


def _boom(x):
    raise ValueError(f"boom on {x}")


def _nap(duration):
    time.sleep(duration)
    return duration


class _HostileError(Exception):
    """An exception whose every printable surface raises."""

    def __str__(self):
        raise RuntimeError("no str for you")

    def __repr__(self):
        raise RuntimeError("no repr either")


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("cannot cross process boundary")
        self.payload = lambda: None  # lambdas do not pickle


def _raise_hostile(x):
    raise _HostileError()


def _raise_unpicklable(x):
    raise _UnpicklableError()


def _return_unpicklable(x):
    return lambda: x  # the *value* fails to pickle on the way back


# Point names resolve by import.  ``__name__`` is the name pytest imported
# this module under, so a worker finds the same module object (and never
# loads a second copy).
SQUARE = f"{__name__}:_square"
ECHO_SEED = f"{__name__}:_echo_seed"
BOOM = f"{__name__}:_boom"
NAP = f"{__name__}:_nap"
HOSTILE = f"{__name__}:_raise_hostile"
UNPICKLABLE_EXC = f"{__name__}:_raise_unpicklable"
UNPICKLABLE_VALUE = f"{__name__}:_return_unpicklable"


def _no_children(timeout=10.0):
    """True once no worker subprocesses remain (poll up to ``timeout``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


# ------------------------------------------------------------------- config
class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_auto_uses_cpu_count(self):
        import os

        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1, "zero"])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad)


class TestSpecs:
    def test_params_are_sorted_and_picklable(self):
        import pickle

        spec = make_spec(SQUARE, x=3)
        other = make_spec(SQUARE, x=3)
        assert spec == other
        assert pickle.loads(pickle.dumps(spec)) == spec
        multi = make_spec("exp2", simulator="real", n_apps=4, nfs=False)
        assert [name for name, _ in multi.params] == sorted(
            name for name, _ in multi.params
        )

    def test_unknown_experiment_fails_with_spec(self):
        with pytest.raises(SweepPointError) as err:
            run_sweep([make_spec("no-such-experiment")])
        assert err.value.spec.experiment == "no-such-experiment"
        for name in EXPERIMENTS:
            assert repr(name) in str(err.value), name

    def test_builtin_registry_targets_resolve(self):
        from repro.experiments.runner import experiment_fn

        for name in EXPERIMENTS:
            assert callable(experiment_fn(name)), name
        assert set(EXPERIMENTS) >= {"exp1", "exp2", "exp4", "exp6", "exp7",
                                    "exp9"}
        assert experiment_fn(SQUARE)(x=3) == 9


# -------------------------------------------------------------- determinism
class TestDeterminism:
    def test_results_in_spec_order_any_worker_count(self):
        specs = [make_spec(SQUARE, x=x) for x in range(12)]
        inline = sweep_values(specs, workers=1)
        pooled = sweep_values(specs, workers=4)
        assert inline == [x * x for x in range(12)]
        assert pooled == inline

    def test_progress_reports_every_point(self):
        seen = []
        results = run_sweep(
            [make_spec(SQUARE, x=x) for x in range(5)],
            workers=1,
            progress=lambda result, done, total: seen.append(
                (result.index, done, total)
            ),
        )
        assert [r.index for r in results] == list(range(5))
        assert [done for _, done, _ in seen] == [1, 2, 3, 4, 5]
        assert all(total == 5 for _, _, total in seen)

    def test_seed_derivation_is_order_and_worker_independent(self):
        specs = [
            make_spec(ECHO_SEED, tag=tag, seed_key=f"point:{tag}")
            for tag in ("a", "b", "c", "d")
        ]
        inline = sweep_values(specs, workers=1, base_seed=42)
        pooled = sweep_values(specs, workers=3, base_seed=42)
        assert inline == pooled
        assert inline == [
            (tag, derive_seed(42, f"point:{tag}"))
            for tag in ("a", "b", "c", "d")
        ]
        # Reversing the sweep order changes nothing about each point's seed.
        reversed_values = sweep_values(list(reversed(specs)), workers=1,
                                       base_seed=42)
        assert reversed_values == list(reversed(inline))

    def test_run_named_sweep_matches_keys_to_values(self):
        from repro.experiments.runner import run_named_sweep

        variants = {("sq", x): dict(x=x) for x in (3, 1, 2)}
        results = run_named_sweep(SQUARE, variants, workers=2)
        assert list(results) == [("sq", 3), ("sq", 1), ("sq", 2)]
        assert results == {("sq", 3): 9, ("sq", 1): 1, ("sq", 2): 4}

    def test_seed_key_without_base_seed_is_an_error(self):
        with pytest.raises(ConfigurationError):
            run_sweep([make_spec(ECHO_SEED, tag="a", seed_key="k")])

    def test_exp5_sweep_outputs_byte_identical_across_worker_counts(self):
        from repro.experiments.exp5_scaling import run_scaling
        from repro.units import GB, MB

        def table(curves):
            return "\n".join(
                f"{label}|{p.n_apps}|{p.simulated_makespan!r}"
                for label, points in curves.items()
                for p in points
            ).encode()

        kwargs = dict(
            configs=(("wrench-cache", False),),
            input_size=1 * GB,
            chunk_size=100 * MB,
        )
        serial = run_scaling((1, 2), workers=1, **kwargs)
        pooled = run_scaling((1, 2), workers=4, **kwargs)
        assert table(serial) == table(pooled)

    def test_exp6_sweep_outputs_byte_identical_across_worker_counts(self):
        from repro.experiments.exp6_cluster import exp6_report, exp6_series

        kwargs = dict(n_jobs=24, n_nodes=4, n_datasets=6)
        serial = exp6_series(("round-robin", "cache"), workers=1, **kwargs)
        pooled = exp6_series(("round-robin", "cache"), workers=4, **kwargs)
        # The rendered report (placement, policy, hit ratio, makespan,
        # waits, slowdown, utilization, throughput) is the result table;
        # it contains no wall-clock column and must match byte for byte.
        assert exp6_report(serial).encode() == exp6_report(pooled).encode()


# ------------------------------------------------------------ failure paths
class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_exception_surfaces_failing_spec(self, workers):
        specs = [
            make_spec(SQUARE, x=1, label="ok-point"),
            make_spec(BOOM, x=99, label="bad-point"),
            make_spec(SQUARE, x=2),
        ]
        with pytest.raises(SweepPointError) as err:
            run_sweep(specs, workers=workers)
        assert err.value.spec.label == "bad-point"
        assert err.value.index == 1
        assert "ValueError" in str(err.value)
        assert "boom on 99" in str(err.value)
        if workers > 1:
            assert _no_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unpicklable_worker_exception_still_carries_the_spec(self, workers):
        # The exception itself cannot cross the process boundary; the
        # engine ships (type, message, traceback) strings instead, so the
        # parent still learns which point died and why.
        specs = [make_spec(UNPICKLABLE_EXC, x=1, label="poison")]
        with pytest.raises(SweepPointError) as err:
            run_sweep(specs, workers=workers)
        assert err.value.spec.label == "poison"
        assert "_UnpicklableError" in str(err.value)
        assert "cannot cross process boundary" in str(err.value)
        if workers > 1:
            assert _no_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hostile_exception_repr_does_not_mask_the_failure(self, workers):
        # str(exc) and repr(exc) both raise; the report degrades to the
        # type name instead of replacing the failure with a new one.
        specs = [make_spec(HOSTILE, x=1, label="hostile")]
        with pytest.raises(SweepPointError) as err:
            run_sweep(specs, workers=workers)
        assert err.value.spec.label == "hostile"
        assert "_HostileError" in str(err.value)

    def test_unpicklable_point_value_becomes_sweep_point_error(self):
        # Success values must pickle to cross back from a pool worker;
        # when one does not, the error names the guilty point rather
        # than surfacing a bare pool internals failure.  (Inline runs
        # never pickle, so this is pool-only behaviour.)
        specs = [
            make_spec(SQUARE, x=2, label="fine"),
            make_spec(UNPICKLABLE_VALUE, x=1, label="lambda-point"),
        ]
        with pytest.raises(SweepPointError) as err:
            run_sweep(specs, workers=2)
        assert err.value.spec.label == "lambda-point"
        assert _no_children()

    def test_keyboard_interrupt_shuts_the_pool_down_cleanly(self):
        specs = [make_spec(NAP, duration=0.2) for _ in range(8)]

        def interrupt_after_first(result, done, total):
            raise KeyboardInterrupt

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(specs, workers=2, progress=interrupt_after_first)
        # Queued points were cancelled (8 x 0.2s would take ~0.8s on two
        # workers; the interrupt path only waits out the in-flight ones)
        # and no worker process is left behind.
        assert time.monotonic() - started < 5.0
        assert _no_children()
