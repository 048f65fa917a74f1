"""Parallel sweep engine: deterministic fan-out of independent points.

The paper's figures are *sweeps* — dozens of independent (simulator,
scenario, workload-knob) simulation runs whose results are assembled into
one table or curve.  Every point is completely independent of the others,
which makes the sweep embarrassingly parallel; this module turns that
observation into a process-pool engine with three hard guarantees:

**Determinism.**  Results are returned in spec-submission order, and any
randomness a point needs is derived from an explicit seed via
:func:`repro.rng.derive_seed`, never from
worker identity, scheduling order or wall clock.  The output of a sweep is
therefore byte-identical for *any* worker count, including the inline
``workers=1`` mode — the property the determinism tests pin down.

**Nothing unpicklable crosses the process boundary.**  A point travels as
a small :class:`PointSpec` (an experiment name registered in
:data:`repro.snapshot.recipe.EXPERIMENTS`, or a ``"module:attr"``
function, plus picklable keyword arguments); the simulation itself is
built *inside* the worker, spec-driven, by the experiment's recipe.  What
comes back is a :class:`PointResult` wrapping the experiment's
plain-dataclass value.

**Failures carry their spec.**  A point that raises in a worker surfaces
in the parent as a :class:`SweepPointError` with the failing
:class:`PointSpec` attached and the remote traceback in the message;
remaining queued points are cancelled.  A worker that dies mid-point
fails the sweep the same way.  ``KeyboardInterrupt`` cancels the queue
and shuts the pool down cleanly before re-raising.  A point is never
retried: rerunning a failed sweep with the same ``checkpoint_dir=``
recomputes only the points whose values are not cached.

The worker count resolves, in order: the explicit ``workers=`` argument,
the ``REPRO_WORKERS`` environment variable (an integer, or ``auto`` for
the CPU count), then ``1`` (inline, no subprocesses) — so existing serial
callers and the parity suite are unaffected unless parallelism is asked
for.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.rng import derive_seed
from repro.snapshot.recipe import EXPERIMENTS, load_target, run_experiment

#: Environment variable consulted when ``workers`` is not passed explicitly.
WORKERS_ENV = "REPRO_WORKERS"

def experiment_fn(name: str) -> Callable[..., Any]:
    """Resolve a point's experiment name to the callable that runs it.

    A name registered in :data:`repro.snapshot.recipe.EXPERIMENTS` runs
    through :func:`~repro.snapshot.recipe.run_experiment`; a
    ``"module:attr"`` name imports a function for points that are not one
    simulation (exp8's ablation grid).
    """
    if name in EXPERIMENTS:
        return partial(run_experiment, name)
    if ":" in name:
        return load_target(name)
    raise ConfigurationError(
        f"unknown experiment {name!r}; registered: {sorted(EXPERIMENTS)}"
    )


@dataclass(frozen=True)
class PointSpec:
    """One independent simulation point of a sweep.

    Attributes
    ----------
    experiment:
        A registered experiment name or a ``"module:attr"`` function (see
        :func:`experiment_fn`).
    params:
        Keyword arguments for the experiment function, as a sorted tuple
        of ``(name, value)`` pairs; every value must be picklable.
    label:
        Human-readable point label used in error messages and progress
        reporting; defaults to ``experiment``.
    seed_key:
        When set (together with ``run_sweep(base_seed=...)``), the engine
        injects ``seed=derive_seed(base_seed, seed_key)`` into the
        experiment's keyword arguments — per-point seed derivation that is
        independent of point order and worker count.
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...] = ()
    label: Optional[str] = None
    seed_key: Optional[str] = None

    def kwargs(self) -> Dict[str, Any]:
        """The spec's parameters as a keyword-argument dict."""
        return dict(self.params)

    @property
    def name(self) -> str:
        """Display name of the point."""
        return self.label or self.experiment

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"<PointSpec {self.name!r}: {self.experiment}({inner})>"


def make_spec(experiment: str, *, label: Optional[str] = None,
              seed_key: Optional[str] = None, **params: Any) -> PointSpec:
    """Build a :class:`PointSpec` from keyword arguments.

    Parameters are sorted by name so two specs built from the same
    arguments compare (and pickle) identically regardless of call-site
    keyword order.
    """
    return PointSpec(
        experiment=experiment,
        params=tuple(sorted(params.items())),
        label=label,
        seed_key=seed_key,
    )


@dataclass
class PointResult:
    """Outcome of one executed sweep point.

    ``wallclock_time`` is the in-worker execution time of the point and
    ``pid`` the worker process id — diagnostics only: neither is
    deterministic, so result tables must be built from ``value``.
    """

    spec: PointSpec
    index: int
    value: Any
    wallclock_time: float
    pid: int


class SweepPointError(SimulationError):
    """A sweep point failed; carries the failing spec and its index."""

    def __init__(self, spec: PointSpec, index: int, message: str):
        super().__init__(
            f"sweep point #{index} ({spec.name!r}) failed: {message}"
        )
        self.spec = spec
        self.index = index


def resolve_workers(workers: Union[None, int, str] = None) -> int:
    """Resolve a worker count: argument, then ``REPRO_WORKERS``, then 1.

    ``"auto"`` (argument or environment) means the machine's CPU count.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        workers = env
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(workers)
        except ValueError:
            raise ConfigurationError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            ) from None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


# ------------------------------------------------------------------ execution
def _describe_exception(exc: BaseException) -> Tuple[str, str, str]:
    """Reduce an exception to three plain strings (type, message, traceback).

    Defensive by construction: a hostile ``__str__``/``__repr__`` (or an
    exception raised while *formatting* the traceback) must not replace
    the point's failure report with a formatting failure, so every lossy
    step falls back to the next cruder one.
    """
    try:
        message = str(exc)
    except BaseException:  # noqa: BLE001 - fall back to repr, then type
        try:
            message = repr(exc)
        except BaseException:  # noqa: BLE001
            message = "<unprintable exception>"
    try:
        remote_tb = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    except BaseException:  # noqa: BLE001
        remote_tb = "<traceback unavailable>"
    return type(exc).__name__, message, remote_tb


def point_cache_key(spec: PointSpec, seed: Optional[int]) -> str:
    """Deterministic identity of one point: experiment + params + seed.

    The canonical-JSON hash is stable across processes and platforms, so
    a resumed sweep recognizes its own cached values.
    """
    from repro.snapshot.canonical import canonical_json
    import hashlib

    doc = canonical_json({
        "experiment": spec.experiment,
        "params": dict(spec.params),
        "seed": seed,
    })
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def _point_value_path(checkpoint_dir: str, key: str) -> Path:
    return Path(checkpoint_dir) / f"point-{key}.pkl"


def _load_cached_value(checkpoint_dir: str, key: str):
    """Return ``(True, value)`` if the point's value is cached, else ``(False, None)``."""
    path = _point_value_path(checkpoint_dir, key)
    if not path.exists():
        return False, None
    try:
        with open(path, "rb") as handle:
            return True, pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        # A corrupt or stale cache entry is recomputed, never fatal.
        return False, None


def _store_cached_value(checkpoint_dir: str, key: str, value) -> None:
    path = _point_value_path(checkpoint_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(value, handle)
    os.replace(tmp, path)


def _execute_point(payload: Tuple[int, PointSpec, Optional[int], Optional[str]]):
    """Run one point (in a worker or inline) and report success or failure.

    Returns ``(index, ok, value_or_error, elapsed, pid)``.  Failures are
    returned as ``(type name, message, formatted traceback)`` — three
    plain strings — rather than raised, so arbitrary (possibly
    unpicklable) exceptions never poison the pool's result channel.  A
    finished value is cached under the payload's checkpoint directory.
    """
    index, spec, seed, checkpoint_dir = payload
    kwargs = spec.kwargs()
    if seed is not None:
        kwargs["seed"] = seed
    start = time.perf_counter()
    try:
        value = experiment_fn(spec.experiment)(**kwargs)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - reported with the spec
        return (index, False, _describe_exception(exc),
                time.perf_counter() - start, os.getpid())
    elapsed = time.perf_counter() - start
    if checkpoint_dir is not None:
        try:
            _store_cached_value(checkpoint_dir, point_cache_key(spec, seed),
                                value)
        except (OSError, pickle.PickleError):
            pass  # caching is best-effort; the value still returns
    return index, True, value, elapsed, os.getpid()


def _payloads(
    specs: Sequence[PointSpec], base_seed: Optional[int],
    checkpoint_dir: Optional[str],
) -> List[Tuple[int, PointSpec, Optional[int], Optional[str]]]:
    payloads = []
    for index, spec in enumerate(specs):
        seed = None
        if spec.seed_key is not None:
            if base_seed is None:
                raise ConfigurationError(
                    f"spec {spec.name!r} has seed_key={spec.seed_key!r} but "
                    "run_sweep was called without base_seed"
                )
            seed = derive_seed(base_seed, spec.seed_key)
        payloads.append((index, spec, seed, checkpoint_dir))
    return payloads


def _run_inline(payloads, progress) -> List[PointResult]:
    results: List[PointResult] = []
    total = len(payloads)
    for payload in payloads:
        index, spec = payload[0], payload[1]
        outcome = _execute_point(payload)
        _, ok, value, elapsed, pid = outcome
        if not ok:
            type_name, message, remote_tb = value
            raise SweepPointError(
                spec, index, f"{type_name}: {message}\n{remote_tb}"
            )
        result = PointResult(spec=spec, index=index, value=value,
                             wallclock_time=elapsed, pid=pid)
        results.append(result)
        if progress is not None:
            progress(result, len(results), total)
    return results


def _mp_context():
    """The multiprocessing context used for pools.

    ``fork`` (where available) inherits the parent's imported modules;
    elsewhere the default context is used and experiments resolve by
    import.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool(payloads, workers, progress) -> List[PointResult]:
    """Fan payloads over a process pool; the first failure fails the sweep.

    A worker dying mid-point (OOM kill, segfault, ``os._exit``) breaks
    the whole :class:`ProcessPoolExecutor`, not just its own future; the
    sweep then fails with a :class:`SweepPointError` naming the first
    unfinished point.  With ``checkpoint_dir=`` the values finished
    before the failure are cached, so a rerun computes only the rest.
    """
    total = len(payloads)
    by_index = {payload[0]: payload[1] for payload in payloads}
    results: Dict[int, PointResult] = {}
    executor = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_mp_context())
    futures: Dict[Any, int] = {}
    try:
        for payload in payloads:
            futures[executor.submit(_execute_point, payload)] = payload[0]
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    index, ok, value, elapsed, pid = future.result()
                except (KeyboardInterrupt, BrokenProcessPool):
                    raise
                except BaseException as exc:  # noqa: BLE001
                    # The failure report itself failed to cross the
                    # process boundary (unpicklable point *value*...).
                    # Pin the blame on the point whose future broke
                    # instead of surfacing a bare pool internals error.
                    index = futures[future]
                    type_name, message, _ = _describe_exception(exc)
                    raise SweepPointError(
                        by_index[index], index,
                        f"result could not be retrieved from the worker: "
                        f"{type_name}: {message}",
                    ) from exc
                if not ok:
                    type_name, message, remote_tb = value
                    raise SweepPointError(
                        by_index[index], index,
                        f"{type_name}: {message}\n--- worker traceback ---\n"
                        f"{remote_tb}",
                    )
                result = PointResult(spec=by_index[index], index=index,
                                     value=value, wallclock_time=elapsed,
                                     pid=pid)
                results[index] = result
                if progress is not None:
                    progress(result, len(results), total)
    except BaseException as exc:
        # Failure, KeyboardInterrupt, a raising progress callback or a
        # worker that died and broke the pool: drop everything still
        # queued and shut the pool down before propagating (in-flight
        # points finish, workers then exit).
        for future in futures:
            future.cancel()
        executor.shutdown(wait=True, cancel_futures=True)
        if isinstance(exc, BrokenProcessPool):
            index = next(p[0] for p in payloads if p[0] not in results)
            raise SweepPointError(
                by_index[index], index,
                "a worker process died abruptly and broke the pool",
            ) from exc
        raise
    executor.shutdown(wait=True)
    return [results[index] for index in sorted(results)]


def run_sweep(specs: Sequence[PointSpec], *,
              workers: Union[None, int, str] = None,
              base_seed: Optional[int] = None,
              progress: Optional[Callable[[PointResult, int, int], None]] = None,
              checkpoint_dir: Union[None, str, Path] = None,
              ) -> List[PointResult]:
    """Execute every spec and return results in spec order.

    Parameters
    ----------
    specs:
        The sweep's points; executed independently, submitted in order.
    workers:
        Process count (``1`` = inline in this process, no pool).  ``None``
        resolves via ``REPRO_WORKERS`` (default 1); ``"auto"`` uses the
        CPU count.
    base_seed:
        Base seed for specs carrying a ``seed_key`` (per-point seeds are
        derived, not shared, so results are worker-count independent).
    progress:
        Called as ``progress(result, n_completed, n_total)`` after each
        point completes.  Completion order is nondeterministic under a
        pool; only the returned list's order is guaranteed.
    checkpoint_dir:
        Crash-recovery directory for the sweep.  Finished point values
        are cached here and skipped on a re-run, so a sweep that failed
        or was killed, re-invoked with the same directory, completes with
        byte-identical outputs, computing only what is missing.

    Returns
    -------
    ``PointResult`` list in the same order as ``specs``, regardless of
    completion order — with per-point seeding this makes sweep outputs
    byte-identical across worker counts.
    """
    if checkpoint_dir is not None:
        checkpoint_dir = str(checkpoint_dir)
    payloads = _payloads(list(specs), base_seed, checkpoint_dir)
    total = len(payloads)

    # Resume: points whose value is already cached are not re-executed.
    cached: Dict[int, PointResult] = {}
    if checkpoint_dir is not None:
        pending = []
        for payload in payloads:
            index, spec, seed, _ = payload
            hit, value = _load_cached_value(checkpoint_dir,
                                            point_cache_key(spec, seed))
            if hit:
                cached[index] = PointResult(
                    spec=spec, index=index, value=value,
                    wallclock_time=0.0, pid=os.getpid(),
                )
            else:
                pending.append(payload)
        payloads = pending
        if progress is not None:
            for done, index in enumerate(sorted(cached), start=1):
                progress(cached[index], done, total)
        if progress is not None and cached:
            inner_progress = progress

            def progress(result, n_completed, n_total,
                         _offset=len(cached), _inner=inner_progress):
                _inner(result, n_completed + _offset, total)

    if not payloads:
        return [cached[index] for index in sorted(cached)]
    count = resolve_workers(workers)
    if count == 1 or len(payloads) <= 1:
        executed = _run_inline(payloads, progress)
    else:
        executed = _run_pool(payloads, min(count, max(1, len(payloads))),
                             progress)
    merged = dict(cached)
    merged.update({result.index: result for result in executed})
    return [merged[index] for index in sorted(merged)]


def run_named_sweep(experiment: str, variants: Dict[Any, Dict[str, Any]], *,
                    workers: Union[None, int, str] = None,
                    base_seed: Optional[int] = None,
                    progress: Optional[Callable[[PointResult, int, int], None]] = None,
                    **run_kwargs: Any) -> Dict[Any, Any]:
    """Run one sweep point per ``variants`` entry; return ``{key: value}``.

    ``variants`` maps a display key (a string, tuple, …) to the keyword
    arguments of one ``experiment`` run; the key also labels the point.
    This is the shape of every comparison series (placements × one
    workload, policies × one trace, …): insertion order is preserved and
    the values come back matched to their keys for any worker count.
    Further keywords (``checkpoint_dir``) pass through to
    :func:`run_sweep`.
    """
    keys = list(variants)
    values = sweep_values(
        [
            make_spec(experiment, label=f"{experiment}[{key}]",
                      **variants[key])
            for key in keys
        ],
        workers=workers,
        base_seed=base_seed,
        progress=progress,
        **run_kwargs,
    )
    return dict(zip(keys, values))


def sweep_values(specs: Sequence[PointSpec], *,
                 workers: Union[None, int, str] = None,
                 base_seed: Optional[int] = None,
                 progress: Optional[Callable[[PointResult, int, int], None]] = None,
                 **run_kwargs: Any) -> List[Any]:
    """Like :func:`run_sweep`, returning just the point values in order."""
    return [
        result.value
        for result in run_sweep(
            specs, workers=workers, base_seed=base_seed, progress=progress,
            **run_kwargs,
        )
    ]
