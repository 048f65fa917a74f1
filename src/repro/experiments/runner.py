"""Parallel sweep engine: deterministic fan-out of independent points.

The paper's figures are *sweeps* — dozens of independent (simulator,
scenario, workload-knob) simulation runs whose results are assembled into
one table or curve.  Every point is completely independent of the others,
which makes the sweep embarrassingly parallel; this module turns that
observation into a process-pool engine with three hard guarantees:

**Determinism.**  Results are returned in spec-submission order, and any
randomness a point needs is derived from an explicit seed via
:func:`derive_point_seed` (:mod:`repro.rng` under the hood), never from
worker identity, scheduling order or wall clock.  The output of a sweep is
therefore byte-identical for *any* worker count, including the inline
``workers=1`` mode — the property the determinism tests pin down.

**Nothing unpicklable crosses the process boundary.**  A point travels as
a small :class:`PointSpec` (an experiment name registered in
:data:`EXPERIMENTS` plus picklable keyword arguments); the simulation
itself is built *inside* the worker, spec-driven, through the experiment
functions (which construct via
:func:`repro.experiments.harness.build_simulation`).  What comes back is a
:class:`PointResult` wrapping the experiment's plain-dataclass value.

**Failures carry their spec.**  A point that raises in a worker surfaces
in the parent as a :class:`SweepPointError` with the failing
:class:`PointSpec` attached and the remote traceback in the message;
remaining queued points are cancelled.  ``KeyboardInterrupt`` cancels the
queue and shuts the pool down cleanly before re-raising.

The worker count resolves, in order: the explicit ``workers=`` argument,
the ``REPRO_WORKERS`` environment variable (an integer, or ``auto`` for
the CPU count), then ``1`` (inline, no subprocesses) — so existing serial
callers and the parity suite are unaffected unless parallelism is asked
for.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.rng import derive_seed

#: Patchable sleep used between point retries (tests stub it out).
_sleep = time.sleep

#: Environment variable consulted when ``workers`` is not passed explicitly.
WORKERS_ENV = "REPRO_WORKERS"

#: Registered experiment kinds.  Values are either callables or lazy
#: ``"module:attribute"`` strings (resolved at execution time, in the
#: worker, so the registry itself stays import-cycle-free and picklable
#: specs never carry function objects).
EXPERIMENTS: Dict[str, Union[str, Callable[..., Any]]] = {
    "exp1": "repro.experiments.exp1_single:run_exp1",
    "exp2": "repro.experiments.exp2_concurrent:run_exp2",
    "exp3": "repro.experiments.exp3_nfs:run_exp3",
    "exp4": "repro.experiments.exp4_nighres:run_exp4",
    "exp5-point": "repro.experiments.exp5_scaling:measure_point",
    "exp6": "repro.experiments.exp6_cluster:run_exp6",
    "exp7": "repro.experiments.exp7_trace_replay:run_exp7",
    "exp8": "repro.experiments.exp8_policy_ablation:run_exp8",
    "exp9": "repro.experiments.exp9_failures:run_exp9",
    "exp10": "repro.experiments.exp10_warmstart:run_exp10",
}


def register_experiment(name: str,
                        target: Union[str, Callable[..., Any]]) -> None:
    """Register an experiment kind for spec-driven execution.

    ``target`` is a callable or a ``"module:attribute"`` string.  String
    targets work with every pool start method; bare callables require a
    fork-based pool (the default on Linux) or inline execution, because
    spawn-started workers re-import modules and only see registrations
    made at import time.
    """
    if not callable(target) and ":" not in str(target):
        raise ConfigurationError(
            f"experiment target must be a callable or 'module:attr' string, "
            f"got {target!r}"
        )
    EXPERIMENTS[name] = target


def experiment_fn(name: str) -> Callable[..., Any]:
    """Resolve a registered experiment name to its callable."""
    try:
        target = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: {sorted(EXPERIMENTS)}"
        ) from None
    if callable(target):
        return target
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def derive_point_seed(base_seed: int, key: str) -> int:
    """Derive a per-point seed from ``(base_seed, key)``.

    Stable across platforms, processes and worker counts (SHA-256 based,
    see :mod:`repro.rng`), so a sweep's random workloads do not depend on
    which worker runs which point.
    """
    return derive_seed(base_seed, key)


@dataclass(frozen=True)
class PointSpec:
    """One independent simulation point of a sweep.

    Attributes
    ----------
    experiment:
        Name of a registered experiment kind (see :data:`EXPERIMENTS`).
    params:
        Keyword arguments for the experiment function, as a sorted tuple
        of ``(name, value)`` pairs; every value must be picklable.
    label:
        Human-readable point label used in error messages and progress
        reporting; defaults to ``experiment``.
    seed_key:
        When set (together with ``run_sweep(base_seed=...)``), the engine
        injects ``seed=derive_point_seed(base_seed, seed_key)`` into the
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


class PointTimeoutError(SimulationError):
    """A sweep point exceeded its wall-clock ``timeout=`` budget."""


@dataclass(frozen=True)
class PointOptions:
    """Per-point execution policy, shipped to the worker with the spec.

    Attributes
    ----------
    timeout:
        Wall-clock seconds one attempt of the point may run before being
        interrupted with :class:`PointTimeoutError` (``None`` = no limit).
        Enforced with ``SIGALRM`` on a Unix main thread and with an
        async-exception watchdog thread everywhere else.
    retries:
        Extra attempts after a failed one.  Every attempt runs with the
        *identical* derived seed and parameters — a retried point is a
        reseeded-identical rerun, so a flaky-environment retry can never
        change the sweep's results.
    retry_backoff:
        Base of the exponential backoff between attempts: attempt ``k``
        sleeps ``retry_backoff * 2**k`` seconds (via the patchable
        module-level ``_sleep``).
    checkpoint_dir:
        Directory of the sweep's crash-recovery state: finished point
        values are cached here, and a re-run sweep skips them.
    """

    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.5
    checkpoint_dir: Optional[str] = None


_DEFAULT_OPTIONS = PointOptions()


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


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Interrupt the enclosed block after ``seconds`` of wall-clock time.

    On a Unix main thread this uses ``SIGALRM``/``setitimer``.  Anywhere
    else — a sweep driven from a worker thread, or a platform without
    ``SIGALRM`` — it falls back to a watchdog thread that injects
    :class:`PointTimeoutError` into the running thread via CPython's
    ``PyThreadState_SetAsyncExc``, so the limit is enforced everywhere a
    CPU-bound simulation can run.  If neither mechanism is available the
    limit raises :class:`~repro.errors.ConfigurationError` up front
    instead of silently running unbounded.
    """
    if seconds is None:
        yield
        return
    import signal
    import threading

    if (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()):

        def _on_alarm(signum, frame):
            raise PointTimeoutError(
                f"point exceeded its wall-clock timeout of {seconds}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    with _async_exc_limit(seconds):
        yield


@contextmanager
def _async_exc_limit(seconds: float):
    """Watchdog-thread timeout for threads that cannot receive signals.

    ``PyThreadState_SetAsyncExc`` schedules the exception at the target
    thread's next bytecode boundary, which is exactly where a pure-Python
    simulation loop spends its time.  The pending exception is cleared on
    exit in case the watchdog fired just as the block finished.
    """
    import ctypes
    import threading

    api = getattr(ctypes, "pythonapi", None)
    set_async_exc = getattr(api, "PyThreadState_SetAsyncExc", None)
    if set_async_exc is None:
        raise ConfigurationError(
            "timeout= needs SIGALRM on a Unix main thread or CPython's "
            "PyThreadState_SetAsyncExc; neither is available here — run "
            "the sweep from the main thread or drop the timeout"
        )
    target = ctypes.c_ulong(threading.get_ident())
    finished = threading.Event()

    def _watchdog() -> None:
        if finished.wait(seconds):
            return
        hit = set_async_exc(target, ctypes.py_object(PointTimeoutError))
        if hit > 1:  # pragma: no cover - CPython contract: undo a misfire
            set_async_exc(target, None)

    watchdog = threading.Thread(target=_watchdog,
                                name="point-timeout-watchdog", daemon=True)
    watchdog.start()
    try:
        yield
    except PointTimeoutError:
        raise PointTimeoutError(
            f"point exceeded its wall-clock timeout of {seconds}s"
        ) from None
    finally:
        finished.set()
        watchdog.join()
        set_async_exc(target, None)  # drop a not-yet-delivered injection


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


def _execute_point(
    payload: Tuple[int, PointSpec, Optional[int], PointOptions]
):
    """Run one point (in a worker or inline) and report success or failure.

    Returns ``(index, ok, value_or_error, elapsed, pid)``.  Failures are
    returned as ``(type name, message, formatted traceback)`` — three
    plain strings — rather than raised, so arbitrary (possibly
    unpicklable) exceptions never poison the pool's result channel.
    Honors the payload's :class:`PointOptions`: each attempt runs under
    the wall-clock ``timeout``, failed attempts are retried up to
    ``retries`` times with exponential backoff and the *identical* seed,
    and a finished value is cached under ``checkpoint_dir``.
    """
    index, spec, seed, options = payload
    kwargs = spec.kwargs()
    if seed is not None:
        kwargs["seed"] = seed
    attempts = max(0, options.retries) + 1
    start = time.perf_counter()
    detail = ("SimulationError", "point never ran", "")
    for attempt in range(attempts):
        try:
            with _wall_clock_limit(options.timeout):
                value = experiment_fn(spec.experiment)(**kwargs)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported with the spec
            type_name, message, remote_tb = _describe_exception(exc)
            if attempt + 1 < attempts:
                _sleep(options.retry_backoff * (2 ** attempt))
                continue
            if attempts > 1:
                message = f"(after {attempts} attempts) {message}"
            detail = (type_name, message, remote_tb)
        else:
            elapsed = time.perf_counter() - start
            if options.checkpoint_dir is not None:
                try:
                    _store_cached_value(
                        options.checkpoint_dir,
                        point_cache_key(spec, seed), value,
                    )
                except (OSError, pickle.PickleError):
                    pass  # caching is best-effort; the value still returns
            return index, True, value, elapsed, os.getpid()
    return index, False, detail, time.perf_counter() - start, os.getpid()


def _payloads(
    specs: Sequence[PointSpec], base_seed: Optional[int],
    options: PointOptions = _DEFAULT_OPTIONS,
) -> List[Tuple[int, PointSpec, Optional[int], PointOptions]]:
    payloads = []
    for index, spec in enumerate(specs):
        seed = None
        if spec.seed_key is not None:
            if base_seed is None:
                raise ConfigurationError(
                    f"spec {spec.name!r} has seed_key={spec.seed_key!r} but "
                    "run_sweep was called without base_seed"
                )
            seed = derive_point_seed(base_seed, spec.seed_key)
        payloads.append((index, spec, seed, options))
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

    ``fork`` (where available) inherits the parent's experiment registry,
    so test-registered callables work; elsewhere the default context is
    used and string-registered experiments resolve by import.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool(payloads, workers, progress, *,
              pool_respawns: int = 1) -> List[PointResult]:
    """Fan payloads over a process pool, surviving pool crashes.

    A worker dying mid-point (OOM kill, segfault, ``os._exit``) breaks
    the whole :class:`ProcessPoolExecutor`, not just its own future.  The
    results already retrieved are kept; the pool is respawned (at most
    ``pool_respawns`` times) and only the still-unfinished points are
    resubmitted — with per-point seeding the resubmitted points produce
    byte-identical values, so an undisturbed sweep and a
    crashed-and-recovered one cannot differ.
    """
    total = len(payloads)
    by_index = {payload[0]: payload[1] for payload in payloads}
    results: Dict[int, PointResult] = {}
    remaining = list(payloads)
    respawns_left = max(0, pool_respawns)
    while remaining:
        executor = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context())
        futures: Dict[Any, int] = {}
        try:
            for payload in remaining:
                futures[executor.submit(_execute_point, payload)] = payload[0]
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        index, ok, value, elapsed, pid = future.result()
                    except KeyboardInterrupt:
                        raise
                    except BrokenProcessPool:
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        # The failure report itself failed to cross the
                        # process boundary (unpicklable point *value*, a
                        # worker killed mid-point...).  Pin the blame on
                        # the point whose future broke instead of
                        # surfacing a bare pool internals error.
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
        except BrokenProcessPool as exc:
            # A worker died abruptly and took the pool with it.  Keep what
            # finished, respawn, resubmit the rest.
            executor.shutdown(wait=True, cancel_futures=True)
            remaining = [p for p in remaining if p[0] not in results]
            if not remaining:
                break
            if respawns_left <= 0:
                index = remaining[0][0]
                raise SweepPointError(
                    by_index[index], index,
                    f"a worker process died abruptly and the pool-respawn "
                    f"budget ({pool_respawns}) is exhausted",
                ) from exc
            respawns_left -= 1
            continue
        except BaseException:
            # Failure, KeyboardInterrupt, or a raising progress callback:
            # drop everything still queued and shut the pool down before
            # propagating (in-flight points finish, workers then exit).
            for future in futures:
                future.cancel()
            executor.shutdown(wait=True, cancel_futures=True)
            raise
        executor.shutdown(wait=True)
        break
    return [results[index] for index in sorted(results)]


def run_sweep(specs: Sequence[PointSpec], *,
              workers: Union[None, int, str] = None,
              base_seed: Optional[int] = None,
              progress: Optional[Callable[[PointResult, int, int], None]] = None,
              timeout: Optional[float] = None,
              retries: int = 0,
              retry_backoff: float = 0.5,
              pool_respawns: int = 1,
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
    timeout:
        Wall-clock seconds per point *attempt*; an attempt past the limit
        is interrupted with :class:`PointTimeoutError` (and retried, if
        ``retries`` allows).
    retries:
        Extra attempts for a failed point, with exponential backoff
        (``retry_backoff * 2**attempt`` seconds between attempts) and the
        identical derived seed — retrying cannot change results.
    pool_respawns:
        How many times a crashed worker pool (a worker killed mid-point
        breaks the whole pool) is respawned; the finished results are
        kept and only unfinished points are resubmitted.
    checkpoint_dir:
        Crash-recovery directory for the sweep.  Finished point values
        are cached here and skipped on a re-run, so a killed sweep
        re-invoked with the same directory completes with byte-identical
        outputs, computing only what is missing.

    Returns
    -------
    ``PointResult`` list in the same order as ``specs``, regardless of
    completion order — with per-point seeding this makes sweep outputs
    byte-identical across worker counts.
    """
    specs = list(specs)
    options = PointOptions(
        timeout=timeout,
        retries=retries,
        retry_backoff=retry_backoff,
        checkpoint_dir=(None if checkpoint_dir is None
                        else str(checkpoint_dir)),
    )
    payloads = _payloads(specs, base_seed, options)
    total = len(payloads)

    # Resume: points whose value is already cached are not re-executed.
    cached: Dict[int, PointResult] = {}
    if options.checkpoint_dir is not None:
        pending = []
        for payload in payloads:
            index, spec, seed, _ = payload
            hit, value = _load_cached_value(options.checkpoint_dir,
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
                             progress, pool_respawns=pool_respawns)
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
    Robustness options (``timeout``, ``retries``, ``checkpoint_dir``, …)
    pass through to :func:`run_sweep`.
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
