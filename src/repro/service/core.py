"""The simulation service: a long-lived, crash-recoverable worker.

:class:`SimulationService` wraps one streaming simulation (built by
:func:`repro.service.base.build_service_cluster`) behind a bounded
admission queue.  Client threads submit job specs; a single worker thread
owns the simulation and alternates between admitting queued submissions
and advancing the DES with ``step_until``.

Determinism contract
--------------------
The durable submission log fully determines the results.  Every accepted
operation is applied at a recorded *injection time* ``t`` (the service
frontier, ``max(previous frontier, env.now)``) via the fixed procedure
``step_until(t); apply(op)``; replaying the log through the same
procedure reproduces the exact event sequence, so recovered runs are
byte-identical to uninterrupted ones (:func:`replay_entries` is the
reference implementation, and what the crash-recovery tests compare
against).

Recovery protocol
-----------------
Recovery is log replay: on start the service rebuilds the simulation from
its recipe and replays every durable log entry from t=0.  A snapshot
cannot shorten that — generators cannot be pickled, so restoring one
rebuilds and replays from t=0 as well — so the service writes none by
default and recovery never reads ``snapshots/``.  Snapshots remain an
opt-in determinism audit (``snapshot_plan=``, :meth:`SimulationService.
snapshot_now`, ``POST /snapshot``): each records the state fingerprint at
a simulated time together with the log prefix it covers, and replaying
that prefix to that time reproduces the fingerprint.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import (
    ConfigurationError,
    ServiceBackpressure,
    ServiceDraining,
    ServiceError,
)
from repro.obs import MetricsRegistry
from repro.scheduler.arrivals import SubmissionQueue
from repro.scheduler.job import Job
from repro.service.log import (
    OP_CLOSE,
    OP_SUBMIT,
    LogEntry,
    SubmissionLog,
)
from repro.service.spec import JobSpec
from repro.snapshot import (
    SimRecipe,
    SnapshotPlan,
    build_from_recipe,
    canonical_json,
    capture_state,
    fingerprint,
    to_jsonable,
    write_snapshot_doc,
)
from repro.snapshot.store import FORMAT, VERSION

#: Service snapshot file prefix.
SERVICE_SNAPSHOT_PREFIX = "svc"

#: File names inside a service data directory.
RECIPE_FILE = "recipe.json"
LOG_FILE = "submissions.log"
RESULT_FILE = "result.json"
SNAPSHOT_DIR = "snapshots"


# --------------------------------------------------------------------- replay
def apply_entry(sim, entry: LogEntry) -> Optional[Job]:
    """Apply one log entry to a paused simulation (the replay primitive).

    The single procedure both the live path and every replay path share:
    ``step_until(entry.t)`` then the operation.  Sharing it is what makes
    recovery byte-identical — feeds happen at identical paused states.
    Returns the submitted job (``None`` for the close op).
    """
    sim.step_until(entry.t)
    if entry.op == OP_SUBMIT:
        spec = JobSpec.from_dict(entry.spec)
        arrival = entry.t
        if spec.arrival_time is not None:
            arrival = max(arrival, spec.arrival_time)
        return sim.submit_job(
            spec.build_workflow(sim.service_datasets),
            cores=spec.cores,
            arrival_time=arrival,
            priority=spec.priority,
            label=spec.label,
        )
    elif entry.op == OP_CLOSE:
        sim.scheduler.close_stream()
    else:  # pragma: no cover - entries() already validates ops
        raise ServiceError(f"unknown log op {entry.op!r}")
    return None


def replay_entries(recipe: SimRecipe, entries: List[LogEntry]):
    """Rebuild a simulation and replay ``entries`` onto it.

    Returns the paused simulation; the stream is still open unless the
    log ends with a close op.
    """
    sim = build_from_recipe(recipe)
    sim.step_until(0.0)
    for entry in entries:
        apply_entry(sim, entry)
    return sim


def replay_result(recipe: SimRecipe, entries: List[LogEntry]):
    """The uninterrupted-reference result of a (closed) log.

    Replays every entry offline and runs the simulation to completion.
    This is what a service that never crashed would have produced — the
    crash-recovery tests compare the recovered service's canonical result
    bytes against this.
    """
    sim = replay_entries(recipe, entries)
    if not sim.scheduler._stream_closed:
        sim.scheduler.close_stream()
    return sim.run()


def canonical_result(result) -> str:
    """Canonical JSON of a simulation result (nondeterminism excluded).

    ``wallclock_time`` and the observer are dropped by the canonical
    encoder, so two runs that simulated identical histories produce
    byte-identical strings.
    """
    return canonical_json(to_jsonable(result))


# -------------------------------------------------------------------- service
class SimulationService:
    """A supervised, crash-recoverable streaming simulation worker.

    Parameters
    ----------
    data_dir:
        Durable state: the recipe, the submission log, the final result
        and any audit snapshots live here.  A service re-opened on an
        existing directory recovers from it by replaying the log.
    recipe:
        Build recipe of the base simulation.  Required on first open
        (persisted to ``recipe.json``); on re-open it must be omitted or
        equal to the persisted one.
    snapshot_plan:
        Opt-in audit snapshots at simulated-time boundaries anchored at
        t=0.  ``None`` (the default) writes none; recovery never reads
        them.
    queue_capacity:
        Admission queue bound — the backpressure contract.
    request_timeout:
        Default seconds a :meth:`submit` caller waits for its ack.
    advance_slice:
        Wall-clock budget in seconds of one DES advance burst; keeps the
        worker responsive to new submissions.
    """

    def __init__(self, data_dir: Union[str, Path], *,
                 recipe: Optional[SimRecipe] = None,
                 snapshot_plan: Optional[SnapshotPlan] = None,
                 queue_capacity: int = 64,
                 request_timeout: float = 30.0,
                 advance_slice: float = 0.05,
                 poll_interval: float = 0.05):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir = self.data_dir / SNAPSHOT_DIR
        self.recipe = self._load_or_persist_recipe(recipe)
        self.plan = snapshot_plan
        self.request_timeout = float(request_timeout)
        self.advance_slice = float(advance_slice)
        self.poll_interval = float(poll_interval)

        self.log = SubmissionLog(self.data_dir / LOG_FILE)
        self.queue = SubmissionQueue(queue_capacity)
        self.registry = MetricsRegistry()

        #: Guards the simulation and all bookkeeping below.
        self._lock = threading.RLock()
        self._sim = None
        self._frontier = 0.0
        self._next_seq = 0
        self._closed = False
        self._tokens: Dict[str, Dict[str, Any]] = {}
        #: Submitted jobs by label (labels are unique).
        self._jobs: Dict[str, Job] = {}
        #: Index of the last snapshot file; found by the first write.
        self._snap_index: Optional[int] = None
        self._snap_paths: List[Path] = []
        self._boundaries = None
        self._next_boundary: Optional[float] = None

        self._drain_requested = threading.Event()
        self._drained = threading.Event()
        self._result = None
        self._crashed: Optional[BaseException] = None
        self._worker: Optional[threading.Thread] = None

    # ----------------------------------------------------------- construction
    def _load_or_persist_recipe(self,
                                recipe: Optional[SimRecipe]) -> SimRecipe:
        recipe_path = self.data_dir / RECIPE_FILE
        if recipe_path.exists():
            persisted = SimRecipe.decode(
                json.loads(recipe_path.read_text(encoding="utf-8"))
            )
            if recipe is not None and recipe.encoded() != persisted.encoded():
                raise ConfigurationError(
                    f"data dir {self.data_dir} was created with a different "
                    "recipe; omit recipe= to recover it, or use a fresh "
                    "directory"
                )
            return persisted
        if recipe is None:
            raise ConfigurationError(
                f"no recipe persisted in {self.data_dir}; pass recipe= on "
                "first open"
            )
        tmp = recipe_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recipe.encoded(), sort_keys=True, indent=2),
                       encoding="utf-8")
        tmp.replace(recipe_path)
        return recipe

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "SimulationService":
        """Recover durable state and start the worker thread."""
        with self._lock:
            if self._worker is not None:
                raise ServiceError("the service has already been started")
            self._recover()
            self._worker = threading.Thread(
                target=self._serve_forever, name="sim-service-worker",
                daemon=True,
            )
            self._worker.start()
        return self

    def _recover(self) -> None:
        """Rebuild the simulation by replaying the whole durable log."""
        start = time.perf_counter()
        entries = self.log.entries()
        sim = replay_entries(self.recipe, entries)
        registry = self.registry
        registry.gauge("service.recovery_seconds").set(
            time.perf_counter() - start
        )
        registry.counter("service.recovery_entries").inc(len(entries))
        if entries:
            registry.counter("service.recoveries").inc()

        self._sim = sim
        self._next_seq = len(entries)
        # Replay leaves the clock at the last entry's injection time.
        self._frontier = sim.env.now
        self._closed = bool(entries) and entries[-1].op == OP_CLOSE
        self._jobs = {job.label: job for job in sim.scheduler.jobs}
        for entry in entries:
            if entry.op == OP_SUBMIT and entry.token is not None:
                self._tokens[entry.token] = {
                    "seq": entry.seq, "label": entry.spec["label"],
                    "t": entry.t,
                }
        if self.plan is not None:
            self._boundaries = self.plan.boundaries()
            self._next_boundary = next(self._boundaries)
            while self._next_boundary <= sim.env.now:
                self._next_boundary = next(self._boundaries)
        if self._closed:
            # The previous lifetime was already draining; finish its
            # drain now so /result becomes available.
            self._finish_drain()

    def stop(self, *, timeout: Optional[float] = None) -> None:
        """Request a graceful drain and wait for the worker to finish."""
        self.request_drain()
        self.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the worker thread; re-raises a worker crash."""
        worker = self._worker
        if worker is not None:
            worker.join(timeout)
        if self._crashed is not None:
            raise self._crashed

    # ------------------------------------------------------------- client api
    def submit(self, spec: Dict[str, Any], *,
               token: Optional[str] = None,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Submit one job; blocks until the ack is durable.

        Returns the ack dict ``{"seq", "label", "t"}`` (plus
        ``"duplicate": True`` when ``token`` was already acknowledged —
        idempotent retries).  Raises :class:`ServiceBackpressure` when
        the admission queue is full, :class:`ServiceDraining` once a
        drain started, and :class:`ConfigurationError` for invalid specs.
        """
        with self._lock:
            if self._crashed is not None:
                raise ServiceError(
                    f"the service worker crashed: {self._crashed!r}"
                )
            if self._drain_requested.is_set() or self._closed:
                raise ServiceDraining(
                    "the service is draining; no new submissions accepted"
                )
            if token is not None and token in self._tokens:
                self.registry.counter("service.submissions_duplicate").inc()
                return {**self._tokens[token], "duplicate": True}
        future: Future = Future()
        if not self.queue.offer((token, spec, future)):
            self.registry.counter("service.submissions_rejected").inc()
            raise ServiceBackpressure(
                f"admission queue is full ({self.queue.capacity} pending); "
                "retry later",
                retry_after=max(1.0, self.queue.capacity * 0.01),
            )
        return future.result(timeout if timeout is not None
                             else self.request_timeout)

    def request_drain(self) -> None:
        """Ask the worker to drain: finish accepted jobs, then stop."""
        self._drain_requested.set()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Drain and wait for completion; returns the final summary."""
        self.request_drain()
        if not self._drained.wait(timeout):
            raise ServiceError("drain did not complete within the timeout")
        if self._crashed is not None:
            raise ServiceError(f"the service worker crashed: {self._crashed!r}")
        return self.summary()

    def snapshot_now(self) -> Dict[str, Any]:
        """Take an out-of-band audit snapshot; returns its metadata."""
        with self._lock:
            self._require_live()
            path = self._write_snapshot()
            return {"path": str(path), "t": self._sim.env.now,
                    "applied_seq": self._next_seq}

    def job_status(self, label: str) -> Dict[str, Any]:
        """The lifecycle state of one submitted job.

        ``scheduled`` (fed, arrival still ahead), ``queued``, ``running``
        or ``completed``; raises :class:`KeyError` for an unknown label.
        """
        with self._lock:
            job = self._jobs[label]
            if job.end_time is not None:
                return {
                    "label": label, "state": "completed",
                    "node": job.node_name,
                    "start_time": job.start_time,
                    "end_time": job.end_time,
                    "wait_time": max(0.0, job.start_time - job.arrival_time),
                }
            scheduler = self._sim.scheduler
            if job.id in scheduler._running_procs:
                state = "running"
            elif job in scheduler.queue:
                state = "queued"
            else:
                state = "scheduled"
            return {"label": label, "state": state, "node": job.node_name,
                    "arrival_time": job.arrival_time}

    def metrics(self) -> Dict[str, Any]:
        """Service + simulation metrics (the ``repro.obs`` registry view)."""
        with self._lock:
            registry = self.registry.as_dict()
            sim = self._sim
            scheduler = sim.scheduler if sim is not None else None
            return {
                "service": registry,
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                    "accepted": self.queue.n_accepted,
                    "rejected": self.queue.n_rejected,
                },
                "sim": {
                    "now": sim.env.now if sim is not None else 0.0,
                    "frontier": self._frontier,
                    "submitted": self._next_seq,
                    "completed": (
                        len(scheduler.records) if scheduler is not None else 0
                    ),
                    "running": (
                        len(scheduler._running_procs)
                        if scheduler is not None else 0
                    ),
                    "queued": (
                        len(scheduler.queue) if scheduler is not None else 0
                    ),
                    "closed": self._closed,
                    "drained": self._drained.is_set(),
                },
            }

    def health(self) -> Dict[str, Any]:
        """Liveness (ok / draining / drained / crashed) and the start-up
        recovery: log entries replayed and the seconds it took."""
        if self._crashed is not None:
            status = "crashed"
        elif self._drained.is_set():
            status = "drained"
        elif self._drain_requested.is_set():
            status = "draining"
        else:
            status = "ok"
        registry = self.registry
        return {
            "status": status,
            "recovery_entries": int(
                registry.counter("service.recovery_entries").value
            ),
            "recovery_seconds": registry.gauge(
                "service.recovery_seconds").value,
        }

    @property
    def ready(self) -> bool:
        """Whether the service currently accepts submissions."""
        return (self._crashed is None and not self._closed
                and not self._drain_requested.is_set()
                and self._worker is not None)

    @property
    def result(self):
        """The final :class:`SimulationResult` (``None`` until drained)."""
        return self._result

    def canonical_result(self) -> str:
        """Canonical result JSON; raises until the service has drained."""
        with self._lock:
            if self._result is None:
                raise ServiceError(
                    "no result yet: the service has not drained"
                )
            return canonical_result(self._result)

    def summary(self) -> Dict[str, Any]:
        """Small JSON summary of the drained run."""
        with self._lock:
            if self._result is None:
                raise ServiceError("no result yet: the service has not drained")
            metrics = self._result.scheduler
            return {
                "jobs_submitted": sum(
                    1 for e in self.log.entries() if e.op == OP_SUBMIT
                ),
                "jobs_completed": metrics.n_jobs if metrics else 0,
                "makespan": metrics.makespan if metrics else 0.0,
                "cache_hit_ratio": self._result.read_cache_hit_ratio(),
                "result_file": str(self.data_dir / RESULT_FILE),
            }

    def _require_live(self) -> None:
        if self._sim is None:
            raise ServiceError("the service has not been started")
        if self._drained.is_set():
            raise ServiceError("the service has already drained")

    # ------------------------------------------------------------ worker loop
    def _serve_forever(self) -> None:
        try:
            while True:
                items = self.queue.drain(timeout=self.poll_interval)
                with self._lock:
                    for token, spec, future in items:
                        self._admit(token, spec, future)
                    if self._drain_requested.is_set() or self._closed:
                        if not self._closed:
                            self._log_close()
                        self._finish_drain()
                        self._fail_pending()
                        return
                    self._advance(self.advance_slice)
        except BaseException as exc:  # noqa: BLE001 - reported to clients
            self._crashed = exc
            self._drained.set()
            self._fail_pending()

    def _fail_pending(self) -> None:
        """Reject submissions still queued after the worker stopped."""
        for _token, _spec, future in self.queue.drain(timeout=0):
            try:
                future.set_exception(ServiceDraining(
                    "the service stopped before admitting this submission"
                ))
            except Exception:  # pragma: no cover - future already resolved
                pass

    def _admit(self, token: Optional[str], spec_dict: Dict[str, Any],
               future: Future) -> None:
        """Validate, durably log, then inject one submission (lock held)."""
        try:
            if token is not None and token in self._tokens:
                self.registry.counter("service.submissions_duplicate").inc()
                future.set_result({**self._tokens[token], "duplicate": True})
                return
            if self._closed or self._drain_requested.is_set():
                raise ServiceDraining(
                    "the service is draining; no new submissions accepted"
                )
            seq = self._next_seq
            spec = JobSpec.from_dict(spec_dict, default_label=f"job{seq}")
            scheduler = self._sim.scheduler
            spec.validate(
                n_datasets=len(self._sim.service_datasets),
                max_cores=max(n.total_cores for n in scheduler.nodes),
            )
            if spec.label in self._jobs:
                raise ConfigurationError(
                    f"a job labelled {spec.label!r} was already submitted; "
                    "labels must be unique (use a token for safe retries)"
                )
            t = max(self._frontier, self._sim.env.now)
            entry = self.log.append(LogEntry(
                seq=seq, op=OP_SUBMIT, t=t, token=token,
                spec=spec.as_dict(),
            ))
            # Durable from here: the ack below survives any crash.
            self._jobs[spec.label] = apply_entry(self._sim, entry)
            self._frontier = t
            self._next_seq = seq + 1
            ack = {"seq": seq, "label": spec.label, "t": t}
            if token is not None:
                self._tokens[token] = ack
            self.registry.counter("service.submissions_accepted").inc()
            future.set_result(ack)
        except BaseException as exc:  # noqa: BLE001 - delivered to the client
            future.set_exception(exc)

    def _log_close(self) -> None:
        t = max(self._frontier, self._sim.env.now)
        entry = self.log.append(LogEntry(seq=self._next_seq, op=OP_CLOSE, t=t))
        apply_entry(self._sim, entry)
        self._frontier = t
        self._next_seq += 1
        self._closed = True

    def _outstanding_work(self) -> bool:
        """Whether any accepted job is still pending/queued/running."""
        scheduler = self._sim.scheduler
        return bool(scheduler._running_procs or scheduler.queue
                    or scheduler._stream_arrivals)

    def _advance(self, wall_budget: float) -> None:
        """Advance the DES within a wall-clock budget (lock held), taking
        an audit snapshot at each plan boundary when a plan is set.

        Only advances while accepted jobs are outstanding: an idle open
        stream parks the simulated clock instead of racing it through
        background-flusher ticks forever.
        """
        sim = self._sim
        env = sim.env
        deadline = time.perf_counter() + wall_budget
        while time.perf_counter() < deadline:
            if not self._outstanding_work():
                return
            peek = env.peek()
            if math.isinf(peek):
                return
            boundary = self._next_boundary
            if boundary is not None and boundary <= peek:
                sim.step_until(boundary)
                self._write_snapshot()
                self._next_boundary = next(self._boundaries)
                continue
            target = boundary if boundary is not None else peek + 1.0
            sim.step_until(min(target, peek + 1.0))

    def _write_snapshot(self) -> Path:
        """One audit snapshot: a batch snapshot doc plus service meta.

        The first write of a lifetime numbers its file after the highest
        one already in ``snapshots/``, so files an earlier lifetime left
        are never overwritten (nor pruned: rotation keeps ``plan.keep`` of
        this lifetime's files, two without a plan).
        """
        if self._snap_index is None:
            suffixes = (
                path.stem[len(SERVICE_SNAPSHOT_PREFIX) + 1:] for path in
                self.snapshot_dir.glob(f"{SERVICE_SNAPSHOT_PREFIX}-*.json")
            )
            self._snap_index = max(
                (int(suffix) for suffix in suffixes if suffix.isdigit()),
                default=0,
            )
        sim = self._sim
        state = to_jsonable(capture_state(sim))
        doc = {
            "format": FORMAT,
            "version": VERSION,
            "t": sim.env.now,
            "experiment": self.recipe.experiment,
            "params": self.recipe.encoded()["params"],
            "fingerprint": fingerprint(state),
            "state": state,
            "service": {
                "applied_seq": self._next_seq,
                "frontier": self._frontier,
                "closed": self._closed,
            },
        }
        self._snap_index += 1
        path = self.snapshot_dir / (
            f"{SERVICE_SNAPSHOT_PREFIX}-{self._snap_index:08d}.json"
        )
        write_snapshot_doc(doc, path)
        self._snap_paths.append(path)
        keep = self.plan.keep if self.plan is not None else 2
        while len(self._snap_paths) > keep:
            stale = self._snap_paths.pop(0)
            try:
                stale.unlink()
            except OSError:
                pass
        self.registry.counter("service.snapshots_written").inc()
        return path

    def _finish_drain(self) -> None:
        """Run the closed stream to completion and persist the result."""
        if self._drained.is_set():
            return
        self._result = self._sim.run()
        text = canonical_result(self._result)
        tmp = self.data_dir / (RESULT_FILE + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self.data_dir / RESULT_FILE)
        self.log.close()
        self._drained.set()
