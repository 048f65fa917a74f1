"""Deterministic capture of a live simulation's state.

:func:`capture_state` walks a paused :class:`~repro.simulator.simulation.
Simulation` and reduces every stateful subsystem to plain, canonically
ordered data:

* the DES event heap — every pending ``(time, priority, eid, event)``
  entry, tombstones included (cancelled-but-unpopped timeouts are real
  state: a replay must carry the same tombstones);
* every host's page cache — extent runs of both LRU lists in LRU order,
  with each fragment's ``(size, entry_time, last_access, stamp)`` row
  (the stamp as an int),
  plus the memory-manager accounting and cache statistics;
* in-flight transfers — the remaining bytes of every flow on every
  channel (mid-transfer snapshots are legal and pinned);
* the cluster scheduler — queue contents, per-node state (free cores,
  running jobs, draining/left flags, failure counts), per-job progress,
  completed-job records, the executors' preemption checkpoints
  (completed tasks, partial compute credit, suspension flags) and the
  submission stream (closed flag, not-yet-arrived jobs);
* RNG streams — seed, draw count and state digest of every live fault
  stream (:mod:`repro.rng` bookkeeping);
* the telemetry metrics registry, when an observer is attached.

The result is JSON-able and deterministic: two simulations that processed
the same events hold byte-identical captures, which is what the snapshot
fingerprint (and the restore-time integrity check) is computed from.
Large append-only traces (operation records, memory samples) are captured
as SHA-256 digests rather than inline — equality is what matters, not
re-readability.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.snapshot.canonical import fingerprint

#: Capture format version; bumped when the capture layout changes (a
#: restore compares fingerprints, so layouts must match exactly).
CAPTURE_VERSION = 2


def capture_state(sim) -> Dict[str, Any]:
    """Reduce a (paused) simulation to canonical plain data."""
    state: Dict[str, Any] = {
        "capture_version": CAPTURE_VERSION,
        "t": sim.env.now,
        "completed": sim.completed,
        "heap": _capture_heap(sim.env),
        "hosts": _capture_hosts(sim),
        "tracer": _capture_tracer(sim.tracer),
    }
    if sim.scheduler is not None:
        state["scheduler"] = _capture_scheduler(sim.scheduler)
    if sim._executors:
        state["executors"] = [
            _capture_executor(executor) for executor in sim._executors
        ]
    if sim._fault_injector is not None:
        state["faults"] = _capture_faults(sim._fault_injector)
    observer = sim.observer
    if observer is not None:
        state["metrics"] = observer.registry.as_dict()
    return state


# ------------------------------------------------------------------- sections
def _capture_heap(env) -> List[List[Any]]:
    """Pending heap entries in canonical (time, priority, eid) order.

    Event ids are allocation-ordered and — because the time horizon that
    :meth:`Simulation.step_until` pauses at inserts no guard event —
    identical between a stepped and an unstepped run, so they can be
    captured verbatim.
    """
    return [
        [time, priority, eid, type(event).__name__, bool(event._defunct)]
        for time, priority, eid, event in sorted(
            env._queue, key=lambda entry: entry[:3]
        )
    ]


def _capture_hosts(sim) -> Dict[str, Any]:
    hosts: Dict[str, Any] = {}
    if sim.platform is None:
        return hosts
    for name in sorted(sim.platform.hosts):
        host = sim.platform.hosts[name]
        entry: Dict[str, Any] = {
            "up": bool(host.up),
            "cpu_speed": host.cpu.speed,
            "channels": [
                {
                    "bandwidth": channel.bandwidth,
                    "flows": [
                        [flow.label, flow.amount, flow.remaining,
                         flow.start_time]
                        for flow in channel._flows
                    ],
                }
                for channel in host.channels()
            ],
        }
        manager = host.memory_manager
        if manager is not None:
            entry["cache"] = _capture_cache(manager)
        hosts[name] = entry
    return hosts


def _capture_cache(manager) -> Dict[str, Any]:
    return {
        "free": manager._free,
        "anonymous": manager._anonymous,
        "anonymous_by_owner": dict(sorted(
            manager._anonymous_by_owner.items()
        )),
        "stats": manager.stats.as_dict(),
        "lists": {
            "inactive": _capture_lru(manager.lists.inactive),
            "active": _capture_lru(manager.lists.active),
        },
    }


def _capture_lru(lru) -> Dict[str, Any]:
    """One LRU list: extent runs in list order, fragments with their keys."""
    return {
        "size": lru.size,
        "dirty": lru.dirty_size,
        "merges": lru.merges,
        "runs": [
            {
                "file": run.filename,
                "dirty": bool(run.dirty),
                "fragments": _capture_fragments(run),
            }
            for run in lru.runs()
        ],
    }


def _capture_fragments(run) -> List[List[float]]:
    """A run's fragments, oldest first: size, entry time, last access and
    the stamp as an int."""
    row = run.row
    return [
        [row[offset], row[offset + 1], row[offset + 2], int(row[offset + 3])]
        for offset in run.offsets()
    ]


def _capture_scheduler(scheduler) -> Dict[str, Any]:
    return {
        "queue": [job.id for job in scheduler.queue],
        "jobs": {
            str(job.id): _capture_job(job)
            for job in scheduler.jobs
        },
        "nodes": [
            {
                "name": node.name,
                "up": bool(node.up),
                "free_cores": node.free_cores,
                "running": sorted(node.running),
                "draining": bool(node.draining),
                "left": bool(node.left),
                "n_failures": node.n_failures,
            }
            for node in scheduler.nodes
        ],
        "suspending": sorted(scheduler._suspending),
        "crashed": sorted(scheduler._crashed),
        "n_node_failures": scheduler.n_node_failures,
        "n_job_restarts": scheduler.n_job_restarts,
        "records_digest": fingerprint(scheduler.records),
        "n_records": len(scheduler.records),
        "executors": [
            _capture_executor(executor) for executor in scheduler.executors
        ],
        "stream": {
            "closed": bool(scheduler._stream_closed),
            "pending": sorted(
                job_id for _, job_id, _ in scheduler._arrivals
            ),
        },
    }


def _capture_job(job) -> Dict[str, Any]:
    return {
        "label": job.label,
        "cores": job.cores,
        "priority": job.priority,
        "arrival_time": job.arrival_time,
        "node": job.node_name,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "run_seconds": job.run_seconds,
        "preemptions": job.preemptions,
        "restarts": job.restarts,
        "pinned_node": job.pinned_node,
    }


def _capture_executor(executor) -> Dict[str, Any]:
    """One workflow executor's preemption checkpoint."""
    return {
        "label": executor.label,
        "host": executor.host.name,
        "completed": sorted(executor._completed),
        "compute_done": dict(sorted(executor._compute_done.items())),
        "pending": (
            sorted(executor._pending) if executor._pending is not None
            else None
        ),
        "running": sorted(executor._running),
        "suspended": bool(executor._suspended),
        "start_time": executor.start_time,
        "end_time": executor.end_time,
        "lost_compute_seconds": executor.lost_compute_seconds,
    }


def _capture_tracer(tracer) -> Dict[str, Any]:
    return {
        "n_operations": len(tracer.operations),
        "operations_digest": fingerprint(
            [record.as_dict() for record in tracer.operations]
        ),
        "n_memory_samples": len(tracer.memory_trace),
        "memory_digest": fingerprint(tracer.memory_trace),
        "n_cache_records": len(tracer.cache_contents),
        "cache_records_digest": fingerprint(tracer.cache_contents),
    }


def _capture_faults(injector) -> Dict[str, Any]:
    return {
        "slowed": sorted(injector._slowed),
        "rngs": [
            [key, rng.seed, rng.n_draws, rng.state_digest()]
            for key, rng in sorted(injector.rngs.items())
        ],
    }
