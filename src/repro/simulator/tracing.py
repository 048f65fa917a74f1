"""Execution tracing.

The paper's evaluation relies on three kinds of observations:

* per-operation times (Read 1, Write 1, ... of each task) — used to compute
  the absolute relative simulation errors of Figures 4a, 6;
* memory profiles over time (total, used, cache, dirty) — Figure 4b,
  collected on the real system with ``atop``/``collectl``;
* per-file cache contents after each application I/O — Figure 4c.

The :class:`Tracer` collects all three: storage services and the workflow
executor report :class:`OperationRecord` objects, an optional sampling
process snapshots the memory manager at a fixed interval, and single-cache
runs record the cache contents after each read and write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.des.environment import Environment
from repro.pagecache.memory_manager import MemoryManager, MemorySnapshot


@dataclass
class OperationRecord:
    """One traced operation (file read, file write or computation)."""

    app: str
    task: str
    kind: str  # "read", "write" or "compute"
    filename: Optional[str]
    size: float
    start: float
    end: float
    #: Bytes served by / written to the page cache.
    cache_bytes: float = 0.0
    #: Bytes read from or written to storage synchronously.
    storage_bytes: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated duration of the operation."""
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        """Return the record as a plain dictionary (for reports)."""
        return {
            "app": self.app,
            "task": self.task,
            "kind": self.kind,
            "filename": self.filename,
            "size": self.size,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "cache_bytes": self.cache_bytes,
            "storage_bytes": self.storage_bytes,
        }


@dataclass
class CacheContentRecord:
    """Per-file cache content observed right after an I/O operation (Fig 4c)."""

    app: str
    task: str
    kind: str
    filename: Optional[str]
    time: float
    contents: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects operation records, memory snapshots and cache contents.

    Cache contents (Figure 4c) are recorded only while the tracer watches
    exactly one page cache (one cached host), as in the paper's
    single-node experiments.  A record copies that cache's whole per-file
    map, so with several cached hosts it would cost O(operations x files)
    for a record no experiment reads; ``cache_contents`` stays empty there.

    When telemetry is enabled the tracer doubles as a compatibility
    adapter onto :mod:`repro.obs`: every :class:`OperationRecord` is
    mirrored as an ``"operation"`` span and every memory snapshot as a
    counter-track sample.  The public API (``operations``,
    ``memory_trace``, ``cache_contents`` and the query helpers) is
    unchanged, so the experiments and their error metrics keep reading
    the same lists whether or not an observer is attached.
    """

    def __init__(self, env: Environment, sample_interval: Optional[float] = None,
                 observer=None):
        self.env = env
        self.sample_interval = sample_interval
        #: The telemetry sink (``repro.obs.Observer``) operations are
        #: mirrored to.  Defaults to the environment's nullable hook so a
        #: tracer built before telemetry wiring still picks it up lazily.
        self.observer = observer
        self.operations: List[OperationRecord] = []
        self.memory_trace: List[MemorySnapshot] = []
        self.cache_contents: List[CacheContentRecord] = []
        self._memory_managers: List[MemoryManager] = []
        self._sampler_started = False

    def _observer(self):
        return self.observer if self.observer is not None else self.env.observer

    # ----------------------------------------------------------- registration
    def attach_memory_manager(self, memory_manager: MemoryManager) -> None:
        """Sample ``memory_manager`` (the first one attached) periodically."""
        if memory_manager not in self._memory_managers:
            self._memory_managers.append(memory_manager)
        if self.sample_interval and not self._sampler_started:
            self._sampler_started = True
            self.env.process(self._sampler(), name="tracer-sampler")

    def _sampler(self):
        while True:
            self.sample_now()
            yield self.env.timeout(self.sample_interval)

    def sample_now(self) -> Optional[MemorySnapshot]:
        """Record a memory snapshot immediately (first attached manager)."""
        if not self._memory_managers:
            return None
        snapshot = self._memory_managers[0].snapshot()
        self.memory_trace.append(snapshot)
        observer = self._observer()
        if observer is not None:
            observer.counter_sample(
                "memory", "memory", snapshot.time,
                {"used": snapshot.used, "cached": snapshot.cached,
                 "dirty": snapshot.dirty, "anonymous": snapshot.anonymous},
            )
        return snapshot

    # --------------------------------------------------------------- recording
    def record_operation(self, record: OperationRecord) -> None:
        """Store an operation record.

        A read or write also records the per-file cache contents right
        after it, when the tracer watches exactly one page cache.
        """
        self.operations.append(record)
        observer = self._observer()
        if observer is not None:
            attrs = {"kind": record.kind, "size": record.size}
            if record.filename:
                attrs["filename"] = record.filename
            if record.cache_bytes or record.storage_bytes:
                attrs["cache_bytes"] = record.cache_bytes
                attrs["storage_bytes"] = record.storage_bytes
            observer.complete(
                f"{record.task}:{record.kind}", "operation",
                f"app:{record.app}", record.start, record.end, attrs,
            )
        if len(self._memory_managers) == 1 and record.kind in ("read", "write"):
            self.cache_contents.append(
                CacheContentRecord(
                    app=record.app,
                    task=record.task,
                    kind=record.kind,
                    filename=record.filename,
                    time=record.end,
                    contents=self._memory_managers[0].cache_content(),
                )
            )

    def __repr__(self) -> str:
        return (
            f"<Tracer operations={len(self.operations)} "
            f"samples={len(self.memory_trace)}>"
        )
