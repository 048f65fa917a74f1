"""Exception hierarchy shared across the simulator.

Every error raised by the library derives from :class:`SimulationError` so
that callers can catch simulator failures without also swallowing Python
programming errors.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by pagecache-sim."""


class ConfigurationError(SimulationError):
    """An invalid platform, cache or experiment configuration was supplied."""


class StorageError(SimulationError):
    """A storage operation could not be carried out (e.g. disk full)."""


class FileNotFoundInSimulation(StorageError):
    """A simulated file was accessed before being registered or written."""


class CacheConsistencyError(SimulationError):
    """An internal invariant of the page cache model was violated.

    These errors indicate a bug in the simulator rather than a mis-use of the
    API; they are raised eagerly so that accounting drift never silently
    corrupts results.
    """


class SchedulingError(SimulationError):
    """A workflow could not be scheduled (cycle, missing file, bad host)."""


class FlowAborted(SimulationError):
    """An in-flight transfer was aborted (its device crashed).

    Thrown into any process still waiting on the transfer.  Fault-tolerant
    consumers (the background flusher, retry loops) catch it and move on;
    processes killed alongside the device are interrupted separately and
    never observe it.
    """


class SnapshotError(SimulationError):
    """A simulation snapshot could not be written, read or restored."""


class SnapshotIntegrityError(SnapshotError):
    """A restored simulation's state does not match its snapshot.

    Raised when the deterministic replay that rebuilds a snapshotted
    simulation produces a state fingerprint different from the one
    recorded in the snapshot file — the file is corrupt, was produced by
    a different code version, or the simulation is not deterministic.
    """


class ServiceError(SimulationError):
    """The simulation service could not carry out a request."""


class ServiceBackpressure(ServiceError):
    """The service's admission queue is full — retry after a delay.

    The explicit backpressure signal of the service mode: a submission
    beyond the queue bound is *rejected*, never dropped silently or
    queued unbounded.  ``retry_after`` suggests the client delay in
    seconds (HTTP maps this to 429 + Retry-After).
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceDraining(ServiceError):
    """The service is draining (or drained) and accepts no new work."""
