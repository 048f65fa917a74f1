"""DES-core introspection.

The event loop of :class:`~repro.des.environment.Environment` maintains
raw counters on the attached :class:`~repro.obs.spans.Observer`
(events processed per event class, tombstones skipped).  This module turns
them into time series: :class:`DESSampler` is a lightweight simulation
process that wakes every ``interval`` simulated seconds and records

* the event-queue depth (heap size, including tombstoned entries),
* cumulative events processed / tombstones skipped and the tombstone ratio,
* a sim-time-weighted histogram of the queue depth,
* a wall-clock events/sec heartbeat (registry only — wall-clock numbers
  are machine-dependent and deliberately stay out of the exported trace,
  which must be deterministic).

The sampler only *reads* simulator state; its own timeout events interleave
with the simulation's but never mutate anything, so enabling it cannot
change simulated results (the parity suite pins this).
"""

from __future__ import annotations

import time as _time
from typing import Optional

from repro.des.environment import Environment
from repro.obs.spans import Observer

__all__ = ["DESSampler", "sample_des"]


def sample_des(env: Environment, observer: Observer) -> None:
    """Record one DES introspection sample (deterministic part only)."""
    now = env.now
    depth = len(env._queue)
    processed = observer.des_events_processed
    tombstones = observer.des_tombstones
    observer.counter_sample("des.queue_depth", "des", now, {"depth": depth})
    observer.counter_sample(
        "des.events", "des", now,
        {"processed": processed, "tombstoned": tombstones},
    )
    registry = observer.registry
    registry.gauge("des.queue_depth", mode="max").set(depth)
    registry.gauge("des.tombstone_ratio").set(observer.des_tombstone_ratio)


class DESSampler:
    """Periodic DES introspection process.

    Start with :meth:`start` once the environment is about to run; call
    :meth:`stop` after the simulation completes so the pending timeout is
    tombstoned and later ``env.run()`` calls are not kept alive by the
    sampling loop (mirrors ``MemoryManager.stop``).
    """

    def __init__(self, env: Environment, observer: Observer,
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.env = env
        self.observer = observer
        self.interval = float(interval)
        self._running = False
        self._timeout = None
        self._last_wall: Optional[float] = None
        self._last_events = 0

    def start(self) -> None:
        """Spawn the sampling process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._loop(), name="obs:des-sampler")

    def stop(self) -> None:
        """Stop sampling and cancel the pending wake-up."""
        self._running = False
        if self._timeout is not None:
            self.env.cancel(self._timeout)
            self._timeout = None

    def _loop(self):
        while self._running:
            self.sample()
            self._timeout = self.env.timeout(self.interval)
            yield self._timeout
        self._timeout = None

    def sample(self) -> None:
        """Record one sample (deterministic series + wall-clock heartbeat)."""
        observer = self.observer
        sample_des(self.env, observer)
        # Sim-time-weighted depth distribution: each sample stands for one
        # interval of simulated time at the observed depth.
        observer.registry.histogram(
            "des.queue_depth_weighted",
            bounds=(0, 10, 100, 1000, 10000, 100000),
        ).observe(len(self.env._queue), weight=self.interval)
        # Wall-clock heartbeat: events processed since the previous sample
        # over wall seconds elapsed.  Registry only — never exported into
        # the (deterministic) trace.
        wall = _time.perf_counter()
        events = observer.des_events_processed
        if self._last_wall is not None and wall > self._last_wall:
            rate = (events - self._last_events) / (wall - self._last_wall)
            observer.registry.gauge("des.events_per_wall_second").set(rate)
        self._last_wall = wall
        self._last_events = events
