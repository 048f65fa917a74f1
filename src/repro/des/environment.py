"""The simulation environment: clock, event queue and run loop."""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Generator, List, Optional, Tuple, Union

from repro.des.events import Event, NORMAL, PENDING, Timeout
from repro.des.process import Process


class _StopSimulation(Exception):
    """Internal signal used to end :meth:`Environment.run` at ``until``."""


class Environment:
    """Execution environment for a simulation.

    The environment owns the simulated clock and the priority queue of
    triggered events.  Processes are created with :meth:`process` and the
    simulation is advanced with :meth:`run`, whose optional ``horizon``
    pauses it at a simulated time so a later call can resume it.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Nullable telemetry hook (a :class:`repro.obs.spans.Observer`).
        #: ``None`` (the default) costs the event loop one ``is None`` test
        #: per event; an attached observer makes :meth:`run` count events
        #: per class and skipped tombstones, and lets processes, flows and
        #: I/O controllers emit spans.  The hook only observes — it never
        #: schedules events — so attaching it cannot change simulated
        #: results.
        self.observer = None

    # ----------------------------------------------------------------- state
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queue_size(self) -> int:
        """Number of triggered-but-unprocessed events."""
        return len(self._queue)

    # ------------------------------------------------------------- factories
    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator and return it."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a new untriggered event."""
        return Event(self)

    # ------------------------------------------------------------ scheduling
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` seconds."""
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event without rescanning the queue (O(1)).

        The event is tombstoned: it stays in the heap but is skipped (its
        callbacks never run) when popped.  Cancelling an already processed
        event is a no-op.
        """
        event._defunct = True

    def peek(self) -> float:
        """Return the time of the next scheduled event, or ``inf``.

        Tombstoned (cancelled) entries at the front are reaped, and an
        attached observer counts them exactly as :meth:`run` does.
        """
        queue = self._queue
        observer = self.observer
        while queue and queue[0][3]._defunct:
            heapq.heappop(queue)
            if observer is not None:
                observer.des_tombstones += 1
        if not queue:
            return float("inf")
        return queue[0][0]

    def run(self, until: Union[None, float, Event] = None,
            horizon: float = math.inf) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted;
            * a number — run until the simulated clock reaches that time;
            * an :class:`Event` — run until that event is processed and
              return its value.
        horizon:
            Pause bound.  Every event with time ``<= horizon`` is processed,
            including events scheduled at exactly ``horizon`` during the
            pass.  If ``until`` has not been reached when the next event lies
            beyond the bound (or the queue drains), the run returns ``None``
            with the clock at ``horizon``.  Unlike a numeric ``until`` the
            bound inserts no event, so a run paused at any number of
            horizons processes the same events, with the same event ids, as
            an unpaused one.

        Returns
        -------
        The value of the ``until`` event, if one was given and processed.
        """
        if horizon < self._now:
            raise ValueError(
                f"horizon ({horizon}) must not be earlier than the current time ({self._now})"
            )
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(
                    f"until ({at}) must not be earlier than the current time ({self._now})"
                )
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=NORMAL, delay=at - self._now)

        if isinstance(until, Event):
            if until.callbacks is None:
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(_stop_simulation)

        # The event loop is the single hottest function of any simulation:
        # the queue, heappop and the observer are bound locally once per
        # call, so a detached observer costs one ``is None`` test per event.
        queue = self._queue
        pop = heapq.heappop
        observer = self.observer
        counts = observer.des_event_counts if observer is not None else None
        try:
            while queue:
                now, priority, eid, event = pop(queue)
                if event._defunct:
                    if observer is not None:
                        observer.des_tombstones += 1
                    continue
                if now > horizon:
                    heapq.heappush(queue, (now, priority, eid, event))
                    break
                self._now = now
                if observer is not None:
                    name = type(event).__name__
                    counts[name] = counts.get(name, 0) + 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event.defused:
                    # Nobody handled the failure: surface it to the caller.
                    raise event._value
        except _StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            event.defused = True
            raise event._value
        if horizon != math.inf:
            # Paused before ``until``: rest at the bound, ready to resume.
            self._now = float(horizon)
            if isinstance(until, Event):
                until.callbacks.remove(_stop_simulation)
            return None
        # The queue drained.
        if isinstance(until, Event) and until._value is PENDING:
            raise RuntimeError(
                "simulation ended before the awaited event was triggered"
            )
        return None


def _stop_simulation(event: Event) -> None:
    raise _StopSimulation(event)
