"""Core event types for the discrete-event kernel.

An :class:`Event` is the unit of synchronisation between simulated
processes.  Events move through three states:

* *pending*: created but not yet triggered;
* *triggered*: scheduled into the environment's event queue with a value
  (or an exception); callbacks have not run yet;
* *processed*: popped from the queue, all callbacks executed.

Processes (see :mod:`repro.des.process`) wait on events by ``yield``-ing
them; the environment resumes the process when the event is processed.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional


class _Pending:
    """Sentinel marking an event value that has not been decided yet."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _Pending()

#: Default priority for normal events.
NORMAL = 1
#: Priority for urgent events (processed before normal events at equal times).
URGENT = 0


class Interrupt(Exception):
    """Exception thrown into a process when it is interrupted.

    The ``cause`` attribute carries the object given to
    :meth:`repro.des.process.Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to ``Process.interrupt``."""
        return self.args[0]


class Event:
    """A single simulation event.

    Events carry ``__slots__``: a simulation allocates millions of them,
    and slotted instances are both smaller and faster to create than
    dict-backed ones.  Subclasses must declare their own ``__slots__``.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_defunct")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward reference
        self.env = env
        #: Callables invoked (with the event) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set when a failed event's exception has been handled somewhere.
        self.defused = False
        #: Tombstone flag: a cancelled scheduled event stays in the queue
        #: but is skipped (without running callbacks) when popped, so
        #: cancellation never rescans the heap.
        self._defunct = False

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded; only valid once triggered."""
        if self._ok is None:
            raise AttributeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception for failed events)."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not available yet")
        return self._value

    # ------------------------------------------------------------- triggering
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # env.schedule(self) with the call inlined: succeed() runs once
        # per transfer completion and process wake-up.
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` thrown into
        it.  If nothing waits on the event and the exception is never
        defused, the environment re-raises it when the event is processed.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the single most allocated event type (every
        # transfer reschedule creates one), so the base initializer is
        # inlined rather than chained through super().__init__.
        self.env = env
        self.callbacks = []
        self.defused = False
        self._defunct = False
        self._delay = delay
        self._ok = True
        self._value = value
        # env.schedule(self, delay=delay), inlined for the same reason.
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    @property
    def delay(self) -> float:
        """The configured delay in simulated seconds."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout(delay={self._delay}) at {id(self):#x}>"


class Initialize(Event):
    """Event that starts a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)
