"""Simulated processes.

A process wraps a Python generator.  The generator ``yield``-s events; the
process waits until each yielded event is processed and is then resumed
with the event's value (or has the event's exception thrown into it).  The
process itself is an event that triggers when the generator terminates,
carrying the generator's return value.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.des.events import Event, Initialize, Interrupt, PENDING, URGENT


class Process(Event):
    """An active simulation process driving a generator.

    Parameters
    ----------
    env:
        The owning environment.
    generator:
        A generator yielding :class:`~repro.des.events.Event` instances.
    name:
        Optional human-readable name used in ``repr`` and error messages.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", type(generator).__name__)
        #: The event this process is currently waiting on (None if resumable).
        self._target: Optional[Event] = None
        observer = env.observer
        if observer is not None:
            observer.process_started(self)
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, throwing :class:`Interrupt` into it.

        Interrupting a terminated process is an error.  A process cannot
        interrupt itself.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        interruption = Event(self.env)
        interruption._ok = True
        interruption._value = Interrupt(cause)
        interruption.callbacks = [self._resume_interrupt]
        self.env.schedule(interruption, priority=URGENT)

    def _resume_interrupt(self, event: Event) -> None:
        # If the process already ended between scheduling and delivery of the
        # interrupt, silently drop it.
        if not self.is_alive:
            return
        # Remove the process from the event it is waiting on, then resume it
        # with the Interrupt exception.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._do_resume(event.value, throw=True)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._do_resume(event._value, throw=False)
        else:
            event.defused = True
            self._do_resume(event._value, throw=True)

    def _do_resume(self, value: Any, *, throw: bool) -> None:
        env = self.env
        previous, env._active_process = env._active_process, self
        self._target = None
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._end(stop.value, ok=True)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failed event
            self._end(exc, ok=False)
            return
        finally:
            env._active_process = previous

        if not isinstance(target, Event):
            raise RuntimeError(
                f"process {self.name!r} yielded a non-event object: {target!r}"
            )
        if target.callbacks is None:
            # Already processed: resume on the next urgent slot so that the
            # process does not starve other events scheduled "now".
            immediate = Event(env)
            immediate._ok = target._ok
            immediate._value = target._value
            immediate.callbacks = [self._resume]
            env.schedule(immediate, priority=URGENT)
            self._target = immediate
        else:
            target.callbacks.append(self._resume)
            self._target = target

    def _end(self, value: Any, *, ok: bool) -> None:
        self._ok = ok
        self._value = value
        if not ok and not isinstance(value, BaseException):  # pragma: no cover
            value = RuntimeError(repr(value))
            self._value = value
        observer = self.env.observer
        if observer is not None:
            observer.process_ended(self, ok)
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process({self.name}) {state} at {id(self):#x}>"
