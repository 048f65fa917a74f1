"""CPU / compute model.

Tasks in the paper are characterised by a measured CPU time which is
injected into the simulators as a number of flops executed on a 1 Gflops
core.  The :class:`CPU` model reproduces this: a host has ``cores``
identical cores of ``speed`` flops per second; each running task occupies
one core for ``flops / speed`` seconds, and tasks beyond the core count
queue (FIFO).
"""

from __future__ import annotations

from typing import Optional

from repro.des.environment import Environment
from repro.des.events import Event, Interrupt
from repro.des.process import Process
from repro.des.resources import Resource
from repro.errors import ConfigurationError


class _Computation(Process):
    """A computation on one core: a process that keeps its core's grant time."""

    __slots__ = ("granted_at",)

    def __init__(self, cpu: "CPU", flops: float, name: str):
        #: When a core was granted (``None`` while queued for one).  Kept
        #: after the computation ends: its task can be interrupted in the
        #: instant the computation finished, before the task resumes.
        self.granted_at: Optional[float] = None
        super().__init__(cpu.env, cpu._execute(flops, self), name=name)


class CPU:
    """A multi-core CPU with a fixed per-core speed.

    Workflow tasks compute on it directly: :meth:`execute` queues a
    computation for a core, and :meth:`cancel` stops one that a preemption
    or crash interrupts, reporting how long it held a core.

    Parameters
    ----------
    env:
        Simulation environment.
    cores:
        Number of physical cores.
    speed:
        Per-core speed in flops per second (1e9 in the paper's setup).
    name:
        Device name.
    """

    #: Per-core speed used by the paper to convert CPU seconds to flops.
    DEFAULT_SPEED = 1e9

    def __init__(self, env: Environment, cores: int = 1,
                 speed: float = DEFAULT_SPEED, name: str = "cpu"):
        if cores <= 0:
            raise ConfigurationError("a CPU needs at least one core")
        if speed <= 0:
            raise ConfigurationError("CPU speed must be positive")
        self.env = env
        self.cores = int(cores)
        self.speed = float(speed)
        self.name = name
        self._core_pool = Resource(env, capacity=self.cores, name=f"{name}-cores")

    @property
    def busy_cores(self) -> int:
        """Number of cores currently executing work."""
        return self._core_pool.count

    def execute(self, flops: float, label: Optional[str] = None) -> Event:
        """Execute ``flops`` on one core; returns a completion event.

        Stop the computation early with :meth:`cancel`.
        """
        if flops < 0:
            raise ValueError("flops must be >= 0")
        return _Computation(self, flops, label or "compute")

    def cancel(self, computation: _Computation) -> float:
        """Interrupt a computation started by :meth:`execute`.

        Returns the seconds it held a core: time queued for a busy core
        executed nothing and counts zero.  A computation that has already
        ended is not interrupted but still reports its core time.
        """
        if computation.is_alive:
            computation.interrupt("preempted")
        granted_at = computation.granted_at
        return 0.0 if granted_at is None else self.env.now - granted_at

    def set_speed(self, speed: float) -> None:
        """Change the per-core speed (straggling / recovered node).

        Applies to compute segments granted a core *after* the change;
        segments already in flight finish at the speed they started with
        (their completion timeout is already scheduled).
        """
        if speed <= 0:
            raise ConfigurationError("CPU speed must be positive")
        self.speed = float(speed)

    def _execute(self, flops: float, computation: _Computation):
        # The request is released in the finally block whether it was
        # granted or still queued, so an interrupt (preemption) can never
        # leak a core or a queue slot.
        request = self._core_pool.request()
        try:
            yield request
            duration = flops / self.speed
            computation.granted_at = self.env.now
            if duration > 0:
                yield self.env.timeout(duration)
            return duration
        except Interrupt:
            # Cancelled, queued or on a core: :meth:`cancel` reports the
            # time it held a core.
            return None
        finally:
            request.release()

    def __repr__(self) -> str:
        return f"<CPU {self.name!r} {self.cores} cores @ {self.speed:.3g} flops/s>"
