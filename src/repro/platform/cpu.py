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
from repro.des.resources import Resource
from repro.errors import ConfigurationError


class CPU:
    """A multi-core CPU with a fixed per-core speed.

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
        #: Cumulative statistics.
        self.total_flops = 0.0
        self.tasks_executed = 0

    @property
    def busy_cores(self) -> int:
        """Number of cores currently executing work."""
        return self._core_pool.count

    def execute(self, flops: float, label: Optional[str] = None) -> Event:
        """Execute ``flops`` on one core; returns a completion event.

        The returned process carries (in ``Process.data``) a dict whose
        ``granted_at`` key is set the moment a core is granted, so a
        canceller can tell executed time apart from core-queueing time.
        """
        if flops < 0:
            raise ValueError("flops must be >= 0")
        info: dict = {}
        process = self.env.process(
            self._execute(flops, info), name=label or "compute"
        )
        process.data = info
        return process

    def compute_seconds(self, seconds: float, label: Optional[str] = None) -> Event:
        """Execute work lasting ``seconds`` of CPU time on one core."""
        return self.execute(seconds * self.speed, label=label)

    def duration_of(self, flops: float) -> float:
        """Uncontended duration of ``flops`` on one core."""
        return flops / self.speed

    def set_speed(self, speed: float) -> None:
        """Change the per-core speed (straggling / recovered node).

        Applies to compute segments granted a core *after* the change;
        segments already in flight finish at the speed they started with
        (their completion timeout is already scheduled).
        """
        if speed <= 0:
            raise ConfigurationError("CPU speed must be positive")
        self.speed = float(speed)

    def _execute(self, flops: float, info: Optional[dict] = None):
        # The request is released in the finally block whether it was
        # granted or still queued, so an interrupt (preemption) can never
        # leak a core or a queue slot.
        request = self._core_pool.request()
        try:
            yield request
            duration = flops / self.speed
            started = self.env.now
            if info is not None:
                info["granted_at"] = started
            if duration > 0:
                try:
                    yield self.env.timeout(duration)
                except Interrupt:
                    # Preempted mid-computation: account the flops actually
                    # executed and end cleanly (the core frees right away).
                    elapsed = self.env.now - started
                    self.total_flops += min(flops, elapsed * self.speed)
                    return elapsed
            self.total_flops += flops
            self.tasks_executed += 1
            return duration
        except Interrupt:
            # Cancelled while still waiting for a core: nothing executed.
            return 0.0
        finally:
            request.release()

    def __repr__(self) -> str:
        return f"<CPU {self.name!r} {self.cores} cores @ {self.speed:.3g} flops/s>"
