"""Discrete-event simulation kernel.

This subpackage provides a small process-oriented discrete-event
simulation engine in the spirit of SimPy, written from scratch.  It plays
the role that SimGrid plays for WRENCH in the original paper: an event
queue, simulated processes implemented as Python generators, and a
counted resource for contention.

There are no composite events.  A parent that waits on several child
processes yields one plain :class:`Event` per wake; each child gets one
callback when it is created, and that callback triggers the parent's
event when the child ends (see ``ClusterScheduler.run``,
``WorkflowExecutor.run`` and ``Simulation`` completion).  A parent that
needs every child simply yields each child process in turn.

Typical usage::

    from repro.des import Environment, Resource

    def task(env, cores, duration):
        with (yield cores.request()):
            yield env.timeout(duration)

    env = Environment()
    cores = Resource(env, capacity=2)
    for duration in (1.0, 2.0, 3.0):
        env.process(task(env, cores, duration))
    env.run()  # the third task waits for a core: env.now == 4.0
"""

from repro.des.events import Event, Timeout, Interrupt, PENDING
from repro.des.process import Process
from repro.des.environment import Environment
from repro.des.resources import Resource, Request

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Interrupt",
    "PENDING",
    "Process",
    "Resource",
    "Request",
]
