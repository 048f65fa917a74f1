"""Discrete-event simulation kernel.

This subpackage provides a small but complete process-oriented
discrete-event simulation engine in the spirit of SimPy, written from
scratch.  It plays the role that SimGrid plays for WRENCH in the original
paper: an event queue, simulated processes implemented as Python
generators, composite events, and contention-aware shared resources.

Typical usage::

    from repro.des import Environment

    def producer(env, store):
        for i in range(3):
            yield env.timeout(1.0)
            yield store.put(i)

    env = Environment()
    ...
    env.run()
"""

from repro.des.events import (
    Event,
    Timeout,
    Condition,
    AllOf,
    AnyOf,
    Interrupt,
    StopProcess,
    PENDING,
)
from repro.des.process import Process
from repro.des.environment import Environment
from repro.des.resources import (
    Resource,
    Request,
    Release,
    PriorityResource,
    Container,
    Store,
    Lock,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
    "PENDING",
    "Process",
    "Resource",
    "Request",
    "Release",
    "PriorityResource",
    "Container",
    "Store",
    "Lock",
]
