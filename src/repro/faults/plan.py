"""Declarative fault plans.

A :class:`FaultPlan` describes *what* goes wrong in a run — node crashes,
stragglers, elastic capacity — without any reference to the simulation
objects, so plans are plain frozen data: picklable (they ride through the
sweep engine's worker processes), hashable, and comparable.  The
:class:`~repro.faults.injector.FaultInjector` turns a plan into seeded
discrete-event processes at simulation start.

Determinism is by construction: every random draw of the injector comes
from a :class:`~repro.rng.DeterministicRNG` seeded with
``derive_seed(plan.seed, stream_key)`` where the stream key names the node
and fault kind (``"crash:node3"``), so adding a straggler to one node never
perturbs the crash times of another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Wildcard node pattern: the spec applies to every scheduler node.
ALL_NODES = "*"


@dataclass(frozen=True)
class NodeFaultSpec:
    """Crash/repair behaviour of one node (or all nodes with ``"*"``).

    The node alternates between up and down: up-times are exponential
    with mean ``mtbf``, down-times exponential with mean ``mttr`` (both
    drawn from the node's own seeded stream).  A crash kills the jobs
    running on the node (checkpoint rollback + requeue), aborts its
    in-flight transfers and drops its page cache; a repair brings the
    node back cold.

    Attributes
    ----------
    node:
        Node name, or :data:`ALL_NODES` for an independent crash process
        on every node.
    mtbf:
        Mean time between failures in simulated seconds (> 0).
    mttr:
        Mean time to repair in simulated seconds (>= 0; 0 restores the
        node in the next event cascade).
    first_failure_after:
        Grace period before the first failure draw (warm-up protection).
    max_failures:
        Upper bound on injected crashes per node (``None`` = unbounded).
    """

    node: str = ALL_NODES
    mtbf: float = 1000.0
    mttr: float = 50.0
    first_failure_after: float = 0.0
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ConfigurationError(
                f"node fault spec for {self.node!r}: mtbf must be > 0"
            )
        if self.mttr < 0:
            raise ConfigurationError(
                f"node fault spec for {self.node!r}: mttr must be >= 0"
            )
        if self.first_failure_after < 0:
            raise ConfigurationError(
                f"node fault spec for {self.node!r}: first_failure_after "
                "must be >= 0"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError(
                f"node fault spec for {self.node!r}: max_failures must be >= 0"
            )


@dataclass(frozen=True)
class StragglerSpec:
    """Slow-node behaviour: multipliers on compute and I/O rates.

    While slowed, the node's per-core CPU speed is multiplied by
    ``compute_factor`` and the bandwidth of its disk (and memory)
    channels by ``io_factor`` (both in ``(0, 1]``; 1.0 leaves the rate
    untouched).  Original rates are recorded and restored exactly —
    no divide-then-multiply float drift.

    The slowdown window is ``[start, start + duration)``.  With
    ``period`` set the window repeats every ``period`` seconds
    (time-varying straggler); ``duration=None`` means the node straggles
    forever from ``start`` on.  ``max_delay`` adds a seeded uniform delay
    in ``[0, max_delay]`` to ``start``, de-synchronising the stragglers
    of a wildcard spec.
    """

    node: str = ALL_NODES
    compute_factor: float = 1.0
    io_factor: float = 1.0
    start: float = 0.0
    duration: Optional[float] = None
    period: Optional[float] = None
    max_delay: float = 0.0

    def __post_init__(self) -> None:
        for label, factor in (("compute_factor", self.compute_factor),
                              ("io_factor", self.io_factor)):
            if not 0 < factor <= 1:
                raise ConfigurationError(
                    f"straggler spec for {self.node!r}: {label} must be in "
                    f"(0, 1], got {factor}"
                )
        if self.start < 0 or self.max_delay < 0:
            raise ConfigurationError(
                f"straggler spec for {self.node!r}: start and max_delay "
                "must be >= 0"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"straggler spec for {self.node!r}: duration must be > 0"
            )
        if self.period is not None:
            if self.duration is None:
                raise ConfigurationError(
                    f"straggler spec for {self.node!r}: a periodic "
                    "straggler needs a finite duration"
                )
            if self.period <= self.duration:
                raise ConfigurationError(
                    f"straggler spec for {self.node!r}: period must exceed "
                    "duration"
                )


@dataclass(frozen=True)
class ElasticNodeSpec:
    """Burstable capacity: a node that joins and (optionally) leaves.

    Before ``join_time`` the node is held in the draining state (it
    exists in the platform but receives no work).  At ``join_time`` it
    becomes schedulable.  At ``leave_time`` it starts draining again —
    running jobs finish normally, nothing new is placed — and once idle
    it has left for good (drain-before-leave).
    """

    node: str = ""
    join_time: float = 0.0
    leave_time: Optional[float] = None
    #: Seconds between drain-completion polls while leaving.
    drain_poll: float = 5.0

    def __post_init__(self) -> None:
        if not self.node or self.node == ALL_NODES:
            raise ConfigurationError(
                "an elastic spec names one concrete node (no wildcard)"
            )
        if self.join_time < 0:
            raise ConfigurationError(
                f"elastic spec for {self.node!r}: join_time must be >= 0"
            )
        if self.leave_time is not None and self.leave_time < self.join_time:
            raise ConfigurationError(
                f"elastic spec for {self.node!r}: leave_time must be >= "
                "join_time"
            )
        if self.drain_poll <= 0:
            raise ConfigurationError(
                f"elastic spec for {self.node!r}: drain_poll must be > 0"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of everything that goes wrong.

    An empty plan (``FaultPlan()``) is the *zero plan*: it injects
    nothing, enables no fault machinery, and a simulation run with it is
    byte-identical to one run without a plan at all — the property the
    parity tests pin.
    """

    seed: int = 0
    node_faults: Tuple[NodeFaultSpec, ...] = ()
    stragglers: Tuple[StragglerSpec, ...] = ()
    elastic: Tuple[ElasticNodeSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigurationError(
                f"fault plan seed must be an int, got {type(self.seed).__name__}"
            )
        # Accept lists for ergonomics; store tuples so the plan stays
        # hashable and immutable.
        for name in ("node_faults", "stragglers", "elastic"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        seen = set()
        for spec in self.elastic:
            if spec.node in seen:
                raise ConfigurationError(
                    f"duplicate elastic spec for node {spec.node!r}"
                )
            seen.add(spec.node)

    @property
    def is_zero(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.node_faults or self.stragglers or self.elastic)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -------------------------------------------------------------- (de)code
    def as_dict(self) -> dict:
        """The plan as plain JSON-able data (see :meth:`from_dict`).

        Snapshot recipes embed fault plans in their JSON headers; the
        round trip ``FaultPlan.from_dict(plan.as_dict()) == plan`` is
        exact because every spec field is a scalar.
        """
        return {
            "seed": self.seed,
            "node_faults": [asdict(spec) for spec in self.node_faults],
            "stragglers": [asdict(spec) for spec in self.stragglers],
            "elastic": [asdict(spec) for spec in self.elastic],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output."""
        return cls(
            seed=data.get("seed", 0),
            node_faults=tuple(
                NodeFaultSpec(**spec) for spec in data.get("node_faults", ())
            ),
            stragglers=tuple(
                StragglerSpec(**spec) for spec in data.get("stragglers", ())
            ),
            elastic=tuple(
                ElasticNodeSpec(**spec) for spec in data.get("elastic", ())
            ),
        )
