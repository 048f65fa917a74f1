"""Snapshot plans: when, in simulated time, a run takes audit snapshots.

A :class:`SnapshotPlan` is a fixed interval of simulated time anchored at
t=0 plus how many files to keep.  Restoring a snapshot rebuilds and
replays from t=0, so a snapshot cannot make recovery faster than replay;
plans drive the opt-in periodic *audit* snapshots of
:class:`~repro.service.core.SimulationService`, where each file pins the
state fingerprint a replay of the log prefix must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SnapshotPlan:
    """When (in simulated time) a run snapshots itself.

    Attributes
    ----------
    interval:
        Simulated seconds between snapshot boundaries.
    keep:
        Snapshot files retained on disk (older boundaries are pruned).
    """

    interval: float
    keep: int = 2

    def __post_init__(self) -> None:
        if not (self.interval > 0):
            raise ConfigurationError(
                f"snapshot interval must be > 0, got {self.interval}"
            )
        if self.keep < 1:
            raise ConfigurationError(
                f"snapshot plan must keep at least one file, got {self.keep}"
            )

    @classmethod
    def fixed(cls, interval: float, *, keep: int = 2) -> "SnapshotPlan":
        """A plain fixed-interval plan."""
        return cls(interval=interval, keep=keep)

    def boundaries(self, start: float = 0.0) -> Iterator[float]:
        """The snapshot times ``start + k * interval`` for ``k >= 1``."""
        k = 1
        while True:
            yield start + k * self.interval
            k += 1
