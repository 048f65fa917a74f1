"""Durable append-only submission log.

The log is the service's source of truth: together with the build recipe
it *fully determines* the simulation's results.  Every accepted operation
— a job submission or the close of the submission stream — is appended as
one JSON line and fsync'd **before** the client is acknowledged, so an
acknowledged submission survives any crash.  Recovery rebuilds the
simulation from its recipe and replays the whole log from t=0, reaching a
byte-identical state.

Each entry records the simulated *injection time* ``t`` at which the
operation was applied to the paused simulation.  Injection times are
non-decreasing; replay is simply ``step_until(t)`` followed by the
operation, entry by entry.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import SimulationError

#: Log operations.
OP_SUBMIT = "submit"
OP_CLOSE = "close"


class SubmissionLogError(SimulationError):
    """The submission log is corrupt beyond the tolerated truncated tail."""


@dataclass(frozen=True)
class LogEntry:
    """One durable operation: a submission or the stream close."""

    seq: int
    op: str
    t: float
    token: Optional[str] = None
    spec: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"seq": self.seq, "op": self.op, "t": self.t}
        if self.token is not None:
            data["token"] = self.token
        if self.spec is not None:
            data["spec"] = self.spec
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogEntry":
        return cls(
            seq=int(data["seq"]),
            op=str(data["op"]),
            t=float(data["t"]),
            token=data.get("token"),
            spec=data.get("spec"),
        )


class SubmissionLog:
    """Append-only JSON-lines log with fsync-before-ack durability.

    A crash can leave at most one torn line at the *end* of the file
    (the write that never completed); :meth:`entries` drops it, because
    the matching client was never acknowledged.  A torn or unparsable
    line anywhere else means real corruption and raises.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._file = None

    # ----------------------------------------------------------------- append
    def append(self, entry: LogEntry) -> LogEntry:
        """Durably append ``entry``; returns it once it is on disk."""
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        line = json.dumps(entry.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        self._file.write(line + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())
        return entry

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------- read
    def entries(self) -> List[LogEntry]:
        """All durable entries, tolerating one torn trailing line."""
        if not self.path.exists():
            return []
        raw = self.path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        entries: List[LogEntry] = []
        for index, line in enumerate(lines):
            try:
                entries.append(LogEntry.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                if index == len(lines) - 1:
                    # Torn tail from a crash mid-append: the entry was
                    # never acknowledged, dropping it is correct.
                    break
                raise SubmissionLogError(
                    f"submission log {self.path} is corrupt at line "
                    f"{index + 1}: {exc}"
                ) from exc
        self._check(entries)
        return entries

    @staticmethod
    def _check(entries: List[LogEntry]) -> None:
        previous_t = 0.0
        for index, entry in enumerate(entries):
            if entry.seq != index:
                raise SubmissionLogError(
                    f"submission log out of sequence at entry {index}: "
                    f"seq={entry.seq}"
                )
            if entry.t < previous_t:
                raise SubmissionLogError(
                    f"submission log time went backwards at seq {entry.seq}: "
                    f"{entry.t} < {previous_t}"
                )
            previous_t = entry.t
            if entry.op not in (OP_SUBMIT, OP_CLOSE):
                raise SubmissionLogError(
                    f"unknown log op {entry.op!r} at seq {entry.seq}"
                )
            if entry.op == OP_CLOSE and index != len(entries) - 1:
                raise SubmissionLogError(
                    f"close op at seq {entry.seq} is not the final entry"
                )
