"""Counted resource for simulated processes.

:class:`Resource` is the classic SimPy-style primitive: ``capacity``
units granted to requesting processes in FIFO order.  The simulator uses
it for the cores of every CPU (:mod:`repro.platform.cpu`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.des.events import Event


class Request(Event):
    """Event representing a pending request for one unit of a resource.

    The request triggers once the unit is granted.  Requests are context
    managers: leaving the ``with`` block releases the unit.
    """

    __slots__ = ("resource", "_released", "_withdrawn")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._released = False
        #: Tombstone flag: a cancelled queued request stays in the queue
        #: structure and is skipped at grant time (no rescans).
        self._withdrawn = False
        resource._add_request(self)

    def release(self) -> None:
        """Release the granted unit (idempotent)."""
        if not self._released:
            self._released = True
            self.resource._do_release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet (O(1))."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.release()


class Resource:
    """Counted resource with ``capacity`` units and FIFO queuing.

    Queued requests live in a deque; cancellations and queued releases
    tombstone the request (``_withdrawn``) instead of rescanning the
    queue, and the grant loop skips tombstones as it pops — every queue
    operation is O(1) amortised.
    """

    def __init__(self, env, capacity: int = 1, name: Optional[str] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name or type(self).__name__
        self.users: List[Request] = []
        self._pending: Deque[Request] = deque()

    # ------------------------------------------------------------------ api
    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    @property
    def available(self) -> int:
        """Number of free units."""
        return self.capacity - len(self.users)

    @property
    def queue(self) -> List[Request]:
        """The waiting (non-withdrawn) requests, in grant order (snapshot)."""
        return [r for r in self._pending if not r._withdrawn]

    def request(self) -> Request:
        """Request one unit; returns an event that triggers when granted."""
        return Request(self)

    # ------------------------------------------------------------- internals
    def _add_request(self, request: Request) -> None:
        self._pending.append(request)
        self._grant()

    def _grant(self) -> None:
        """Grant free units to queued requests in FIFO order, reaping
        tombstones."""
        pending = self._pending
        while pending and len(self.users) < self.capacity:
            request = pending.popleft()
            if request._withdrawn:
                continue
            self.users.append(request)
            # The request succeeds with itself as value so that processes can
            # write ``with (yield resource.request()): ...``.
            request.succeed(request)

    def _do_release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
        else:
            request._withdrawn = True
        self._grant()

    def _cancel(self, request: Request) -> None:
        if request not in self.users:
            request._withdrawn = True

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"{self.count}/{self.capacity} used, {len(self.queue)} queued>"
        )
