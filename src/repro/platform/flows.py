"""Fair-sharing flow model for contended devices.

A :class:`FairShareChannel` represents a device (disk head, memory bus,
network link) with a nominal bandwidth ``B``.  When ``n`` transfers are in
flight simultaneously, each progresses at ``B / n`` (progressive filling /
max-min fairness with a single bottleneck), which is the macroscopic model
SimGrid uses for storage and network resources and the one the paper relies
on for simulating concurrent applications.

The channel recomputes the remaining work of every active flow whenever a
flow starts or completes, and schedules a single "next completion" waker
timeout.  The cost of the model is therefore proportional to the number of
flow arrivals/departures, not to the amount of data transferred.

Event budget.  A transfer that finds its channel idle schedules its
completion waker at once.  The waker thereby takes its queue position at
the arrival rather than at the end of the arrival's event cascade: when
the completion ties with an event scheduled later in that cascade for the
same instant, the waker now comes first.  Arrivals on a busy channel queue one
same-instant sentinel (urgent priority, zero delay) that recomputes the
next completion after every arrival of the instant, so a burst of ``n``
concurrent transfers costs one completion scan instead of ``n``.  A
wake-up that completes exactly one flow holds that flow's completion
event back and, once the channel has rescheduled, runs its callbacks
right there when no other event is due at the same instant; a pushed
event would have been the next one popped, so every event keeps its
order and only the queue round trip is saved.  Otherwise (another event
due now, or two or more flows finishing together) the completions are
pushed in flow order.  An uncontended transfer therefore costs one queue
entry, its waker.

A channel can also be configured with ``sharing=False``, in which case each
transfer proceeds at the full bandwidth regardless of contention.  This
degenerate mode reproduces the paper's standalone Python prototype, which
"does not simulate bandwidth sharing and thus does not support concurrency".
"""

from __future__ import annotations

from typing import List, Optional

from repro.des.environment import Environment
from repro.des.events import Event, Timeout, URGENT
from repro.errors import ConfigurationError, FlowAborted

#: Tolerance below which a flow is considered complete (bytes).
_EPSILON = 1e-6


class Flow:
    """A single transfer in progress on a :class:`FairShareChannel`."""

    __slots__ = ("amount", "remaining", "event", "start_time", "label")

    def __init__(self, amount: float, event: Event, start_time: float,
                 label: Optional[str] = None):
        self.amount = float(amount)
        self.remaining = float(amount)
        self.event = event
        self.start_time = start_time
        self.label = label

    @property
    def progress(self) -> float:
        """Fraction of the transfer completed, in ``[0, 1]``."""
        if self.amount == 0:
            return 1.0
        return 1.0 - self.remaining / self.amount

    def __repr__(self) -> str:
        return (
            f"<Flow {self.label or ''} {self.amount - self.remaining:.0f}/"
            f"{self.amount:.0f} bytes>"
        )


class FairShareChannel:
    """A bandwidth-limited channel shared fairly among concurrent flows.

    Parameters
    ----------
    env:
        Simulation environment.
    bandwidth:
        Nominal bandwidth in bytes per second.  Must be positive.
    name:
        Human-readable name used in ``repr`` and statistics.
    sharing:
        If ``True`` (default), the bandwidth is divided equally among active
        flows.  If ``False``, every flow progresses at the full bandwidth
        (contention-oblivious mode used by the single-threaded prototype).
    """

    def __init__(self, env: Environment, bandwidth: float,
                 name: str = "channel", sharing: bool = True):
        if bandwidth <= 0:
            raise ConfigurationError(
                f"channel {name!r} requires a positive bandwidth, got {bandwidth}"
            )
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        self.sharing = sharing
        self._flows: List[Flow] = []
        self._last_update = env.now
        #: The pending next-completion timeout, if any.  Arrivals and
        #: departures cancel it (tombstone, O(1)) and schedule a fresh one
        #: instead of spawning a waker process per reschedule.
        self._waker_timeout: Optional[Timeout] = None
        #: Set while a same-instant reschedule sentinel is queued: a burst
        #: of arrivals in one event cascade (concurrent applications
        #: issuing chunk I/O at the same simulated time) computes the next
        #: completion once, at the end of the cascade, instead of once per
        #: arrival.
        self._resched_queued = False
        #: Set during a wake-up while its completions may still be held:
        #: the first completion goes to ``_held`` instead of the queue,
        #: and a second one pushes both (see :meth:`_on_wake`).
        self._hold = False
        self._held: Optional[Event] = None
        # Statistics
        self.total_transferred = 0.0
        self.total_flows = 0
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        #: Telemetry track of this channel's flow spans (precomputed:
        #: completions are the hottest instrumented path).
        self._obs_track = f"flow:{name}"

    # ----------------------------------------------------------------- state
    @property
    def active_flows(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._flows)

    @property
    def rate_per_flow(self) -> float:
        """Bandwidth currently granted to each active flow."""
        if not self._flows:
            return self.bandwidth
        if not self.sharing:
            return self.bandwidth
        return self.bandwidth / len(self._flows)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the channel had at least one active flow."""
        end = self.env.now if horizon is None else horizon
        busy = self.busy_time
        if self._busy_since is not None:
            busy += max(0.0, end - self._busy_since)
        if end <= 0:
            return 0.0
        return min(1.0, busy / end)

    # ------------------------------------------------------------------- api
    def transfer(self, amount: float, label: Optional[str] = None) -> Event:
        """Start a transfer of ``amount`` bytes.

        Returns an event that succeeds (with the elapsed transfer time) once
        the transfer completes.  Zero-sized transfers complete immediately.
        """
        if amount < 0:
            raise ValueError(f"cannot transfer a negative amount ({amount})")
        env = self.env
        done = Event(env)
        if amount <= _EPSILON:
            done.succeed(0.0)
            return done

        self._update_progress()
        now = env._now
        flow = Flow(amount, done, now, label=label)
        if self._busy_since is None:
            self._busy_since = now
        flows = self._flows
        idle = not flows
        flows.append(flow)
        self.total_flows += 1
        if self._resched_queued:
            return done
        if idle:
            # Schedule the completion at once; a second arrival in this
            # instant tombstones the waker and queues the sentinel.
            self._reschedule()
            return done
        # Defer the reschedule to the end of the current event cascade: a
        # sentinel event at the same instant (urgent priority, zero
        # delay) fires after every same-time arrival has been added, so a
        # burst of n concurrent transfers costs one completion scan and
        # one waker timeout instead of n.  No simulated time can pass
        # before the sentinel runs.
        self._resched_queued = True
        waker = self._waker_timeout
        if waker is not None:
            waker._defunct = True
            self._waker_timeout = None
        sentinel = Event(env)
        sentinel._ok = True
        sentinel.callbacks.append(self._on_deferred_reschedule)
        env.schedule(sentinel, priority=URGENT)
        return done

    def _on_deferred_reschedule(self, _event: Event) -> None:
        self._resched_queued = False
        self._reschedule()

    def abort_all(self, reason: Optional[str] = None) -> int:
        """Abort every in-flight transfer (device crash); return the count.

        Progress up to the abort instant is accounted, then each flow's
        completion event *fails* with :class:`~repro.errors.FlowAborted`.
        The events are pre-defused: a waiter that was interrupted away
        (the crashed node's tasks are preempted separately) leaves an
        orphaned event behind, and a defused failure is simply discarded
        by the event loop instead of crashing the simulation.  Waiters
        that are still attached — e.g. the background flusher writing
        through the crashed disk — get the exception thrown in and are
        expected to handle it.

        The channel itself stays usable: transfers started after the
        abort (the node restarted) proceed normally.
        """
        flows = self._flows
        if not flows:
            return 0
        self._update_progress()
        self._flows = []
        name = self.name if reason is None else f"{self.name} ({reason})"
        for flow in flows:
            event = flow.event
            event.defused = True
            event.fail(FlowAborted(
                f"transfer {flow.label or 'unnamed'} aborted on channel "
                f"{name}: {flow.remaining:.0f} of {flow.amount:.0f} bytes "
                "were still in flight"
            ))
        if self._busy_since is not None:
            self.busy_time += self.env._now - self._busy_since
            self._busy_since = None
        waker = self._waker_timeout
        if waker is not None:
            waker._defunct = True
            self._waker_timeout = None
        return len(flows)

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the channel's nominal bandwidth (straggling device).

        In-flight flows keep the bytes they already transferred at the old
        rate (progress is settled first) and continue at the new rate; the
        pending completion wake-up is recomputed.  Setting the current
        bandwidth again is a no-op.
        """
        if bandwidth <= 0:
            raise ConfigurationError(
                f"channel {self.name!r} requires a positive bandwidth, "
                f"got {bandwidth}"
            )
        if bandwidth == self.bandwidth:
            return
        self._update_progress()
        self.bandwidth = float(bandwidth)
        self._reschedule()

    def estimate_time(self, amount: float) -> float:
        """Time the transfer would take with the *current* contention level.

        This is an instantaneous estimate used by tests and reporting only;
        the actual transfer time depends on future arrivals and departures.
        """
        flows = len(self._flows) + 1
        rate = self.bandwidth if not self.sharing else self.bandwidth / flows
        return amount / rate

    # ------------------------------------------------------------- internals
    def _update_progress(self) -> None:
        now = self.env._now
        elapsed = now - self._last_update
        flows = self._flows
        if elapsed > 0 and flows:
            # Inline rate_per_flow: the same division, without the
            # property call on every progress update.
            rate = self.bandwidth
            if self.sharing:
                rate = rate / len(flows)
            quantum = rate * elapsed
            transferred = self.total_transferred
            for flow in flows:
                done_amount = flow.remaining
                if quantum < done_amount:
                    done_amount = quantum
                flow.remaining -= done_amount
                transferred += done_amount
            self.total_transferred = transferred
        self._last_update = now

    def _complete_finished_flows(self) -> None:
        flows = self._flows
        finished = []
        kept = []
        for flow in flows:
            if flow.remaining <= _EPSILON:
                finished.append(flow)
            else:
                kept.append(flow)
        if finished:
            self._flows = kept
            env = self.env
            now = env._now
            observer = env.observer
            for flow in finished:
                flow.remaining = 0.0
                done = flow.event
                if not self._hold:
                    done.succeed(now - flow.start_time)
                elif self._held is None:
                    # The wake-up's first completion: held back.
                    done._ok = True
                    done._value = now - flow.start_time
                    self._held = done
                else:
                    # A second completion: the wake-up pushes all of its
                    # completions, in flow order.
                    env.schedule(self._held)
                    self._held = None
                    self._hold = False
                    done.succeed(now - flow.start_time)
                if observer is not None:
                    observer.complete(
                        flow.label or "transfer", "flow",
                        self._obs_track, flow.start_time, now,
                        attrs={"bytes": flow.amount},
                    )
        if not self._flows and self._busy_since is not None:
            self.busy_time += self.env._now - self._busy_since
            self._busy_since = None

    def _reschedule(self) -> None:
        # The completion set changed: the pending wake-up (if any) is
        # stale.  Tombstone it instead of letting a dead waker process
        # resume just to find out its version expired.
        waker = self._waker_timeout
        if waker is not None:
            waker._defunct = True
            self._waker_timeout = None
        env = self.env
        bandwidth = self.bandwidth
        sharing = self.sharing
        while True:
            flows = self._flows
            if not flows:
                return
            rate = bandwidth / len(flows) if sharing else bandwidth
            # min(remaining) / rate == min(remaining / rate): division by a
            # positive rate is monotone, and the winning quotient is the
            # same float either way.
            smallest_remaining = flows[0].remaining
            for flow in flows:
                if flow.remaining < smallest_remaining:
                    smallest_remaining = flow.remaining
            next_completion = smallest_remaining / rate
            now = env._now
            if now + next_completion > now:
                # A bare timeout with a callback: no waker process, no
                # Initialize/termination events — one queue entry per wake.
                timeout = Timeout(env, next_completion)
                timeout.callbacks.append(self._on_wake)
                self._waker_timeout = timeout
                return
            # The residual work is so small that its completion time is not
            # representable at the current simulated time: finish the
            # smallest flows immediately instead of spinning on zero-length
            # timeouts (floating-point underflow guard).
            for flow in list(self._flows):
                if flow.remaining <= smallest_remaining + _EPSILON:
                    self.total_transferred += flow.remaining
                    flow.remaining = 0.0
            self._complete_finished_flows()

    def _on_wake(self, _event: Event) -> None:
        self._waker_timeout = None
        self._update_progress()
        self._hold = True
        self._complete_finished_flows()
        self._reschedule()
        self._hold = False
        done = self._held
        if done is None:
            return
        self._held = None
        env = self.env
        if env.peek() > env._now:
            # Pushed, ``done`` would be the next event popped: run its
            # callbacks now, as the event loop would, and save the queue
            # round trip.
            callbacks, done.callbacks = done.callbacks, None
            for callback in callbacks:
                callback(done)
        else:
            env.schedule(done)

    def __repr__(self) -> str:
        return (
            f"<FairShareChannel {self.name!r} bw={self.bandwidth:.3g} B/s "
            f"flows={len(self._flows)} sharing={self.sharing}>"
        )
