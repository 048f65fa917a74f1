"""Sim-time span tracing.

A :class:`Span` is an interval of *simulated* time with a name, a category
(``"job"``, ``"operation"``, ``"io"``, ``"flow"``, ``"process"``...), a
track (the row it renders on in a trace viewer — a node, a device channel,
the scheduler) and free-form attributes.  The :class:`Observer` is the hub
instrumented code talks to:

* :meth:`Observer.begin` / :meth:`Observer.end` — paired spans for
  entities whose end is not known at the start (jobs, DES processes);
* :meth:`Observer.complete` — one-shot spans whose start and end are both
  known when the instrumentation point runs (file operations, flows);
* :meth:`Observer.instant` — point events (preemptions);
* :meth:`Observer.counter_sample` — a sim-time series sample rendered as a
  counter track (event-queue depth, memory profile).

Completed spans live in a bounded ring: a trace that outgrows the ring
drops its *oldest* spans (``dropped_spans`` counts them) instead of growing
without bound, so telemetry can stay on for a million-event replay.

Two invariants keep telemetry safe to enable:

* **observe, never schedule** — nothing here creates events, processes or
  timeouts; recording a span cannot perturb a simulation;
* **zero-cost when off** — instrumented code guards every call with a
  single ``observer is not None`` check, so the disabled fast path costs
  one attribute load and one branch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = ["Span", "Observer", "DEFAULT_MAX_SPANS"]

#: Default ring capacity (completed spans kept for export).
DEFAULT_MAX_SPANS = 200_000

#: Default capacity of the counter-sample ring.
DEFAULT_MAX_SAMPLES = 100_000


class Span:
    """One traced interval (or instant) of simulated time."""

    __slots__ = ("name", "category", "track", "start", "end", "attrs", "phase",
                 "_open_key")

    def __init__(self, name: str, category: str, track: str, start: float,
                 end: Optional[float] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 phase: str = "X"):
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end = end
        self.attrs = attrs
        #: Chrome-trace phase: ``"X"`` interval, ``"i"`` instant.
        self.phase = phase
        #: Key into the observer's open-span table while the span is open.
        self._open_key: Optional[int] = None

    @property
    def duration(self) -> Optional[float]:
        """Simulated duration; ``None`` while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL/CSV exporters."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "phase": self.phase,
            "attrs": self.attrs or {},
        }

    def __repr__(self) -> str:
        end = f"{self.end:.6g}" if self.end is not None else "open"
        return (
            f"<Span {self.category}:{self.name!r} track={self.track!r} "
            f"[{self.start:.6g}, {end}]>"
        )


class Observer:
    """Telemetry hub: span ring, counter samples, metrics registry.

    Parameters
    ----------
    max_spans:
        Capacity of the completed-span ring (oldest dropped first).
    max_samples:
        Capacity of the counter-sample ring.
    des_sample_interval:
        Period (simulated seconds) of the DES introspection sampler the
        simulator attaches; ``None`` disables periodic sampling (explicit
        :meth:`counter_sample` calls still work).
    """

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS,
                 max_samples: int = DEFAULT_MAX_SAMPLES,
                 des_sample_interval: Optional[float] = 1.0):
        if max_spans < 1 or max_samples < 1:
            raise ValueError("ring capacities must be >= 1")
        self.registry = MetricsRegistry()
        self.des_sample_interval = des_sample_interval
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._samples: Deque[Tuple[str, str, float, Dict[str, float]]] = deque(
            maxlen=max_samples
        )
        #: Completed spans ever emitted (emitted - len(ring) = dropped).
        self.spans_emitted = 0
        self.samples_emitted = 0
        #: Spans begun and not yet ended, in begin order.
        self._open: Dict[int, Span] = {}
        self._next_open = 0
        #: Open spans of live DES processes, keyed by ``id(process)``.
        self._process_spans: Dict[int, Span] = {}
        # ---- DES loop counters (maintained by Environment.run)
        #: Processed-event counts keyed by event class name.
        self.des_event_counts: Dict[str, int] = {}
        #: Tombstoned (cancelled) entries skipped by the event loop.
        self.des_tombstones = 0
        #: Largest simulated time any record carried (used to close
        #: still-open spans at export time).
        self.last_time = 0.0

    # ----------------------------------------------------------------- spans
    def begin(self, name: str, category: str, track: str, start: float,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; pair it with :meth:`end` to complete it."""
        span = Span(name, category, track, start, None, attrs)
        key = self._next_open
        self._next_open = key + 1
        self._open[key] = span
        span._open_key = key
        if start > self.last_time:
            self.last_time = start
        return span

    def end(self, span: Span, end: float,
            attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Close an open span at simulated time ``end``."""
        span.end = end
        if attrs:
            span.attrs = {**(span.attrs or {}), **attrs}
        key = span._open_key
        if key is not None:
            self._open.pop(key, None)
            span._open_key = None
        self._record(span)
        return span

    def complete(self, name: str, category: str, track: str, start: float,
                 end: float, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a span whose start and end are both already known.

        This is the hottest telemetry entry point (every flow and file
        operation lands here), so :meth:`_record` is inlined.
        """
        self._spans.append(Span(name, category, track, start, end, attrs))
        self.spans_emitted += 1
        if end > self.last_time:
            self.last_time = end

    def instant(self, name: str, category: str, track: str, time: float,
                attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event."""
        self._record(Span(name, category, track, time, time, attrs, phase="i"))

    def _record(self, span: Span) -> None:
        self._spans.append(span)
        self.spans_emitted += 1
        end = span.end
        if end is not None and end > self.last_time:
            self.last_time = end

    # --------------------------------------------------------------- samples
    def counter_sample(self, name: str, track: str, time: float,
                       values: Dict[str, float]) -> None:
        """Record one sample of a sim-time counter series."""
        self._samples.append((name, track, time, values))
        self.samples_emitted += 1
        if time > self.last_time:
            self.last_time = time

    # ----------------------------------------------------- process lifecycle
    # Called by repro.des.process behind the ``env.observer`` nullable hook.
    def process_started(self, process) -> None:
        """Open a lifetime span for a starting DES process."""
        name = process.name or "process"
        cls = name.split(":", 1)[0]
        self.registry.counter("des.process_started", cls=cls).inc()
        self._process_spans[id(process)] = self.begin(
            name, "process", "des", process.env.now
        )

    def process_ended(self, process, ok: bool) -> None:
        """Close the lifetime span of a terminating DES process."""
        name = process.name or "process"
        cls = name.split(":", 1)[0]
        self.registry.counter("des.process_ended", cls=cls).inc()
        span = self._process_spans.pop(id(process), None)
        if span is not None:
            self.end(span, process.env.now,
                     attrs=None if ok else {"failed": True})

    # ---------------------------------------------------------------- export
    @property
    def spans(self) -> List[Span]:
        """Completed spans surviving in the ring, oldest first."""
        return list(self._spans)

    @property
    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, in begin order."""
        return [self._open[key] for key in sorted(self._open)]

    @property
    def counter_samples(self) -> List[Tuple[str, str, float, Dict[str, float]]]:
        """Counter-series samples surviving in the ring, oldest first."""
        return list(self._samples)

    @property
    def dropped_spans(self) -> int:
        """Completed spans lost to ring truncation."""
        return self.spans_emitted - len(self._spans)

    @property
    def dropped_samples(self) -> int:
        """Counter samples lost to ring truncation."""
        return self.samples_emitted - len(self._samples)

    @property
    def des_events_processed(self) -> int:
        """Events executed by the observed DES loop."""
        return sum(self.des_event_counts.values())

    @property
    def des_tombstone_ratio(self) -> float:
        """Fraction of queue pops that were cancelled (tombstoned) entries."""
        popped = self.des_events_processed + self.des_tombstones
        if popped <= 0:
            return 0.0
        return self.des_tombstones / popped

    def __repr__(self) -> str:
        return (
            f"<Observer spans={len(self._spans)} open={len(self._open)} "
            f"samples={len(self._samples)} dropped={self.dropped_spans}>"
        )
