"""Standard Workload Format (SWF) traces.

The SWF is the community format for batch-cluster workload logs (the
Parallel Workloads Archive): a plain-text file whose header lines start
with ``;`` and carry ``; Key: Value`` directives, followed by one line per
job with exactly 18 whitespace-separated numeric fields::

    job_id submit wait run used_procs used_cpu used_mem req_procs req_time
    req_mem status user group executable queue partition preceding think

Unknown values are encoded as ``-1``.  Real archive traces routinely
contain malformed lines (truncated records, stray comments, editor junk),
so the parser is tolerant: lines that do not parse are counted and
reported, never fatal.

Replaying a trace against a simulated cluster needs three scaling knobs,
all provided by :meth:`SWFTrace.job_specs`:

* ``max_jobs`` — truncate the trace to its first N jobs;
* ``load_factor`` — compress (``> 1``) or stretch (``< 1``) inter-arrival
  times to raise or lower the offered load;
* ``max_cores`` — proportionally rescale per-job core requests so the
  widest trace job fits the simulated cluster's largest node.

The resulting :class:`TraceJobSpec` list is what
:meth:`repro.simulator.simulation.Simulation.submit_trace` turns into
batch jobs; :meth:`SWFTrace.arrival_process` feeds the same arrival times
to a :class:`~repro.scheduler.arrivals.TraceArrivalProcess` for callers
that only want the arrival pattern.
"""

from __future__ import annotations

import gzip
import os
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.errors import ConfigurationError
from repro.scheduler.arrivals import TraceArrivalProcess

#: The 18 record fields of the Standard Workload Format, in order.
SWF_FIELDS: Tuple[str, ...] = (
    "job_id",
    "submit_time",
    "wait_time",
    "run_time",
    "used_procs",
    "used_cpu_time",
    "used_memory",
    "requested_procs",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)

#: Fields holding integral values (the rest are seconds or kilobytes).
_INT_FIELDS = frozenset(
    (
        "job_id",
        "used_procs",
        "requested_procs",
        "status",
        "user_id",
        "group_id",
        "executable",
        "queue",
        "partition",
        "preceding_job",
    )
)


def _format_number(value: Union[int, float]) -> str:
    """Render a field value so that parse(write(x)) == x."""
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@dataclass
class SWFRecord:
    """One SWF job record (all 18 standard fields, ``-1`` = unknown)."""

    job_id: int = -1
    submit_time: float = -1.0
    wait_time: float = -1.0
    run_time: float = -1.0
    used_procs: int = -1
    used_cpu_time: float = -1.0
    used_memory: float = -1.0
    requested_procs: int = -1
    requested_time: float = -1.0
    requested_memory: float = -1.0
    status: int = -1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1.0

    @classmethod
    def from_tokens(cls, tokens: List[str]) -> "SWFRecord":
        """Build a record from the 18 whitespace-separated field tokens."""
        if len(tokens) != len(SWF_FIELDS):
            raise ValueError(
                f"expected {len(SWF_FIELDS)} fields, got {len(tokens)}"
            )
        values: Dict[str, Union[int, float]] = {}
        for name, token in zip(SWF_FIELDS, tokens):
            if name in _INT_FIELDS:
                # Integral fields occasionally appear as "12.0" in archive
                # traces; accept them but reject genuine fractions.
                number = float(token)
                if number != int(number):
                    raise ValueError(f"field {name!r} must be integral, got {token}")
                values[name] = int(number)
            else:
                values[name] = float(token)
        return cls(**values)

    def to_line(self) -> str:
        """Render the record as one SWF data line."""
        return " ".join(
            _format_number(getattr(self, name)) for name in SWF_FIELDS
        )

    @property
    def cores(self) -> int:
        """Best-effort core request: requested procs, else used procs."""
        if self.requested_procs > 0:
            return self.requested_procs
        return max(self.used_procs, 1)


@dataclass
class TraceJobSpec:
    """One trace job after scaling, ready to be submitted as a batch job."""

    job_id: int
    arrival_time: float
    cores: int
    runtime: float
    estimated_runtime: float
    priority: int
    #: Application (SWF "executable number"); keys the shared input dataset.
    app: int
    user: int


@dataclass
class SWFTrace:
    """A parsed SWF trace: header directives plus job records."""

    #: ``; Key: Value`` header directives; repeated keys (the standard
    #: uses one ``Queue:``/``Partition:`` directive per queue/partition)
    #: keep their first value here — the full header survives in
    #: :attr:`header`.
    directives: Dict[str, str] = field(default_factory=dict)
    #: Parsed job records, in file order.
    records: List[SWFRecord] = field(default_factory=list)
    #: ``(line_number, reason)`` of every tolerated malformed line.
    skipped: List[Tuple[int, str]] = field(default_factory=list)
    #: Every ``(key, value)`` header directive in file order, repeats
    #: included; this is what the writer emits, so a parse → write → parse
    #: round trip preserves the complete header.
    header: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Traces built programmatically with only `directives` still
        # round-trip: the header defaults to the directive dict.
        if not self.header and self.directives:
            self.header = list(self.directives.items())

    # --------------------------------------------------------------- queries
    @property
    def n_jobs(self) -> int:
        """Number of parsed job records."""
        return len(self.records)

    @property
    def max_procs(self) -> int:
        """Widest core request in the trace (``MaxProcs`` directive wins)."""
        declared = self.directives.get("MaxProcs")
        if declared is not None:
            try:
                return int(declared)
            except ValueError:
                pass
        return max((record.cores for record in self.records), default=1)

    def arrival_process(self, *, load_factor: float = 1.0,
                        max_jobs: Optional[int] = None) -> TraceArrivalProcess:
        """The trace's arrival pattern as a :class:`TraceArrivalProcess`."""
        specs = self.job_specs(load_factor=load_factor, max_jobs=max_jobs)
        return TraceArrivalProcess([spec.arrival_time for spec in specs])

    # ---------------------------------------------------------------- scaling
    def job_specs(self, *, max_jobs: Optional[int] = None,
                  load_factor: float = 1.0,
                  runtime_scale: float = 1.0,
                  max_cores: Optional[int] = None,
                  priority_of: Optional[Callable[[SWFRecord], int]] = None,
                  ) -> List[TraceJobSpec]:
        """Scale the trace records into submittable job specs.

        Parameters
        ----------
        max_jobs:
            Keep only the first N jobs (submission order).
        load_factor:
            Divides inter-arrival times: ``2.0`` doubles the offered load,
            ``0.5`` halves it.  Arrivals are re-based so the first job
            arrives at time 0.
        runtime_scale:
            Multiplies run times and runtime estimates, so hour-long trace
            jobs can replay in seconds of simulated time.
        max_cores:
            Proportionally rescale core requests so the widest trace job
            uses exactly ``max_cores`` (every job keeps at least one core).
            ``None`` keeps the trace's core counts.
        priority_of:
            Maps a record to a priority class (higher = more urgent).  The
            default uses the SWF queue number (clamped to 0 for unknown),
            the conventional encoding of priority classes in the archive.
        """
        if load_factor <= 0:
            raise ConfigurationError(
                f"load_factor must be positive, got {load_factor}"
            )
        if runtime_scale <= 0:
            raise ConfigurationError(
                f"runtime_scale must be positive, got {runtime_scale}"
            )
        if max_cores is not None and max_cores < 1:
            raise ConfigurationError(
                f"max_cores must be >= 1, got {max_cores}"
            )
        if priority_of is None:
            priority_of = lambda record: max(0, record.queue)  # noqa: E731

        usable = [
            record for record in self.records
            if record.run_time > 0 and record.cores > 0
        ]
        usable.sort(key=lambda record: (record.submit_time, record.job_id))
        if max_jobs is not None:
            usable = usable[:max_jobs]
        if not usable:
            return []

        trace_max = max(record.cores for record in usable)
        first_submit = min(record.submit_time for record in usable)
        specs: List[TraceJobSpec] = []
        for record in usable:
            # Jobs "submitted in the past" (submit before the trace start,
            # seen in stitched archive logs) clamp to an arrival of 0.
            arrival = max(0.0, record.submit_time - first_submit) / load_factor
            cores = record.cores
            if max_cores is not None and trace_max > max_cores:
                cores = max(1, round(cores * max_cores / trace_max))
            cores = min(cores, max_cores) if max_cores is not None else cores
            runtime = record.run_time * runtime_scale
            estimate = (
                record.requested_time * runtime_scale
                if record.requested_time > 0
                else runtime
            )
            specs.append(
                TraceJobSpec(
                    job_id=record.job_id,
                    arrival_time=arrival,
                    cores=cores,
                    runtime=runtime,
                    estimated_runtime=max(estimate, runtime),
                    priority=priority_of(record),
                    app=max(0, record.executable),
                    user=max(0, record.user_id),
                )
            )
        return specs


# -------------------------------------------------------------------- parsing
def parse_swf(text: str) -> SWFTrace:
    """Parse SWF text into an :class:`SWFTrace`.

    Header directives (``; Key: Value``) are collected in order; plain
    comments are ignored.  Data lines that do not hold 18 parseable numeric
    fields are tolerated: they are skipped and recorded in
    :attr:`SWFTrace.skipped` with the line number and reason.
    """
    trace = SWFTrace()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line.lstrip(";").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                if key:
                    trace.header.append((key, value.strip()))
                    trace.directives.setdefault(key, value.strip())
            continue
        tokens = line.split()
        try:
            trace.records.append(SWFRecord.from_tokens(tokens))
        except ValueError as error:
            trace.skipped.append((line_number, str(error)))
    return trace


def load_swf(path: Union[str, Path]) -> SWFTrace:
    """Read and parse an SWF trace file."""
    return parse_swf(Path(path).read_text())


# -------------------------------------------------------------------- writing
def dump_swf(trace: SWFTrace) -> str:
    """Render a trace back to SWF text (full header, then records).

    ``parse_swf(dump_swf(trace))`` yields the same header (repeated
    directives included) and records, which is the round-trip property
    the test suite checks.
    """
    lines = [f"; {key}: {value}" for key, value in trace.header]
    lines.extend(record.to_line() for record in trace.records)
    return "\n".join(lines) + "\n"


def save_swf(trace: SWFTrace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` in SWF format."""
    Path(path).write_text(dump_swf(trace))


# ----------------------------------------------------------------- archive
#: Well-known Parallel Workloads Archive traces, by short name.  The
#: archive serves cleaned logs as gzipped SWF; :func:`fetch_trace`
#: downloads, decompresses and caches them locally.
KNOWN_TRACES: Dict[str, str] = {
    "KTH-SP2": (
        "https://www.cs.huji.ac.il/labs/parallel/workload/"
        "l_kth_sp2/KTH-SP2-1996-2.1-cln.swf.gz"
    ),
    "SDSC-BLUE": (
        "https://www.cs.huji.ac.il/labs/parallel/workload/"
        "l_sdsc_blue/SDSC-BLUE-2000-4.2-cln.swf.gz"
    ),
    "CTC-SP2": (
        "https://www.cs.huji.ac.il/labs/parallel/workload/"
        "l_ctc_sp2/CTC-SP2-1996-3.1-cln.swf.gz"
    ),
}


def default_cache_dir() -> Path:
    """Trace cache directory: ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``
    (honouring ``$XDG_CACHE_HOME``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


#: Seconds before a stalled archive download errors out.
FETCH_TIMEOUT = 60.0
#: Download attempts per fetch (the archive mirror drops connections
#: under load; transient network errors should not fail a sweep).
FETCH_RETRIES = 3
#: Base of the exponential backoff between attempts, in seconds:
#: attempt ``k`` (0-based) sleeps ``FETCH_BACKOFF * 2**k`` after failing.
FETCH_BACKOFF = 1.0

#: Sleep hook used between retry attempts — module-level so tests can
#: patch it and exercise the backoff schedule without real waiting.
_sleep: Callable[[float], None] = time.sleep


def _download(url: str, timeout: float, retries: int,
              backoff: float) -> bytes:
    """Read ``url`` fully, retrying transient errors with backoff.

    Retries cover the network-shaped failures (``URLError`` — which
    subsumes HTTP errors and DNS/connection resets — plus bare
    ``OSError`` timeouts); anything else propagates immediately.  The
    final attempt's exception is re-raised with the attempt count in a
    :class:`~repro.errors.ConfigurationError` so sweep logs show the
    fetch was retried, not flaky.
    """
    if retries < 1:
        raise ConfigurationError(f"retries must be >= 1, got {retries}")
    last: Optional[BaseException] = None
    for attempt in range(retries):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.read()
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            if attempt + 1 < retries:
                _sleep(backoff * (2 ** attempt))
    raise ConfigurationError(
        f"failed to fetch {url!r} after {retries} attempts: {last}"
    ) from last


def fetch_trace(name_or_url: Union[str, Path], *,
                cache_dir: Union[None, str, Path] = None,
                refresh: bool = False,
                timeout: float = FETCH_TIMEOUT,
                retries: int = FETCH_RETRIES,
                backoff: float = FETCH_BACKOFF) -> Path:
    """Download-and-cache a workload trace; return the local ``.swf`` path.

    ``name_or_url`` is a :data:`KNOWN_TRACES` short name (``"KTH-SP2"``),
    any URL to an SWF file (``.gz`` is decompressed transparently), or a
    local filesystem path (returned as-is).  Downloads land in
    ``cache_dir`` (default :func:`default_cache_dir`) under the trace's
    file name; a cached copy short-circuits the network entirely, so
    replays against archive traces are a one-time download.  ``refresh``
    forces a re-download.

    The download is written to a uniquely named temporary sibling and
    atomically renamed into place, so an interrupted fetch never leaves a
    truncated trace in the cache and concurrent fetches (e.g. two sweep
    workers racing on a cold cache) cannot corrupt each other — the last
    rename wins with a complete file either way.

    Transient network failures are retried up to ``retries`` times with
    exponential backoff (``backoff * 2**attempt`` seconds between
    attempts); exhausting the attempts raises a
    :class:`~repro.errors.ConfigurationError` carrying the last error.
    """
    url = KNOWN_TRACES.get(str(name_or_url), str(name_or_url))
    if "://" not in url:
        path = Path(url)
        if not path.exists():
            raise ConfigurationError(
                f"trace {name_or_url!r} is neither a known archive trace "
                f"({sorted(KNOWN_TRACES)}), a URL, nor an existing file"
            )
        return path

    filename = Path(urlsplit(url).path).name
    gzipped = filename.endswith(".gz")
    if gzipped:
        filename = filename[: -len(".gz")]
    if not filename:
        raise ConfigurationError(f"cannot derive a file name from {url!r}")

    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    target = directory / filename
    if target.exists() and not refresh:
        return target

    directory.mkdir(parents=True, exist_ok=True)
    payload = _download(url, timeout, retries, backoff)
    if gzipped:
        payload = gzip.decompress(payload)
    fd, partial_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".part", dir=directory
    )
    partial = Path(partial_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        partial.replace(target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return target


def load_trace(name_or_url: Union[str, Path], *,
               cache_dir: Union[None, str, Path] = None,
               refresh: bool = False,
               timeout: float = FETCH_TIMEOUT,
               retries: int = FETCH_RETRIES,
               backoff: float = FETCH_BACKOFF) -> SWFTrace:
    """Fetch (cached) and parse a trace in one call."""
    return load_swf(fetch_trace(name_or_url, cache_dir=cache_dir,
                                refresh=refresh, timeout=timeout,
                                retries=retries, backoff=backoff))
