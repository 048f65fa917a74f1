"""Per-layer tracing for the benchmark: probes, profiles and the layer map.

The traced run observes the simulator from the outside.  It never edits
``src/``: for the length of one traced repetition it

* wraps public entry points of each layer with call counters and host-time
  accumulators (``MemoryManager.evict``, ``SchedulingPolicy.select``,
  ``SubmissionLog.append``, ``capture_state`` ...), and puts every original
  back afterwards;
* turns the program's own telemetry on (``REPRO_OBS=1``) so the DES loop
  counts events and tombstones;
* runs cProfile in the main thread around the timed part, and in every
  thread started while the trace is installed (the service worker), and
  folds self time into layers by module.

For a workload with threads the profiles measure each thread's CPU time,
so a thread blocked on a lock, a sleep or an fsync adds to no layer; a
single-threaded workload never blocks, and is profiled with cProfile's
own clock, which costs far less.  Folding rule: a function under
``src/repro`` belongs to the layer of its module (:data:`LAYERS`);
``heapq`` belongs to ``des``; any other function (builtins, the standard
library) is charged to the layer of the caller that spent the time in
it.  Layers not named in the map fall into ``other``, so the shares sum
to 100%.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer; the first match wins.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.des", "des"),
    ("repro.platform.flows", "flows"),
    ("repro.pagecache", "pagecache"),
    ("repro.simulator", "storage"),
    ("repro.filesystem", "storage"),
    ("repro.scheduler", "scheduler"),
    ("repro.service", "service"),
    ("repro.snapshot", "snapshot"),
)
#: Layers with a self share, in report order (``other`` takes the rest).
SHARE_LAYERS = ("des", "flows", "pagecache", "storage", "scheduler",
                "service", "snapshot", "other")


class Probe:
    """Calls and host seconds spent in one wrapped entry point."""

    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Clock:
    """Accumulates the timed part of a repetition, segment by segment.

    ``with clock:`` times one segment; ``clock.last`` is that segment's
    duration and ``clock.seconds`` the running total.  When a profile is
    attached it is enabled exactly while a segment runs.
    """

    def __init__(self, profile: Optional[cProfile.Profile] = None):
        self.profile = profile
        self.seconds = 0.0
        self.last = 0.0
        self._start = 0.0

    def __enter__(self) -> "Clock":
        if self.profile is not None:
            self.profile.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.last = time.perf_counter() - self._start
        if self.profile is not None:
            self.profile.disable()
        self.seconds += self.last


def module_of(filename: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source file, or ``None``."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    return ".".join(parts[index:])


def own_layer(func: Tuple[str, int, str]) -> Optional[str]:
    """The layer a profiled function belongs to by itself, if any."""
    filename, _line, name = func
    module = module_of(filename)
    if module is not None:
        for prefix, layer in LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"
    if "_heapq." in name or Path(filename).name == "heapq.py":
        return "des"
    return None


def fold_self_time(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer (see the module doc)."""
    entries = stats.stats
    memo: Dict[Tuple[str, int, str], str] = {}

    def layer_of(func) -> str:
        # A caller without a layer of its own inherits its biggest caller's.
        if func in memo:
            return memo[func]
        layer = own_layer(func)
        if layer is None:
            memo[func] = "other"  # cycle guard while resolving
            callers = entries.get(func, (0, 0, 0.0, 0.0, {}))[4]
            if callers:
                biggest = max(callers.items(), key=lambda item: item[1][3])[0]
                layer = layer_of(biggest)
            else:
                layer = "other"
        memo[func] = layer
        return layer

    seconds: Counter = Counter()
    for func, (_cc, _nc, tottime, _ct, callers) in entries.items():
        layer = own_layer(func)
        if layer is not None or not callers:
            seconds[layer or "other"] += tottime
            continue
        for caller, (_n, _c, caller_tottime, _ct2) in callers.items():
            seconds[layer_of(caller)] += caller_tottime
    return dict(seconds)


class LayerTrace:
    """Install the probes and profilers for one traced repetition.

    Use as a context manager around the repetition (set-up included, so
    the telemetry switch reaches the simulations it builds) and pass
    :attr:`profile` to the repetition's :class:`Clock`.  ``cpu_time``
    profiles per-thread CPU time instead of wall time.
    """

    def __init__(self, cpu_time: bool = False):
        self._profile_args = (time.thread_time,) if cpu_time else ()
        self.profile = cProfile.Profile(*self._profile_args)
        self.thread_profiles: List[cProfile.Profile] = []
        self.probes: Dict[str, Probe] = {}
        self._depths: Dict[str, List[int]] = {}
        self.runs: List[Tuple[object, object]] = []
        self.channels: Dict[int, object] = {}
        self.managers: Dict[int, object] = {}
        self.services: List[object] = []
        self.max_active = 0
        self.snapshot_bytes = 0
        self._recovering = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._saved_obs: Optional[str] = None

    # ----------------------------------------------------------- patching
    def _patch(self, owner, attr: str, wrap: Callable) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, wrap(original))
        self._patches.append((owner, attr, original))

    def _patch_function(self, func, wrap: Callable) -> None:
        """Replace ``func`` in every loaded ``repro`` module that binds it."""
        wrapper = wrap(func)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func))

    def _timed(self, name: str, when: Callable[[], bool] = lambda: True,
               after: Optional[Callable] = None,
               group: Optional[str] = None) -> Callable:
        """Wrapper factory: count outermost calls and their host time.

        Probes of one ``group`` share a nesting depth, so a call made
        inside another probe of the group (the digests ``capture_state``
        takes with ``fingerprint``) counts toward the outer probe only.
        """
        probe = self.probes.setdefault(name, Probe())
        depth = self._depths.setdefault(group or name, [0])

        def wrap(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if depth[0] or not when():
                    return func(*args, **kwargs)
                depth[0] += 1
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    probe.seconds += time.perf_counter() - start
                    probe.calls += 1
                    depth[0] -= 1
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return wrap

    def _install(self) -> None:
        from repro.pagecache.memory_manager import MemoryManager
        from repro.platform.flows import FairShareChannel
        from repro.scheduler.placement import PlacementStrategy
        from repro.scheduler.policies import SchedulingPolicy
        from repro.service import core
        from repro.service.log import SubmissionLog
        from repro.simulator.simulation import Simulation
        from repro.snapshot import capture_state, fingerprint, write_snapshot_doc

        self._patch(MemoryManager, "evict", self._timed("pagecache.evict"))
        self._patch(MemoryManager, "select_flush",
                    self._timed("pagecache.flush"))
        self._patch(MemoryManager, "stop", self._timed(
            "pagecache.stop",
            after=lambda args, _r: self.managers.setdefault(id(args[0]),
                                                            args[0])))
        self._patch(FairShareChannel, "transfer", self._wrap_transfer)
        for name, base, attr in (("scheduler.select", SchedulingPolicy, "select"),
                                 ("scheduler.placement", PlacementStrategy,
                                  "select_node")):
            wrap = self._timed(name)
            for cls in _with_subclasses(base):
                if attr in cls.__dict__:
                    self._patch(cls, attr, wrap)
        self._patch(Simulation, "run", self._timed(
            "simulation.run",
            after=lambda args, result: self.runs.append((args[0], result))))
        self._patch(SubmissionLog, "append", self._timed("service.log_append"))
        self._patch(core.SimulationService, "start", self._wrap_start)
        snap = "snapshot"
        self._patch_function(capture_state,
                             self._timed("snapshot.capture", group=snap))
        self._patch_function(fingerprint,
                             self._timed("snapshot.fingerprint", group=snap))
        self._patch_function(write_snapshot_doc, self._timed(
            "snapshot.write", group=snap,
            after=lambda _args, path: self._add_bytes(path)))
        self._patch_function(core.replay_entries,
                             self._timed("snapshot.replay", group=snap))
        self._patch_function(core.apply_entry, self._timed(
            "snapshot.replay", group=snap,
            when=lambda: self._recovering > 0))

    def _wrap_transfer(self, func):
        @functools.wraps(func)
        def transfer(channel, *args, **kwargs):
            event = func(channel, *args, **kwargs)
            self.channels[id(channel)] = channel
            if channel.active_flows > self.max_active:
                self.max_active = channel.active_flows
            return event
        return transfer

    def _wrap_start(self, func):
        @functools.wraps(func)
        def start(service, *args, **kwargs):
            self.services.append(service)
            self._recovering += 1
            try:
                return func(service, *args, **kwargs)
            finally:
                self._recovering -= 1
        return start

    def _add_bytes(self, path) -> None:
        self.snapshot_bytes += os.path.getsize(path)

    def _start_thread_profile(self, _frame, _event, _arg) -> None:
        profile = cProfile.Profile(*self._profile_args)
        self.thread_profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "LayerTrace":
        from repro.obs import OBS_ENV_VAR

        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        self._saved_obs = os.environ.get(OBS_ENV_VAR)
        os.environ[OBS_ENV_VAR] = "1"
        threading.setprofile(self._start_thread_profile)
        return self

    def __exit__(self, *_exc) -> None:
        from repro.obs import OBS_ENV_VAR

        threading.setprofile(None)
        if self._saved_obs is None:
            os.environ.pop(OBS_ENV_VAR, None)
        else:
            os.environ[OBS_ENV_VAR] = self._saved_obs
        self._uninstall()

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> List[str]:
        """Patched names that are not their original object again."""
        bad = []
        for owner, attr, original in self._patches:
            current = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    # ------------------------------------------------------------ results
    def self_shares(self) -> Dict[str, float]:
        """Percent of self time per layer (sums to 100)."""
        stats = pstats.Stats(self.profile)
        for profile in self.thread_profiles:
            stats.add(profile)
        seconds = fold_self_time(stats)
        total = sum(seconds.values())
        return {layer: 100.0 * seconds.get(layer, 0.0) / total
                for layer in SHARE_LAYERS}

    def layer_metrics(self, untraced_wall: float,
                      traced_wall: float) -> Dict[str, float]:
        """The per-layer metrics of this traced repetition."""
        metrics = {f"{layer}.self_share": share
                   for layer, share in self.self_shares().items()}
        events = tombstones = 0
        preemptions = 0
        for sim, result in self.runs:
            observer = sim.env.observer
            if observer is not None:
                events += sum(observer.des_event_counts.values())
                tombstones += observer.des_tombstones
            if result.scheduler is not None:
                preemptions += result.scheduler.n_preemptions
        stats = [manager.stats for manager in self.managers.values()]
        hits = sum(s.cache_hit_bytes for s in stats)
        reads = sum(s.total_read_bytes for s in stats)
        runs = sum(m.lists.run_count for m in self.managers.values())
        fragments = sum(m.lists.fragment_count for m in self.managers.values())
        probes = self.probes
        metrics.update({
            "des.events": events,
            "des.events_per_s": events / untraced_wall,
            "des.tombstone_ratio": (tombstones / (events + tombstones)
                                    if events + tombstones else 0.0),
            "flows.transfers": sum(c.total_flows
                                   for c in self.channels.values()),
            "flows.max_active": self.max_active,
            "pagecache.read_ops": sum(s.read_ops for s in stats),
            "pagecache.hit_ratio": hits / reads if reads else 0.0,
            "pagecache.evict_ops": sum(s.evict_ops for s in stats),
            "pagecache.flush_ops": sum(s.flush_ops for s in stats),
            "pagecache.evict_s": probes["pagecache.evict"].seconds,
            "pagecache.flush_s": probes["pagecache.flush"].seconds,
            "pagecache.frags_per_run": fragments / runs if runs else 0.0,
            "scheduler.select_calls": probes["scheduler.select"].calls,
            "scheduler.select_s": probes["scheduler.select"].seconds,
            "scheduler.placement_calls": probes["scheduler.placement"].calls,
            "scheduler.placement_s": probes["scheduler.placement"].seconds,
            "scheduler.preemptions": preemptions,
            "service.log_appends": probes["service.log_append"].calls,
            "service.log_append_s": probes["service.log_append"].seconds,
            "service.queue_rejected": sum(s.queue.n_rejected
                                          for s in self.services),
            "snapshot.count": probes["snapshot.write"].calls,
            "snapshot.capture_s": probes["snapshot.capture"].seconds,
            "snapshot.fingerprint_s": probes["snapshot.fingerprint"].seconds,
            "snapshot.write_s": probes["snapshot.write"].seconds,
            "snapshot.bytes": self.snapshot_bytes,
            "snapshot.replay_s": probes["snapshot.replay"].seconds,
            "trace.overhead_pct": (100.0 * (traced_wall - untraced_wall)
                                   / untraced_wall),
        })
        return metrics


def _with_subclasses(cls) -> List[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found
