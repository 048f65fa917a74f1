"""Pluggable eviction policies over extent runs.

The extent-native page cache (:mod:`repro.pagecache.lru`) stores fragment
rows and owns all byte accounting; an :class:`EvictionPolicy` owns *victim
selection*: given the cache's LRU lists, in what order should clean data be
reclaimed?  The split keeps the representation invariants (sorted runs,
state heaps, lossless coalescing) in one place while policies stay small
state machines over *filenames*:

* :class:`LRUPolicy` — the default.  Victim selection delegates verbatim to
  :meth:`LRUList.clean_cursor`, so the simulated byte streams are
  bit-identical to the pre-policy cache (pinned by the parity goldens in
  ``tests/test_pagecache_parity.py``).  No hooks fire on the hot paths.
* :class:`ARCPolicy` — Adaptive Replacement Cache (Megiddo & Modha, FAST
  '03) at file granularity: recency (T1) and frequency (T2) lists plus B1/B2
  ghost histories steering an adaptive target.
* :class:`TwoQPolicy` — 2Q (Johnson & Shasha, VLDB '94): a FIFO probation
  queue (A1in), a ghost queue (A1out) and a main LRU (Am); only files
  re-referenced after falling out of probation are promoted.
* :class:`ClockProPolicy` — a simplified file-granular CLOCK-Pro (Jiang,
  Chen & Zhang, USENIX '05): hot/cold residents with reference bits and
  test periods, non-resident cold files remembered as ghosts.
* :class:`PriorityWeightedPolicy` — scores files by recency + frequency +
  owner-job priority (+ optionally waiting time); preempted jobs' files are
  demoted so low-priority work loses residency first.  This is the policy
  that ties the scheduler to the cache: the scheduler feeds it dispatch and
  preemption events through :meth:`MemoryManager.notify_job_dispatch` /
  :meth:`MemoryManager.notify_job_preempted`.

Policies are file-granular: the cache's total LRU order *within* a file is
always preserved (a file's oldest clean bytes go first), the policy decides
the order *across* files.  Hooks are only invoked when a policy opts in via
``wants_events`` so the default LRU path pays nothing beyond one method
call per eviction pass.

Every policy also exposes ``predicted_survival(filename, horizon)`` — the
probability-like fraction of the file's cached bytes expected to still be
resident ``horizon`` seconds from now under the current eviction pressure.
This is the curve ``CacheLocalityPlacement`` needs to price future
residency at reservation time instead of issuing synchronous per-dispatch
residency queries (ROADMAP item 3).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.pagecache.extents import ExtentRun
from repro.pagecache.lru import LRUList
from repro.pagecache.stats import EvictionPolicyStats


class ScoredCursor:
    """Consuming cursor over clean fragments in a policy's victim order.

    Satisfies the same contract as :class:`~repro.pagecache.extents.
    StateCursor`: ``next()`` returns the run whose front fragment is the
    next victim, and the caller must remove (or split-and-reinsert) that
    fragment before requesting the next one.  The cursor snapshots the
    *file* order at creation and re-fetches each file's live clean run on
    every step, so consuming a fragment (which may advance the run's head
    or kill the run) can never leave the cursor holding a stale
    reference.  Within a file, fragments come out in exact LRU order (the
    run row is sorted); across files, the policy's ranking applies.
    """

    __slots__ = ("_lru", "_order", "_index")

    def __init__(self, lru: LRUList, ordered_files: List[str]):
        self._lru = lru
        self._order = ordered_files
        self._index = 0

    def next(self) -> Optional[ExtentRun]:
        lru = self._lru
        file_runs = lru._file_runs
        order = self._order
        while self._index < len(order):
            index = file_runs.get(order[self._index])
            run = index.clean if index is not None else None
            if run is None or run._list is not lru or run.head >= len(run.row):
                self._index += 1
                continue
            return run
        return None

    def close(self) -> None:
        """Nothing to restore: the state heaps self-heal via pending re-push."""


class EvictionPolicy:
    """Base class of eviction policies.

    Subclasses implement :meth:`victim_order` (the cross-file ranking) and
    optionally the ``on_*`` hooks.  One policy instance serves exactly one
    :class:`~repro.pagecache.memory_manager.MemoryManager` — pass a name or
    a factory (not an instance) when configuring multi-host simulations.
    """

    #: Registry name (also reported in published metrics labels).
    name = "abstract"
    #: When False the manager skips every insert/access/evict hook call —
    #: the guard that keeps the default LRU path at zero policy overhead.
    wants_events = False
    #: When True the scheduler forwards job dispatch/preemption events.
    wants_job_events = False

    def __init__(self) -> None:
        self.stats = EvictionPolicyStats()
        self._manager = None

    # ------------------------------------------------------------ lifecycle
    def bind(self, manager) -> None:
        """Attach the policy to its memory manager (exactly one)."""
        if self._manager is not None and self._manager is not manager:
            raise ConfigurationError(
                f"eviction policy {self.name!r} is already bound to "
                f"{self._manager.name!r}; policy instances are per-manager "
                "— configure a policy name or factory for multi-host runs"
            )
        self._manager = manager

    # ------------------------------------------------------ victim selection
    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        """Filenames with clean data in ``lru``, most evictable first."""
        raise NotImplementedError

    def _evictable_files(self, lru: LRUList,
                         excluded: FrozenSet[str]) -> List[str]:
        """Files owning a live clean run in ``lru``, minus exclusions."""
        return [
            filename
            for filename, index in lru._file_runs.items()
            if index.clean is not None and filename not in excluded
        ]

    def clean_cursor(self, lru: LRUList, excluded: Iterable[str] = ()):
        """Consuming cursor over ``lru``'s clean fragments in victim order."""
        frozen = frozenset(excluded)
        return ScoredCursor(lru, self.victim_order(lru, frozen))

    # ------------------------------------------------------------ cache hooks
    # Only called when ``wants_events`` is True.  ``amount`` is in bytes,
    # ``now`` is the simulation clock.
    def on_insert(self, filename: str, amount: float, now: float) -> None:
        """New data of ``filename`` entered the cache (read miss or write)."""

    def on_access(self, filename: str, amount: float, now: float) -> None:
        """Cached data of ``filename`` was served (cache hit)."""

    def on_evicted(self, filename: str, amount: float,
                   resident_after: float) -> None:
        """``amount`` bytes of ``filename`` were evicted; ``resident_after``
        is what remains cached (0 means the file fully left the cache)."""

    def on_invalidate(self, filename: str) -> None:
        """Every cached byte of ``filename`` was dropped (file deletion)."""

    # -------------------------------------------------------------- job hooks
    # Only called when ``wants_job_events`` is True; forwarded by the
    # scheduler through the memory manager.
    def on_job_dispatch(self, filenames: Iterable[str], priority: int,
                        wait: float = 0.0) -> None:
        """A job owning ``filenames`` started on this policy's host."""

    def on_job_preempted(self, filenames: Iterable[str]) -> None:
        """A job owning ``filenames`` was preempted (lost its cores)."""

    # ------------------------------------------------------------ forecasting
    def predicted_survival(self, filename: str, horizon: float) -> float:
        """Fraction of the file's cached bytes expected to survive ``horizon``.

        A closed-form forecast under the observed mean eviction pressure:
        the manager's lifetime eviction rate (evicted bytes per simulated
        second) drains clean bytes in this policy's victim order, so the
        file loses bytes only once the clean data ranked *ahead* of it is
        gone.  Returns 1.0 when there is no eviction pressure, 0.0 when
        nothing of the file is cached.  Purely observational — never
        consumes simulated time.
        """
        manager = self._manager
        if manager is None:
            return 0.0
        cached = manager.lists.cached_of_file(filename)
        if cached <= 0.0:
            return 0.0
        if horizon <= 0.0:
            return 1.0
        now = manager.env.now
        rate = manager.stats.evicted_bytes / now if now > 0.0 else 0.0
        if rate <= 0.0:
            return 1.0
        at_risk = rate * horizon - self._clean_bytes_ranked_ahead(filename)
        if at_risk <= 0.0:
            return 1.0
        surviving = max(0.0, cached - at_risk)
        return min(1.0, surviving / cached)

    def _clean_bytes_ranked_ahead(self, filename: str) -> float:
        """Clean bytes this policy would evict before touching ``filename``."""
        manager = self._manager
        lists: List[LRUList] = [manager.lists.inactive]
        if manager.config.evict_from_active:
            lists.append(manager.lists.active)
        ahead = 0.0
        for lru in lists:
            for name in self.victim_order(lru, frozenset()):
                if name == filename:
                    break
                index = lru._file_runs.get(name)
                run = index.clean if index is not None else None
                if run is not None:
                    ahead += run.length()
            # No break: the file has no clean run in this list, so all of
            # the list's clean bytes drain before eviction reaches it.
        return ahead


class LRUPolicy(EvictionPolicy):
    """Global least-recently-used eviction — the bit-identical default.

    ``clean_cursor`` returns the cache's own
    :class:`~repro.pagecache.extents.StateCursor` untouched, so the victim
    stream (and therefore every simulated byte amount) is exactly what the
    pre-policy cache produced; the parity goldens pin this.  No hooks fire.
    """

    name = "lru"
    wants_events = False

    def clean_cursor(self, lru: LRUList, excluded: Iterable[str] = ()):
        return lru.clean_cursor(excluded)

    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        # Only used by predicted_survival: rank files by the LRU position
        # of their oldest clean fragment (the interleaving across files is
        # coarser than the true fragment-level order, which is fine for a
        # forecast).
        files = self._evictable_files(lru, excluded)

        def front_key(name: str) -> Tuple[float, float]:
            return lru._file_runs[name].clean.front_key()

        files.sort(key=front_key)
        return files


class ARCPolicy(EvictionPolicy):
    """Adaptive Replacement Cache at file granularity.

    Files seen once sit in the recency list T1; files re-referenced move to
    the frequency list T2.  Fully evicted files are remembered in the ghost
    histories B1/B2; a ghost hit on re-insertion adapts the target ``p``
    (how much of the cache recency deserves) and re-enters the file as
    frequent.  One-shot scans churn through T1 and its ghosts without ever
    displacing the re-referenced working set in T2 — the scan resistance
    LRU lacks.
    """

    name = "arc"
    wants_events = True

    def __init__(self, ghost_capacity: int = 256) -> None:
        super().__init__()
        if ghost_capacity < 1:
            raise ConfigurationError("ghost_capacity must be >= 1")
        self.ghost_capacity = ghost_capacity
        #: filename -> recency sequence (insertion-ordered dicts double as
        #: the LRU queues; larger sequence = more recently touched).
        self._t1: Dict[str, int] = {}
        self._t2: Dict[str, int] = {}
        self._b1: Dict[str, None] = {}
        self._b2: Dict[str, None] = {}
        #: Adaptive target size of T1, in files.
        self._p = 0.0
        self._seq = 0

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _trim_ghost(self, ghost: Dict[str, None]) -> None:
        while len(ghost) > self.ghost_capacity:
            ghost.pop(next(iter(ghost)))

    def _refresh_gauges(self) -> None:
        self.stats.tracked_files = len(self._t1) + len(self._t2)
        self.stats.ghost_files = len(self._b1) + len(self._b2)

    def on_insert(self, filename: str, amount: float, now: float) -> None:
        self.stats.inserts += 1
        if filename in self._t1 or filename in self._t2:
            # More bytes of an already-tracked file: keep its tier.
            return
        if filename in self._b1:
            # Recency ghost hit: recency was undersized — grow p.
            self._p = min(
                self._p + max(1.0, len(self._b2) / max(1, len(self._b1))),
                float(len(self._t1) + len(self._t2) + 1),
            )
            del self._b1[filename]
            self._t2[filename] = self._tick()
            self.stats.ghost_hits += 1
            self.stats.promotions += 1
        elif filename in self._b2:
            # Frequency ghost hit: frequency was undersized — shrink p.
            self._p = max(
                0.0,
                self._p - max(1.0, len(self._b1) / max(1, len(self._b2))),
            )
            del self._b2[filename]
            self._t2[filename] = self._tick()
            self.stats.ghost_hits += 1
            self.stats.promotions += 1
        else:
            self._t1[filename] = self._tick()
        self._refresh_gauges()

    def on_access(self, filename: str, amount: float, now: float) -> None:
        self.stats.accesses += 1
        if filename in self._t1:
            del self._t1[filename]
            self._t2[filename] = self._tick()
            self.stats.promotions += 1
            self._refresh_gauges()
        elif filename in self._t2:
            self._t2[filename] = self._tick()

    def on_evicted(self, filename: str, amount: float,
                   resident_after: float) -> None:
        if resident_after > 0.0:
            return
        self.stats.full_evictions += 1
        if filename in self._t1:
            del self._t1[filename]
            self._b1[filename] = None
            self._trim_ghost(self._b1)
        elif filename in self._t2:
            del self._t2[filename]
            self._b2[filename] = None
            self._trim_ghost(self._b2)
        self._refresh_gauges()

    def on_invalidate(self, filename: str) -> None:
        self.stats.invalidations += 1
        self._t1.pop(filename, None)
        self._t2.pop(filename, None)
        self._b1.pop(filename, None)
        self._b2.pop(filename, None)
        self._refresh_gauges()

    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        files = self._evictable_files(lru, excluded)
        # ARC's replace(): take from T1 while it exceeds the adaptive
        # target, else from T2; within a tier, least recent first.  Files
        # the hooks never saw (placed directly by tests) rank first.
        t1_first = len(self._t1) > self._p
        t1, t2 = self._t1, self._t2

        def tier_key(name: str) -> Tuple[int, int, str]:
            if name in t1:
                tier = 1 if t1_first else 2
                return (tier, t1[name], name)
            if name in t2:
                tier = 2 if t1_first else 1
                return (tier, t2[name], name)
            return (0, 0, name)

        files.sort(key=tier_key)
        return files


class TwoQPolicy(EvictionPolicy):
    """2Q: FIFO probation (A1in), ghost history (A1out), main LRU (Am).

    First-touch files enter A1in and are evicted FIFO; only a file
    re-inserted *after* falling out of A1in (a ghost hit in A1out) earns a
    place in the long-term Am queue.  Accesses while still in probation do
    not promote — 2Q's defence against correlated references.
    """

    name = "2q"
    wants_events = True

    def __init__(self, ghost_capacity: int = 256) -> None:
        super().__init__()
        if ghost_capacity < 1:
            raise ConfigurationError("ghost_capacity must be >= 1")
        self.ghost_capacity = ghost_capacity
        self._a1in: Dict[str, int] = {}
        self._a1out: Dict[str, None] = {}
        self._am: Dict[str, int] = {}
        self._seq = 0

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _refresh_gauges(self) -> None:
        self.stats.tracked_files = len(self._a1in) + len(self._am)
        self.stats.ghost_files = len(self._a1out)

    def on_insert(self, filename: str, amount: float, now: float) -> None:
        self.stats.inserts += 1
        if filename in self._am:
            self._am[filename] = self._tick()
            return
        if filename in self._a1in:
            # Still in probation: FIFO position is fixed at first insert.
            return
        if filename in self._a1out:
            del self._a1out[filename]
            self._am[filename] = self._tick()
            self.stats.ghost_hits += 1
            self.stats.promotions += 1
        else:
            self._a1in[filename] = self._tick()
        self._refresh_gauges()

    def on_access(self, filename: str, amount: float, now: float) -> None:
        self.stats.accesses += 1
        if filename in self._am:
            self._am[filename] = self._tick()
        # A hit while in A1in is deliberately ignored (correlated
        # references must not earn long-term residency).

    def on_evicted(self, filename: str, amount: float,
                   resident_after: float) -> None:
        if resident_after > 0.0:
            return
        self.stats.full_evictions += 1
        if filename in self._a1in:
            del self._a1in[filename]
            self._a1out[filename] = None
            while len(self._a1out) > self.ghost_capacity:
                self._a1out.pop(next(iter(self._a1out)))
        else:
            self._am.pop(filename, None)
        self._refresh_gauges()

    def on_invalidate(self, filename: str) -> None:
        self.stats.invalidations += 1
        self._a1in.pop(filename, None)
        self._a1out.pop(filename, None)
        self._am.pop(filename, None)
        self._refresh_gauges()

    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        files = self._evictable_files(lru, excluded)
        a1in, am = self._a1in, self._am

        def key(name: str) -> Tuple[int, int, str]:
            if name in a1in:
                return (1, a1in[name], name)  # probation drains first, FIFO
            if name in am:
                return (2, am[name], name)  # then the main queue, LRU
            return (0, 0, name)  # untracked files rank first

        files.sort(key=key)
        return files


class ClockProPolicy(EvictionPolicy):
    """Simplified file-granular CLOCK-Pro.

    Residents are *cold* (on probation, carrying a test period) or *hot*;
    every hit sets the file's reference bit.  The clock hand runs when
    eviction pressure arrives (at cursor creation): a referenced cold file
    in its test period is promoted to hot, a referenced cold file past its
    test gets a second chance (new test period, moved behind the hand), and
    referenced hot files just drop their bit.  A cold file evicted during
    its test period is remembered as a ghost; re-inserting a ghost brings
    it back hot — the reuse-distance test that lets CLOCK-Pro keep a
    working set a pure CLOCK would churn through.
    """

    name = "clock-pro"
    wants_events = True

    _HOT, _REF, _TEST, _SEQ = 0, 1, 2, 3

    def __init__(self, ghost_capacity: int = 256) -> None:
        super().__init__()
        if ghost_capacity < 1:
            raise ConfigurationError("ghost_capacity must be >= 1")
        self.ghost_capacity = ghost_capacity
        #: filename -> [hot, referenced, in_test, clock_seq]
        self._resident: Dict[str, list] = {}
        self._ghost: Dict[str, None] = {}
        self._seq = 0

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _refresh_gauges(self) -> None:
        self.stats.tracked_files = len(self._resident)
        self.stats.ghost_files = len(self._ghost)

    def on_insert(self, filename: str, amount: float, now: float) -> None:
        self.stats.inserts += 1
        if filename in self._resident:
            # More chunks of a file still streaming in: NOT a re-reference
            # (re-reads of cached bytes arrive as accesses, which set the
            # bit); otherwise every multi-chunk scan looks hot on arrival.
            return
        if filename in self._ghost:
            # Reuse distance short enough to beat the test period: hot.
            del self._ghost[filename]
            self._resident[filename] = [True, False, False, self._tick()]
            self.stats.ghost_hits += 1
            self.stats.promotions += 1
        else:
            self._resident[filename] = [False, False, True, self._tick()]
        self._refresh_gauges()

    def on_access(self, filename: str, amount: float, now: float) -> None:
        self.stats.accesses += 1
        entry = self._resident.get(filename)
        if entry is not None:
            entry[self._REF] = True

    def on_evicted(self, filename: str, amount: float,
                   resident_after: float) -> None:
        if resident_after > 0.0:
            return
        self.stats.full_evictions += 1
        entry = self._resident.pop(filename, None)
        if entry is None:
            return
        if not entry[self._HOT] and entry[self._TEST]:
            self._ghost[filename] = None
            while len(self._ghost) > self.ghost_capacity:
                self._ghost.pop(next(iter(self._ghost)))
        elif entry[self._HOT]:
            self.stats.demotions += 1
        self._refresh_gauges()

    def on_invalidate(self, filename: str) -> None:
        self.stats.invalidations += 1
        self._resident.pop(filename, None)
        self._ghost.pop(filename, None)
        self._refresh_gauges()

    def _rotate_hand(self) -> None:
        """Advance the cold hand over every referenced cold resident."""
        hot, ref, test, seq = self._HOT, self._REF, self._TEST, self._SEQ
        cold = sorted(
            (entry[seq], name)
            for name, entry in self._resident.items()
            if not entry[hot]
        )
        for _, name in cold:
            entry = self._resident[name]
            if not entry[ref]:
                continue
            entry[ref] = False
            if entry[test]:
                entry[hot] = True
                entry[test] = False
                self.stats.promotions += 1
            else:
                # Second chance: new test period, moved behind the hand.
                entry[test] = True
                entry[seq] = self._tick()

    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        self._rotate_hand()
        files = self._evictable_files(lru, excluded)
        resident = self._resident
        hot, ref, seq = self._HOT, self._REF, self._SEQ

        def key(name: str) -> Tuple[int, int, int, str]:
            entry = resident.get(name)
            if entry is None:
                return (0, 0, 0, name)  # untracked files rank first
            tier = 2 if entry[hot] else 1  # cold residents drain first
            return (tier, 1 if entry[ref] else 0, entry[seq], name)

        files.sort(key=key)
        return files


class PriorityWeightedPolicy(EvictionPolicy):
    """Recency + frequency + owner-job-priority weighted eviction.

    Each file carries a score; the lowest scores are evicted first:

    ``score = w_r * 1/(1 + age) + w_f * log1p(hits) + w_p * priority
    + w_w * log1p(wait) - penalty_if_owner_preempted``

    Owner priority and waiting time arrive from the scheduler through the
    job hooks (:meth:`on_job_dispatch` / :meth:`on_job_preempted`); the
    wait term defaults to weight 0 and the scheduler clamps waits at zero
    (``repro.scheduler.metrics.clamped_wait``), so negative queueing
    artifacts can never leak into the score.  Preempting a job demotes its
    input files by a flat penalty — preempted low-priority work loses cache
    residency first, re-dispatching it lifts the penalty again.
    """

    name = "priority"
    wants_events = True
    wants_job_events = True

    def __init__(self, recency_weight: float = 1.0,
                 frequency_weight: float = 2.0,
                 priority_weight: float = 4.0,
                 wait_weight: float = 0.0,
                 preemption_penalty: float = 8.0) -> None:
        super().__init__()
        self.recency_weight = recency_weight
        self.frequency_weight = frequency_weight
        self.priority_weight = priority_weight
        self.wait_weight = wait_weight
        self.preemption_penalty = preemption_penalty
        #: filename -> (last_touch_time, hit_count)
        self._touches: Dict[str, Tuple[float, int]] = {}
        self._owner_priority: Dict[str, float] = {}
        self._owner_wait: Dict[str, float] = {}
        self._preempted: Dict[str, None] = {}

    def _touch(self, filename: str, now: float) -> None:
        entry = self._touches.get(filename)
        count = entry[1] + 1 if entry is not None else 1
        self._touches[filename] = (now, count)
        self.stats.tracked_files = len(self._touches)

    def on_insert(self, filename: str, amount: float, now: float) -> None:
        self.stats.inserts += 1
        entry = self._touches.get(filename)
        if entry is not None:
            # More chunks of a file streaming in: refresh recency only —
            # counting every chunk as a hit would make big one-shot files
            # look frequent.
            self._touches[filename] = (now, entry[1])
            return
        self._touch(filename, now)

    def on_access(self, filename: str, amount: float, now: float) -> None:
        self.stats.accesses += 1
        self._touch(filename, now)

    def on_evicted(self, filename: str, amount: float,
                   resident_after: float) -> None:
        if resident_after > 0.0:
            return
        self.stats.full_evictions += 1
        self._touches.pop(filename, None)
        self.stats.tracked_files = len(self._touches)

    def on_invalidate(self, filename: str) -> None:
        self.stats.invalidations += 1
        self._touches.pop(filename, None)
        self._owner_priority.pop(filename, None)
        self._owner_wait.pop(filename, None)
        self._preempted.pop(filename, None)
        self.stats.tracked_files = len(self._touches)

    def on_job_dispatch(self, filenames: Iterable[str], priority: int,
                        wait: float = 0.0) -> None:
        self.stats.job_dispatches += 1
        wait = max(0.0, wait)
        for filename in filenames:
            current = self._owner_priority.get(filename)
            if current is None or priority > current:
                self._owner_priority[filename] = float(priority)
            previous_wait = self._owner_wait.get(filename, 0.0)
            if wait > previous_wait:
                self._owner_wait[filename] = wait
            if filename in self._preempted:
                del self._preempted[filename]
                self.stats.promotions += 1

    def on_job_preempted(self, filenames: Iterable[str]) -> None:
        self.stats.job_preemptions += 1
        for filename in filenames:
            if filename not in self._preempted:
                self._preempted[filename] = None
                self.stats.demotions += 1

    def score(self, filename: str, now: float) -> float:
        """The file's retention score (higher = keep longer)."""
        value = 0.0
        entry = self._touches.get(filename)
        if entry is not None:
            last, count = entry
            value += self.recency_weight / (1.0 + max(0.0, now - last))
            value += self.frequency_weight * math.log1p(count)
        priority = self._owner_priority.get(filename)
        if priority is not None:
            value += self.priority_weight * priority
        if self.wait_weight:
            value += self.wait_weight * math.log1p(
                max(0.0, self._owner_wait.get(filename, 0.0))
            )
        if filename in self._preempted:
            value -= self.preemption_penalty
        return value

    def victim_order(self, lru: LRUList,
                     excluded: FrozenSet[str]) -> List[str]:
        files = self._evictable_files(lru, excluded)
        manager = self._manager
        now = manager.env.now if manager is not None else 0.0
        files.sort(key=lambda name: (self.score(name, now), name))
        return files


#: Registered policy names (the values accepted by
#: ``PageCacheConfig(eviction_policy="...")``).  Aliases share a class.
POLICIES: Dict[str, type] = {
    "lru": LRUPolicy,
    "arc": ARCPolicy,
    "2q": TwoQPolicy,
    "twoq": TwoQPolicy,
    "clock-pro": ClockProPolicy,
    "clockpro": ClockProPolicy,
    "priority": PriorityWeightedPolicy,
    "priority-weighted": PriorityWeightedPolicy,
}


def _policy_factory(spec) -> Callable[[], object]:
    """Resolve an eviction-policy spec to a zero-argument constructor.

    Raises :class:`ConfigurationError` for an unknown name or a spec that
    is neither a name, an :class:`EvictionPolicy` instance nor callable.
    :meth:`PageCacheConfig.validate` calls it so a bad spec fails at
    configuration time, not at the first eviction.
    """
    if spec is None:
        return LRUPolicy
    if isinstance(spec, EvictionPolicy):
        return lambda: spec
    if isinstance(spec, str):
        cls = POLICIES.get(spec)
        if cls is None:
            raise ConfigurationError(
                f"unknown eviction policy {spec!r}; "
                f"registered: {', '.join(sorted(POLICIES))}"
            )
        return cls
    if callable(spec):
        return spec
    raise ConfigurationError(
        f"eviction_policy must be a name, EvictionPolicy, subclass or "
        f"factory, got {spec!r}"
    )


def make_eviction_policy(spec=None) -> EvictionPolicy:
    """Build an :class:`EvictionPolicy` from a configuration value.

    Accepts a registered name (``"lru"``, ``"arc"``, ``"2q"``,
    ``"clock-pro"``, ``"priority"`` or an alias), an
    :class:`EvictionPolicy` instance (single-manager simulations only), an
    :class:`EvictionPolicy` subclass, or a zero-argument factory returning
    an instance.  ``None`` selects the default LRU policy.
    """
    policy = _policy_factory(spec)()
    if not isinstance(policy, EvictionPolicy):
        raise ConfigurationError(
            f"eviction-policy factory returned {policy!r}, "
            "not an EvictionPolicy"
        )
    return policy
