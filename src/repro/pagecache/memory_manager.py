"""The Memory Manager (Section III.A of the paper).

The Memory Manager owns the page cache LRU lists and the memory accounting
of one host.  It implements:

* cache accounting: free, cached, dirty and anonymous memory;
* :meth:`MemoryManager.flush` — synchronous flushing of least recently used
  dirty blocks until a requested amount is persisted (foreground writeback);
* :meth:`MemoryManager.evict` — removal of least recently used clean blocks
  from the inactive list (and, optionally, the active list);
* :meth:`MemoryManager.take_from_cache` / :meth:`MemoryManager.add_to_cache`
  / :meth:`MemoryManager.put_to_cache` — the cache-side halves of
  Algorithms 2 and 3 (accounting only: the I/O controller charges the
  memory transfers);
* the periodical-flush background process of Algorithm 1: each pass
  marks the expired dirty fragments (one
  :class:`~repro.pagecache.extents.Mark` each: run, stamp and last
  access) and writes them in turn, following the marks through the
  promotions, demotions and cleanings that happen while it writes.

Methods that consume simulated time (flushes) are generator-based
processes and must be ``yield``-ed from a simulation process;
accounting-only methods (eviction, cache insertion and consumption,
anonymous memory) return immediately, matching the paper's statement that
eviction overhead is not part of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.des.environment import Environment
from repro.errors import CacheConsistencyError, ConfigurationError, FlowAborted
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.lru import LRUList, PageCacheLists
from repro.pagecache.policy import make_eviction_policy
from repro.pagecache.stats import CacheStatistics
from repro.pagecache.tolerances import BYTE_EPSILON as _EPSILON
from repro.platform.memory import MemoryDevice
from repro.units import format_size


@dataclass
class MemorySnapshot:
    """Point-in-time view of a host's memory, as plotted in Figure 4b."""

    time: float
    total: float
    free: float
    used: float
    cached: float
    dirty: float
    anonymous: float
    dirty_threshold: float

    def as_dict(self) -> Dict[str, float]:
        """Return the snapshot as a plain dictionary."""
        return {
            "time": self.time,
            "total": self.total,
            "free": self.free,
            "used": self.used,
            "cached": self.cached,
            "dirty": self.dirty,
            "anonymous": self.anonymous,
            "dirty_threshold": self.dirty_threshold,
        }


class MemoryManager:
    """Simulates the memory and page cache of one host.

    Parameters
    ----------
    env:
        Simulation environment.
    memory:
        The host's memory device (size and bandwidths).
    config:
        Page cache configuration (kernel tunables).
    name:
        Name used for the background process and in error messages.
    """

    def __init__(self, env: Environment, memory: MemoryDevice,
                 config: Optional[PageCacheConfig] = None, name: str = "mm"):
        if memory is None:
            raise ConfigurationError("MemoryManager requires a memory device")
        self.env = env
        self.memory = memory
        self.config = config or PageCacheConfig()
        self.name = name
        self.total_memory = float(memory.size)
        self._free = float(memory.size)
        self._anonymous = 0.0
        self._anonymous_by_owner: Dict[str, float] = {}
        # With a "total" threshold base the dirty capacity is a constant;
        # precompute it so the per-chunk I/O paths skip the property
        # arithmetic (the product is the same float either way).
        if self.config.dirty_threshold_base == "total":
            self._dirty_capacity_const: Optional[float] = (
                self.config.dirty_ratio * self.total_memory
            )
        else:
            self._dirty_capacity_const = None
        self.lists = PageCacheLists()
        self.stats = CacheStatistics()
        #: Victim-selection policy.  The default LRU policy delegates to
        #: the lists' own cursor and requests no event hooks, so the hot
        #: paths below stay exactly as fast (and byte-identical) as before
        #: the policy API existed.
        self.policy = make_eviction_policy(self.config.eviction_policy)
        self.policy.bind(self)
        self._policy_events = self.policy.wants_events
        # Transfer labels are fixed per manager; precomputing them keeps
        # f-string formatting out of the per-chunk I/O paths.
        self._label_cache_read = f"{name}-cache-read"
        self._label_cache_write = f"{name}-cache-write"
        self._label_flush = f"{name}-flush"
        self._label_bg_flush = f"{name}-bg-flush"
        #: Files currently being written (used by ``protect_written_files``).
        self._files_being_written: Set[str] = set()
        self._running = True
        self._flusher = None
        if self.config.periodic_flushing:
            self._flusher = env.process(
                self._periodic_flush(), name=f"{name}-periodic-flush"
            )

    # ------------------------------------------------------------------ state
    @property
    def free_mem(self) -> float:
        """Unused memory in bytes.

        Under heavy concurrency the accounting may transiently go a few
        bytes negative when several processes reserve memory between yield
        points; the value self-corrects at the next flush/eviction.
        """
        return self._free

    @property
    def cached(self) -> float:
        """Bytes held by the page cache (both LRU lists)."""
        return self.lists.size

    @property
    def dirty(self) -> float:
        """Bytes of dirty (not yet persisted) data in the page cache."""
        return self.lists.dirty_size

    @property
    def anonymous(self) -> float:
        """Bytes of anonymous (application) memory in use."""
        return self._anonymous

    @property
    def used_memory(self) -> float:
        """Memory in use (anonymous + cache), as reported by ``atop``."""
        return self._anonymous + self.lists.size

    @property
    def evictable(self) -> float:
        """Clean cache bytes that eviction is allowed to reclaim."""
        amount = self.lists.inactive.clean_size
        if self.config.evict_from_active:
            amount += self.lists.active.clean_size
        return amount

    @property
    def available_mem(self) -> float:
        """Free memory plus reclaimable (clean) cache."""
        return self._free + self.lists.clean_size

    @property
    def dirty_capacity(self) -> float:
        """Maximum amount of dirty data allowed (the dirty ratio threshold)."""
        if self._dirty_capacity_const is not None:
            return self._dirty_capacity_const
        return self.config.dirty_ratio * self.available_mem

    def cached_amount(self, filename: str) -> float:
        """Bytes of ``filename`` currently in the page cache."""
        return self.lists.cached_of_file(filename)

    def cached_bytes(self, filenames: Iterable[str]) -> float:
        """Bytes of ``filenames`` currently in the page cache, summed: the
        float of ``sum(self.cached_amount(name) for name in filenames)``
        (placement calls it once per candidate node)."""
        return self.lists.cached_bytes(filenames)

    def cache_content(self) -> Dict[str, float]:
        """Per-file cache content (Figure 4c)."""
        return self.lists.files()

    def snapshot(self) -> MemorySnapshot:
        """Return a :class:`MemorySnapshot` of the current state."""
        return MemorySnapshot(
            time=self.env.now,
            total=self.total_memory,
            free=self._free,
            used=self.used_memory,
            cached=self.lists.size,
            dirty=self.lists.dirty_size,
            anonymous=self._anonymous,
            dirty_threshold=self.dirty_capacity,
        )

    def assert_consistent(self) -> None:
        """Check that free + cached + anonymous matches total memory."""
        self.lists.assert_consistent()
        balance = self._free + self.lists.size + self._anonymous
        if abs(balance - self.total_memory) > 1e-3:
            raise CacheConsistencyError(
                f"memory accounting drift on {self.name!r}: free({self._free}) + "
                f"cached({self.lists.size}) + anonymous({self._anonymous}) != "
                f"total({self.total_memory})"
            )

    # ------------------------------------------------------ anonymous memory
    def use_anonymous_memory(self, amount: float, owner: Optional[str] = None) -> None:
        """Allocate ``amount`` bytes of anonymous (application) memory."""
        if amount < 0:
            raise ValueError("cannot allocate a negative amount of memory")
        if amount == 0:
            return
        self._anonymous += amount
        self._free -= amount
        if owner is not None:
            self._anonymous_by_owner[owner] = (
                self._anonymous_by_owner.get(owner, 0.0) + amount
            )

    def release_anonymous_memory(self, amount: Optional[float] = None,
                                 owner: Optional[str] = None) -> float:
        """Release anonymous memory.

        If ``owner`` is given and ``amount`` is ``None``, all memory held by
        that owner is released (the synthetic application releases its
        anonymous memory after each task).  Returns the amount released.
        """
        if amount is None:
            if owner is None:
                amount = self._anonymous
            else:
                amount = self._anonymous_by_owner.get(owner, 0.0)
        amount = min(amount, self._anonymous)
        if amount <= 0:
            return 0.0
        self._anonymous -= amount
        self._free += amount
        if owner is not None:
            remaining = self._anonymous_by_owner.get(owner, 0.0) - amount
            if remaining <= _EPSILON:
                self._anonymous_by_owner.pop(owner, None)
            else:
                self._anonymous_by_owner[owner] = remaining
        return amount

    # ------------------------------------------------------- policy plumbing
    @property
    def wants_job_events(self) -> bool:
        """Whether the eviction policy consumes scheduler job events."""
        return self.policy.wants_job_events

    def notify_job_dispatch(self, filenames, priority: int,
                            wait: float = 0.0) -> None:
        """Forward a job dispatch (its input files, priority, queueing wait)
        to the eviction policy, when the policy asked for job events."""
        if self.policy.wants_job_events:
            self.policy.on_job_dispatch(filenames, priority, wait)

    def notify_job_preempted(self, filenames) -> None:
        """Forward a job preemption to the eviction policy."""
        if self.policy.wants_job_events:
            self.policy.on_job_preempted(filenames)

    def predicted_survival(self, filename: str, horizon: float) -> float:
        """Fraction of the file's cached bytes expected to survive ``horizon``
        seconds of the observed eviction pressure (policy forecast)."""
        return self.policy.predicted_survival(filename, horizon)

    # -------------------------------------------------- written-file tracking
    def mark_file_being_written(self, filename: str) -> None:
        """Register ``filename`` as currently being written (kernel heuristic)."""
        self._files_being_written.add(filename)

    def unmark_file_being_written(self, filename: str) -> None:
        """Remove ``filename`` from the being-written set."""
        self._files_being_written.discard(filename)

    def _eviction_exclusions(self, exclude_file: Optional[str]) -> Set[str]:
        excluded: Set[str] = set()
        if exclude_file is not None:
            excluded.add(exclude_file)
        if self.config.protect_written_files:
            excluded |= self._files_being_written
        return excluded

    # ---------------------------------------------------------------- evict
    def evict(self, amount: float, exclude_file: Optional[str] = None) -> float:
        """Evict up to ``amount`` bytes of clean data from the cache.

        Traverses the inactive list in LRU order, deleting clean blocks (and
        splitting the last one if needed).  When ``evict_from_active`` is
        enabled and the inactive list runs out of clean blocks, the active
        list is scanned as well.  Returns the number of bytes evicted; this
        may be less than requested when no clean data remains.

        Eviction consumes no simulated time (negligible in real systems).
        """
        if amount is None or amount <= 0:
            return 0.0
        excluded = self._eviction_exclusions(exclude_file)
        evicted = 0.0
        lists: List[LRUList] = [self.lists.inactive]
        if self.config.evict_from_active:
            lists.append(self.lists.active)
        policy = self.policy
        notify = self._policy_events
        for lru in lists:
            if evicted >= amount - _EPSILON:
                break
            # A consuming cursor hands out the runs fronted by the
            # evictable fragments in the policy's victim order (for the
            # default LRU policy: straight from the clean heap): cost is
            # proportional to the fragments touched, not the cache size.
            cursor = policy.clean_cursor(lru, excluded)
            try:
                while evicted < amount - _EPSILON:
                    run = cursor.next()
                    if run is None:
                        break
                    head = run.head
                    row = run.row
                    size = row[head]
                    needed = amount - evicted
                    if size <= needed + _EPSILON:
                        lru.take(run, head)
                        evicted += size
                        self._free += size
                        if notify:
                            policy.on_evicted(
                                run.filename, size,
                                self.lists.cached_of_file(run.filename),
                            )
                    else:
                        # Evict the fragment's last ``needed`` bytes: its
                        # first part stays, with its metadata.
                        entry_time, last_access = row[head + 1], row[head + 2]
                        lru.take(run, head)
                        lru.push(run.filename, False, run.storage,
                                 size - needed, entry_time, last_access)
                        evicted += needed
                        self._free += needed
                        if notify:
                            policy.on_evicted(
                                run.filename, needed,
                                self.lists.cached_of_file(run.filename),
                            )
            finally:
                cursor.close()
        if evicted > 0:
            self.stats.evicted_bytes += evicted
            self.stats.evict_ops += 1
            # Shrinking the inactive list may break the two-list balance;
            # rebalance as the kernel's reclaim path does (deactivating LRU
            # active data into the inactive list).
            self.lists.balance()
        return evicted

    # ---------------------------------------------------------------- flush
    def select_flush(self, amount: float, exclude_file: Optional[str] = None,
                     ) -> Tuple[Dict[object, float], float]:
        """Selection half of :meth:`flush` (no simulated time).

        Picks LRU dirty fragments totalling ``amount`` bytes, inactive list
        first, and marks them clean (splitting the last one if needed).
        Returns the per-device write amounts (in selection order) plus the
        total selected.  :meth:`LRUList.clean` moves each fragment from
        its dirty run into the file's clean run (or a clean run of its
        own) without touching its size, so cleaning a run front to back
        grows one clean extent.  The selection is synchronous so that a
        concurrent flusher never picks the same fragments twice.
        """
        per_device: Dict[object, float] = {}
        total = 0.0
        for lru in (self.lists.inactive, self.lists.active):
            if total >= amount - _EPSILON:
                break
            cursor = lru.dirty_cursor(exclude_file)
            try:
                while total < amount - _EPSILON:
                    run = cursor.next()
                    if run is None:
                        break
                    head = run.head
                    row = run.row
                    size = row[head]
                    storage = run.storage
                    needed = amount - total
                    if size <= needed + _EPSILON:
                        lru.clean(run, head)
                    else:
                        # Split into a flushed part and a part that stays
                        # dirty.
                        entry_time, last_access = row[head + 1], row[head + 2]
                        lru.take(run, head)
                        filename = run.filename
                        lru.push(filename, False, storage, needed, entry_time,
                                 last_access)
                        lru.push(filename, True, storage, size - needed,
                                 entry_time, last_access)
                        size = needed
                    total += size
                    if storage is not None:
                        if storage in per_device:
                            per_device[storage] += size
                        else:
                            per_device[storage] = size
            finally:
                cursor.close()
        return per_device, total

    def flush(self, amount: float, exclude_file: Optional[str] = None):
        """Flush up to ``amount`` bytes of dirty data to storage.

        This is a simulation process (``yield`` it from another process):
        the selected blocks are written to their backing storage devices and
        the elapsed time is governed by the storage model, including
        bandwidth sharing with any concurrent I/O.  Returns the number of
        bytes flushed, which may be smaller than requested if less dirty
        data is available.
        """
        if amount is None or amount <= 0:
            return 0.0
        per_device, total = self.select_flush(amount, exclude_file)
        if total <= 0:
            return 0.0
        label = self._label_flush
        for device, device_amount in per_device.items():
            yield device.write(device_amount, label=label)
        self.stats.flushed_bytes += total
        self.stats.flush_ops += 1
        return total

    # ------------------------------------------------------ cache operations
    def add_to_cache(self, filename: str, amount: float, storage,
                     dirty: bool = False) -> None:
        """Insert freshly read (or written) data as a new fragment.

        Newly cached data always enters the inactive list, as in the kernel.
        Accounting only; the disk or memory transfer time is simulated by
        the caller.
        """
        if amount <= 0:
            return
        now = self.env.now
        lists = self.lists
        lists.inactive.push(filename, dirty, storage, float(amount), now, now)
        lists.balance()
        self._free -= amount
        if self._policy_events:
            self.policy.on_insert(filename, amount, now)

    def put_to_cache(self, filename: str, amount: float, storage) -> None:
        """Write ``amount`` bytes of ``filename`` into the cache (dirty).

        Accounting only: creates a dirty fragment in the inactive list (writes
        are assumed to target uncached data, as in the paper) and counts
        the written bytes; the caller charges the memory-write transfer.
        """
        self.add_to_cache(filename, amount, storage, dirty=True)
        self.stats.cache_write_bytes += amount

    def take_from_cache(self, filename: str, amount: float) -> float:
        """Serve up to ``amount`` bytes of ``filename`` from the cache.

        The cache-hit path of Algorithm 2, accounting only: data is taken
        from the inactive list first, then from the active list; clean
        fragments are merged into a single re-accessed fragment appended to
        the active list, dirty fragments are promoted individually so they
        keep their entry time.  Records the hit and returns the number of
        bytes served (bounded by the amount of the file actually cached);
        the caller charges the memory-read transfer for them.
        """
        now = self.env.now
        remaining = amount
        # The sum of the clean sizes starts at the first one, the same
        # value as ``0.0 + size``.
        merged_clean_size: Optional[float] = None
        merged_entry_time = now
        merged_storage = None
        lists = self.lists
        active = lists.active

        for lru in (lists.inactive, active):
            if remaining <= _EPSILON:
                break
            # Only this file's fragments, in LRU order — the lazy file
            # cursor walks the file's extent runs and costs only the
            # fragments actually consumed, not a per-chunk snapshot of
            # every cached fragment of the file.
            cursor_next = lru.file_cursor(filename).next
            take = lru.take
            while remaining > _EPSILON:
                run = cursor_next()
                if run is None:
                    break
                head = run.head
                row = run.row
                taken = row[head]
                entry_time = row[head + 1]
                if taken > remaining + _EPSILON:
                    # Only part of the fragment is accessed: its rest stays
                    # in place, and the first part only is re-accessed.
                    last_access = row[head + 2]
                    take(run, head)
                    lru.push(filename, run.dirty, run.storage,
                             taken - remaining, entry_time, last_access)
                    taken = float(remaining)
                    mark = None
                else:
                    mark = take(run, head)
                if run.dirty:
                    # Dirty fragments are moved independently to preserve
                    # their entry time (needed for expiration).
                    active.push(filename, True, run.storage, taken,
                                entry_time, now, mark)
                else:
                    if entry_time < merged_entry_time:
                        merged_entry_time = entry_time
                    if merged_clean_size is None:
                        merged_clean_size = taken
                    else:
                        merged_clean_size += taken
                    if run.storage is not None:
                        merged_storage = run.storage
                remaining -= taken

        if merged_clean_size is not None:
            active.push(filename, False, merged_storage, merged_clean_size,
                        merged_entry_time, now)

        lists.balance()
        served = amount - max(0.0, remaining)
        if served > 0:
            self.stats.record_hit(filename, served)
            if self._policy_events:
                self.policy.on_access(filename, served, now)
        return served

    def invalidate_file(self, filename: str) -> float:
        """Drop every cached block of ``filename`` (e.g. file deletion).

        Dirty data of the file is discarded without being written back,
        mirroring what happens when a file is unlinked.  Returns the number
        of bytes removed from the cache.
        """
        removed = 0.0
        for lru in (self.lists.inactive, self.lists.active):
            cursor = lru.file_cursor(filename)
            run = cursor.next()
            while run is not None:
                head = run.head
                size = run.row[head]
                lru.take(run, head)
                removed += size
                self._free += size
                run = cursor.next()
        if removed > 0:
            self.lists.balance()
            if self._policy_events:
                self.policy.on_invalidate(filename)
        return removed

    def invalidate_all(self) -> float:
        """Drop the entire page cache (node crash / power loss).

        Every cached block of every file — dirty data included — is
        discarded without writeback, exactly as a crash loses the contents
        of RAM.  Anonymous memory accounting is untouched (the owning
        processes are rolled back separately).  Returns the number of
        bytes removed.
        """
        removed = 0.0
        for filename in list(self.lists.files()):
            removed += self.invalidate_file(filename)
        self._files_being_written.clear()
        return removed

    # ---------------------------------------------------- periodical flushing
    def _periodic_flush(self):
        """Algorithm 1: flush expired dirty blocks every ``writeback_interval``."""
        interval = self.config.writeback_interval
        while self._running:
            start = self.env.now
            flushed = yield from self._flush_expired()
            if flushed > 0:
                self.stats.background_flushed_bytes += flushed
            flushing_time = self.env.now - start
            if flushing_time < interval:
                yield self.env.timeout(interval - flushing_time)

    def _flush_expired(self):
        """One pass of the flusher: write the expired dirty fragments.

        The pass marks each expired dirty fragment, inactive list first,
        each list in LRU order, and holds the marks across its writes.  A
        mark follows its fragment when a read promotes it, ``balance``
        demotes it or a foreground flush cleans it; one whose fragment
        was split, evicted or invalidated meanwhile is dropped and
        skipped.  A fragment a foreground flush already cleaned is
        written again.  Each mark is unregistered once reached, so the
        pass holds only the fragments still ahead.  Returns the bytes
        written.
        """
        now = self.env.now
        expiration = self.config.dirty_expire
        marks = (self.lists.inactive.expired_blocks(now, expiration)
                 + self.lists.active.expired_blocks(now, expiration))
        marks.reverse()
        flushed = 0.0
        while marks:
            mark = marks.pop()
            run = mark.run
            if run is None:
                continue
            offset = run.offset_of(mark)
            run.unregister(mark.stamp)
            size = run.row[offset]
            storage = run.storage
            # Clean it before the write so foreground flushing does not
            # pick the same fragment while this process waits on the
            # storage device.
            if run.dirty:
                run._list.clean(run, offset)
            flushed += size
            if storage is not None:
                try:
                    yield storage.write(size, label=self._label_bg_flush)
                except FlowAborted:
                    # The device crashed mid-flush (fault injection).
                    # The whole cache is about to be invalidated, so
                    # just skip the write and keep the flusher alive
                    # for after the repair.
                    flushed -= size
        return flushed

    def stop(self) -> None:
        """Stop the background flusher at its next wake-up."""
        self._running = False

    def __repr__(self) -> str:
        return (
            f"<MemoryManager {self.name!r} total={format_size(self.total_memory)} "
            f"free={format_size(max(0.0, self._free))} "
            f"cached={format_size(self.cached)} dirty={format_size(self.dirty)} "
            f"anon={format_size(self.anonymous)}>"
        )
