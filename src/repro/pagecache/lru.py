"""Two-list LRU structure of the Linux page cache, stored as extent runs.

The kernel flags pages for eviction with a two-list strategy: newly
accessed data enters the *inactive* list; data accessed again is promoted
to the *active* list; the active list is kept at most twice the size of the
inactive list by demoting its least recently used entries.  Only clean data
on the inactive list is eligible for eviction.

:class:`LRUList` keeps cached fragments totally ordered by
``(last_access, stamp)`` — the per-list monotone *stamp* breaks
last-access ties in insertion order, exactly as the pre-extent
one-block-per-list-node implementation did (this is the order the parity
suite in ``tests/test_pagecache_parity.py`` pins).  Storage is by
:class:`~repro.pagecache.extents.ExtentRun`: one sorted, packed row of
numbers per (file, state) — size, entry time, last access and stamp per
fragment — so a cached chunk is 32 bytes of row and no object, and the
structural cost of the cache scales with the number of live streams, not
with ``bytes / chunk_size``:

* appending a fragment (the sequential read/write hot path,
  :meth:`LRUList.push`) extends its file's row — no object, list-node,
  index or heap traffic, no matter how many concurrent streams
  interleave their chunks;
* the flush/eviction cursors hand out run fronts, switching runs through
  the state heaps only when streams genuinely interleave in LRU order
  (where the old implementation paid a heap operation on every block
  regardless), and the consumers carve them off with :meth:`LRUList.take`
  and :meth:`LRUList.clean`;
* the read path walks only the touched file's two runs through a merging
  cursor (:meth:`LRUList.file_cursor`), so a chunked re-read of a cached
  file costs the fragments it consumes instead of a per-chunk snapshot of
  every cached block of the file.

The rows are the only API: :meth:`LRUList.push` adds a fragment,
:meth:`LRUList.take` removes one and :meth:`LRUList.clean` changes its
state, each addressed by its run and row offset, and the state, file and
policy cursors, :meth:`LRUList.front_run` and :meth:`LRUList.runs` say
which run to address.  The periodic flusher's expiry scan,
:meth:`LRUList.expired_blocks`, is the one reader that holds fragments
across simulated time: it returns a :class:`~repro.pagecache.extents.Mark`
per expired fragment, and the three edits that move a fragment whole (a
read promoting it, ``balance`` demoting it and :meth:`LRUList.clean`)
carry its mark along.

Losslessness.  Runs coalesce by *moving fragments between sorted rows*,
never by summing their sizes.  Fragment sizes — and therefore every byte
amount any operation observes or any accounting total accumulates — are
bit-identical to the one-block-per-node representation.  PR 3's opt-in
``coalesce_extents`` merged blocks by adding their sizes, which
re-associated float additions and could flip discrete scheduling
decisions at paper scale; that mode is gone, and the run representation
is default-on because there is no arithmetic to lose.

:class:`PageCacheLists` pairs an inactive and an active list and
implements the balancing demotion (a read's promotion is
:meth:`~repro.pagecache.memory_manager.MemoryManager.take_from_cache`).
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import CacheConsistencyError
from repro.pagecache.extents import (
    _COMPACT_THRESHOLD,
    WIDTH,
    ExtentRun,
    FileCursor,
    Mark,
    RunIndex,
    StateCursor,
    StateHeap,
)
from repro.pagecache.tolerances import (
    BYTE_EPSILON,
    DRIFT_TOLERANCE,
    NEGATIVE_TOLERANCE,
)

#: The kernel keeps the active list at most twice the inactive list.
ACTIVE_TO_INACTIVE_RATIO = 2.0

#: A run's row is compacted once its head offset reaches this many doubles.
_COMPACT_HEAD = _COMPACT_THRESHOLD * WIDTH


class LRUList:
    """An LRU-ordered collection of data-block fragments in extent runs.

    Pushing a fragment with a monotonically increasing access time is
    O(1); an out-of-order insertion (e.g. a demotion from the active
    list) binary-searches its file's run.  Taking a run-front fragment
    is O(1) amortized; the flush/eviction paths interleave the runs
    through lazy-deletion state heaps, and the file cursor merges one
    file's two runs, each in exact LRU order.
    """

    __slots__ = ("name", "merges", "_length", "_size", "_dirty", "_per_file",
                 "_file_runs", "_dirty_heap", "_clean_heap", "_next_stamp",
                 "_run_count", "_pending_repush")

    def __init__(self, name: str = "lru"):
        self.name = name
        #: Number of fragments that joined an existing run instead of
        #: founding one (observability/benchmarks).
        self.merges = 0
        self._length = 0
        self._run_count = 0
        self._size = 0.0
        self._dirty = 0.0
        self._per_file: Dict[str, float] = {}
        #: filename -> its (clean, dirty) runs in this list.
        self._file_runs: Dict[str, RunIndex] = {}
        #: Lazy-deletion heaps serving "next dirty/clean fragment in LRU
        #: order" to the flush and eviction paths.
        self._dirty_heap = StateHeap(self)
        self._clean_heap = StateHeap(self)
        #: Runs whose front key changed since their last heap push; they
        #: are re-pushed in bulk before the next heap consumer runs, so
        #: front carving costs no per-fragment heap traffic.  A dict is
        #: used as an insertion-ordered set to keep runs deterministic.
        self._pending_repush: Dict[ExtentRun, None] = {}
        self._next_stamp = 0

    # ----------------------------------------------------------------- sizes
    @property
    def size(self) -> float:
        """Total bytes held by the list."""
        return self._size

    @property
    def dirty_size(self) -> float:
        """Bytes of dirty data held by the list."""
        return self._dirty

    @property
    def clean_size(self) -> float:
        """Bytes of clean (evictable) data held by the list."""
        return max(0.0, self._size - self._dirty)

    @property
    def run_count(self) -> int:
        """Number of extent runs currently held."""
        return self._run_count

    def __len__(self) -> int:
        return self._length

    def runs(self) -> List[ExtentRun]:
        """The live extent runs, ordered by their front key (snapshot)."""
        result = []
        for index in self._file_runs.values():
            for run in (index.clean, index.dirty):
                if run is not None:
                    result.append(run)
        result.sort(key=ExtentRun.front_key)
        return result

    # ----------------------------------------------------------- run plumbing
    def _new_run(self, index: RunIndex, filename: str, dirty: bool,
                 storage: Any, size: float, entry_time: float,
                 last_access: float, stamp: float) -> ExtentRun:
        """Found the run of ``filename`` in state ``dirty``, holding one
        fragment, and register it in ``index``."""
        run = ExtentRun(filename, dirty, storage,
                        array("d", (size, entry_time, last_access, stamp)))
        run._list = self
        if dirty:
            index.dirty = run
            self._dirty_heap.live += 1
        else:
            index.clean = run
            self._clean_heap.live += 1
        self._run_count += 1
        self._pending_repush[run] = None
        return run

    def _kill_run(self, run: ExtentRun) -> None:
        """Retire an exhausted run for good; its heap entries and any
        cursor still holding it see ``_list is None`` and skip it."""
        run._list = None
        self._run_count -= 1
        filename = run.filename
        index = self._file_runs.get(filename)
        if index is not None:
            if run.dirty:
                if index.dirty is run:
                    index.dirty = None
            elif index.clean is run:
                index.clean = None
            if index.clean is None and index.dirty is None:
                del self._file_runs[filename]
        heap = self._dirty_heap if run.dirty else self._clean_heap
        heap.live -= 1
        self._pending_repush.pop(run, None)
        if run.row:
            del run.row[:]
        run.head = 0

    def _flush_pending(self) -> None:
        """Re-push runs whose front key changed since their last push."""
        pending = self._pending_repush
        if not pending:
            return
        dirty_heap, clean_heap = self._dirty_heap, self._clean_heap
        for run in pending:
            if run._list is self and run.head < len(run.row):
                (dirty_heap if run.dirty else clean_heap).push(run)
        pending.clear()

    # ------------------------------------------------------------- insertion
    def _join_run(self, run: ExtentRun, storage: Any, size: float,
                  entry_time: float, last_access: float, stamp: float,
                  full_key: bool) -> None:
        """Insert a fragment with ``stamp`` at its sorted position in
        ``run``'s row.

        With ``full_key=False`` the stamp is fresher than every stamp in
        the list, so ties on ``last_access`` resolve to "after" and the
        search compares access times only (the :meth:`push` contract).
        With ``full_key=True`` the fragment keeps an old stamp (a state
        change moving it between runs) and the search compares the
        complete ``(last_access, stamp)`` key.
        """
        if storage is not run.storage:
            raise CacheConsistencyError(
                f"fragment of {run.filename!r} backed by {storage!r} cannot "
                f"join {run!r}, backed by {run.storage!r}"
            )
        row = run.row
        back_access = row[-2]
        if (last_access > back_access
                or (last_access == back_access
                    and (not full_key or stamp > row[-1]))):
            row.extend((size, entry_time, last_access, stamp))
            return
        head = run.head
        lo, hi = head // WIDTH, len(row) // WIDTH
        if full_key:
            key = (last_access, stamp)
            while lo < hi:
                mid = (lo + hi) // 2
                offset = mid * WIDTH
                if (row[offset + 2], row[offset + 3]) <= key:
                    lo = mid + 1
                else:
                    hi = mid
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid * WIDTH + 2] <= last_access:
                    lo = mid + 1
                else:
                    hi = mid
        offset = lo * WIDTH
        if offset == head:
            # New front: reuse a consumed slot when one is available.
            if head:
                head -= WIDTH
                run.head = head
                row[head] = size
                row[head + 1] = entry_time
                row[head + 2] = last_access
                row[head + 3] = stamp
            else:
                row[0:0] = array("d", (size, entry_time, last_access, stamp))
            self._pending_repush[run] = None
        else:
            row[offset:offset] = array(
                "d", (size, entry_time, last_access, stamp))

    def push(self, filename: str, dirty: bool, storage: Any, size: float,
             entry_time: float, last_access: float,
             mark: Optional[Mark] = None) -> None:
        """Add a fragment at its ordered position (O(1) at its run's tail).

        The fragment lands after every fragment with ``last_access`` less
        than or equal to its own (ties resolve to insertion order).  This
        is the hottest structural operation of the simulator: continuing
        a stream extends the file's row.  A ``mark`` (detached by the
        :meth:`take` of this fragment) is registered with it and takes its
        stamp and ``last_access``.
        """
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        index = self._file_runs.get(filename)
        if index is None:
            index = self._file_runs[filename] = RunIndex()
        run = index.dirty if dirty else index.clean
        if run is None:
            run = self._new_run(index, filename, dirty, storage, size,
                                entry_time, last_access, stamp)
        else:
            self._join_run(run, storage, size, entry_time, last_access,
                           stamp, False)
            self.merges += 1
        self._length += 1
        self._size += size
        if dirty:
            self._dirty += size
        per_file = self._per_file
        per_file[filename] = per_file.get(filename, 0.0) + size
        if mark is not None:
            mark.last_access = last_access
            run.register(mark, stamp)

    # --------------------------------------------------------------- removal
    def _carve(self, run: ExtentRun, offset: int) -> Optional[Mark]:
        """Structurally remove the fragment at ``offset`` from ``run`` (no
        accounting) and return its mark, detached, if one is held.

        Front removals advance the run's head (O(1) amortized, with
        compaction and a deferred heap re-push); back and middle removals
        edit the row in place; an emptied run is retired.
        """
        row = run.row
        stamp = row[offset + 3]
        head = run.head
        if offset == head:
            head += WIDTH
            run.head = head
            if head >= len(row):
                self._kill_run(run)
            else:
                if head >= _COMPACT_HEAD and head * 2 >= len(row):
                    run.compact()
                self._pending_repush[run] = None
        else:
            del row[offset:offset + WIDTH]
        if run.marks is None:
            return None
        return run.unregister(stamp)

    def take(self, run: ExtentRun, offset: int) -> Optional[Mark]:
        """Remove the fragment at ``offset`` of ``run``, settling the
        accounting; return its mark, detached, if one is held (a caller
        that moves the fragment whole carries it to :meth:`push`; any
        other caller drops it)."""
        size = run.row[offset]
        mark = self._carve(run, offset)
        self._length -= 1
        self._size -= size
        if run.dirty:
            self._dirty -= size
        filename = run.filename
        per_file = self._per_file
        remaining = per_file.get(filename, 0.0) - size
        if remaining <= BYTE_EPSILON:
            per_file.pop(filename, None)
        else:
            per_file[filename] = remaining
        if (self._size < -NEGATIVE_TOLERANCE
                or self._dirty < -NEGATIVE_TOLERANCE):
            raise CacheConsistencyError(
                f"negative accounting in LRU list {self.name!r}: "
                f"size={self._size}, dirty={self._dirty}"
            )
        self._size = max(0.0, self._size)
        self._dirty = max(0.0, self._dirty)
        return mark

    def front_run(self) -> Optional[ExtentRun]:
        """The run fronted by the least recently used fragment, if any."""
        self._flush_pending()
        dirty = self._dirty_heap.skim()
        clean = self._clean_heap.skim()
        if dirty is None:
            return None if clean is None else clean[3]
        if clean is None or (dirty[0], dirty[1]) < (clean[0], clean[1]):
            return dirty[3]
        return clean[3]

    # ---------------------------------------------------------- state change
    def clean(self, run: ExtentRun, offset: int) -> None:
        """Clear the dirty state of the fragment at ``offset`` of the dirty
        ``run``, fixing the dirty accounting.

        The fragment keeps its exact position key in the LRU order —
        only its state changes.  Structurally it moves from its file's
        dirty run into the file's clean run (founding it if needed) at
        its sorted position; a flusher cleaning dirty data front to back
        therefore grows one clean extent instead of shredding the cache
        into per-block nodes.  Its mark, if one is held, moves with it.
        """
        row = run.row
        size = row[offset]
        entry_time = row[offset + 1]
        last_access = row[offset + 2]
        stamp = row[offset + 3]
        self._dirty = max(0.0, self._dirty - size)
        # Carve out of the dirty run (no byte accounting: the bytes stay
        # cached) and rejoin the clean run at the same position key (the
        # stamp is old, so the search uses the complete key).
        mark = self._carve(run, offset)
        filename = run.filename
        index = self._file_runs.get(filename)
        if index is None:
            index = self._file_runs[filename] = RunIndex()
        clean = index.clean
        if clean is None:
            clean = self._new_run(index, filename, False, run.storage, size,
                                  entry_time, last_access, stamp)
        else:
            # A state change, not a coalescing event: `merges` unchanged.
            self._join_run(clean, run.storage, size, entry_time,
                           last_access, stamp, True)
        if mark is not None:
            clean.register(mark, stamp)

    # --------------------------------------------------------------- queries
    def cached_of_file(self, filename: str) -> float:
        """Bytes of ``filename`` held by the list (O(1))."""
        return self._per_file.get(filename, 0.0)

    def files(self) -> Dict[str, float]:
        """Mapping ``filename -> cached bytes`` for this list."""
        return dict(self._per_file)

    def expired_blocks(self, now: float, expiration: float) -> List[Mark]:
        """Mark the dirty fragments at least ``expiration`` seconds old;
        return their marks in LRU order.

        A full scan of the dirty runs: entry time is not monotone in LRU
        order (re-reading a dirty fragment moves it to the recent end but
        keeps its entry time), so no prefix of the dirty order holds all
        the expired fragments.  Each mark is registered in its run until
        its fragment is split, evicted or invalidated, or the holder
        unregisters it.
        """
        marks: List[Mark] = []
        for index in self._file_runs.values():
            run = index.dirty
            if run is not None:
                row = run.row
                for offset in range(run.head, len(row), WIDTH):
                    if (now - row[offset + 1]) >= expiration:
                        stamp = row[offset + 3]
                        mark = Mark(run, stamp, row[offset + 2])
                        run.register(mark, stamp)
                        marks.append(mark)
        marks.sort(key=attrgetter("last_access", "stamp"))
        return marks

    # --------------------------------------------------------------- cursors
    def clean_cursor(self, exclude_files: Iterable[str] = ()) -> StateCursor:
        """Consuming cursor over clean fragments in LRU order (eviction).

        ``next()`` returns the run whose front fragment comes next; it
        must be removed from the list (or re-inserted after a split)
        before requesting the next one.  Call ``close()`` when done so
        excluded runs return to the heap.
        """
        self._flush_pending()
        return StateCursor(self._clean_heap, frozenset(exclude_files))

    def dirty_cursor(self, exclude_file: Optional[str] = None) -> StateCursor:
        """Consuming cursor over dirty fragments in LRU order (flushing)."""
        self._flush_pending()
        excluded = frozenset() if exclude_file is None else frozenset((exclude_file,))
        return StateCursor(self._dirty_heap, excluded)

    def file_cursor(self, filename: str) -> FileCursor:
        """Consuming cursor over one file's fragments in LRU order (reads).

        Snapshot semantics: fragments linked after the cursor's creation
        (re-accessed data, split remainders) are not returned, exactly as
        with an eager snapshot of the file's blocks, but the cost is
        proportional to the fragments actually consumed.
        """
        return FileCursor(self, self._file_runs.get(filename),
                          self._next_stamp)

    # ------------------------------------------------------------ validation
    def assert_consistent(self) -> None:
        """Validate accounting, run structure, marks, indexes and heap
        liveness."""
        total = 0.0
        dirty = 0.0
        per_file: Dict[str, float] = {}
        count = 0
        run_count = 0
        dirty_runs = 0
        keys = set()
        for filename, index in self._file_runs.items():
            if index.clean is None and index.dirty is None:
                raise CacheConsistencyError(
                    f"empty file index for {filename!r} in {self.name!r}"
                )
            for run in (index.clean, index.dirty):
                if run is None:
                    continue
                if run._list is not self:
                    raise CacheConsistencyError(
                        f"run {run!r} indexed by {self.name!r} but owned "
                        f"elsewhere"
                    )
                if run.filename != filename:
                    raise CacheConsistencyError(
                        f"run {run!r} filed under {filename!r} in "
                        f"{self.name!r}"
                    )
                row = run.row
                if len(row) % WIDTH or run.head % WIDTH:
                    raise CacheConsistencyError(
                        f"run {run!r} of {self.name!r} holds {len(row)} "
                        f"doubles from offset {run.head}, not whole "
                        f"fragments of {WIDTH}"
                    )
                if run.head >= len(row):
                    raise CacheConsistencyError(
                        f"empty run {run!r} stored in LRU list {self.name!r}"
                    )
                marks = run.marks
                marked = 0
                previous_key = None
                for offset in run.offsets():
                    size = row[offset]
                    if size <= 0:
                        raise CacheConsistencyError(
                            f"non-positive fragment size {size} in run "
                            f"{run!r} of {self.name!r}"
                        )
                    key = (row[offset + 2], row[offset + 3])
                    if previous_key is not None and key <= previous_key:
                        raise CacheConsistencyError(
                            f"run {run!r} of {self.name!r} out of order at "
                            f"key {key}"
                        )
                    if key in keys:
                        raise CacheConsistencyError(
                            f"duplicate position key {key} in {self.name!r}"
                        )
                    keys.add(key)
                    previous_key = key
                    mark = None if marks is None else marks.get(key[1])
                    if mark is not None:
                        if (mark.run is not run or mark.stamp != key[1]
                                or mark.last_access != key[0]):
                            raise CacheConsistencyError(
                                f"mark at {key} out of step with its "
                                f"fragment in run {run!r} of {self.name!r}"
                            )
                        marked += 1
                    total += size
                    if run.dirty:
                        dirty += size
                    per_file[filename] = per_file.get(filename, 0.0) + size
                    count += 1
                if marks is not None and (not marks or marked != len(marks)):
                    raise CacheConsistencyError(
                        f"run {run!r} of {self.name!r} registers "
                        f"{len(marks)} marks for {marked} of its fragments"
                    )
                run_count += 1
                if run.dirty:
                    dirty_runs += 1
        if count != self._length:
            raise CacheConsistencyError(
                f"LRU list {self.name!r} length drift: {self._length} vs {count}"
            )
        if run_count != self._run_count:
            raise CacheConsistencyError(
                f"LRU list {self.name!r} run-count drift: "
                f"{self._run_count} vs {run_count}"
            )
        if (self._dirty_heap.live != dirty_runs
                or self._clean_heap.live != run_count - dirty_runs):
            raise CacheConsistencyError(
                f"LRU list {self.name!r} state-heap live-count drift"
            )
        # Every run must stay reachable by the flush/eviction paths: a
        # current-front heap entry, or a pending re-push that will create
        # one before the next consumer runs.
        reachable = set()
        for heap in (self._dirty_heap, self._clean_heap):
            for entry in heap.heap:
                if heap._is_live(entry):
                    reachable.add(id(entry[3]))
        for index in self._file_runs.values():
            for run in (index.clean, index.dirty):
                if run is None:
                    continue
                if id(run) not in reachable and run not in self._pending_repush:
                    raise CacheConsistencyError(
                        f"run {run!r} unreachable from the state heaps of "
                        f"{self.name!r}"
                    )
        if abs(total - self._size) > DRIFT_TOLERANCE or \
                abs(dirty - self._dirty) > DRIFT_TOLERANCE:
            raise CacheConsistencyError(
                f"LRU list {self.name!r} accounting drift: "
                f"size {self._size} vs {total}, dirty {self._dirty} vs {dirty}"
            )
        for filename, expected in per_file.items():
            if abs(self._per_file.get(filename, 0.0) - expected) > DRIFT_TOLERANCE:
                raise CacheConsistencyError(
                    f"LRU list {self.name!r} per-file drift on {filename!r}"
                )

    def __repr__(self) -> str:
        return (
            f"<LRUList {self.name!r} fragments={self._length} "
            f"runs={self._run_count} size={self._size:.0f} "
            f"dirty={self._dirty:.0f}>"
        )


class PageCacheLists:
    """The paired inactive/active LRU lists with kernel-style balancing."""

    __slots__ = ("inactive", "active")

    def __init__(self):
        self.inactive = LRUList("inactive")
        self.active = LRUList("active")

    # ----------------------------------------------------------------- sizes
    @property
    def size(self) -> float:
        """Total cached bytes across both lists."""
        return self.inactive._size + self.active._size

    @property
    def dirty_size(self) -> float:
        """Total dirty bytes across both lists."""
        return self.inactive._dirty + self.active._dirty

    @property
    def clean_size(self) -> float:
        """Total clean bytes across both lists."""
        return self.inactive.clean_size + self.active.clean_size

    @property
    def merge_count(self) -> int:
        """Fragments absorbed into existing runs, across both lists."""
        return self.inactive.merges + self.active.merges

    @property
    def run_count(self) -> int:
        """Extent runs held across both lists."""
        return self.inactive._run_count + self.active._run_count

    @property
    def fragment_count(self) -> int:
        """Fragments held across both lists."""
        return self.inactive._length + self.active._length

    def cached_of_file(self, filename: str) -> float:
        """Bytes of ``filename`` cached across both lists."""
        return (
            self.inactive.cached_of_file(filename)
            + self.active.cached_of_file(filename)
        )

    def cached_bytes(self, filenames: Iterable[str]) -> float:
        """Bytes of ``filenames`` cached across both lists, summed.

        The float of ``sum(self.cached_of_file(name) for name in
        filenames)`` on every Python version: the same per-file terms, in
        the same order, through the built-in ``sum`` (which compensates
        rounding from Python 3.12 on), without the method calls per name.
        """
        inactive = self.inactive._per_file
        active = self.active._per_file
        return sum([(inactive[name] if name in inactive else 0.0)
                    + (active[name] if name in active else 0.0)
                    for name in filenames], 0.0)

    def files(self) -> Dict[str, float]:
        """Mapping ``filename -> cached bytes`` across both lists."""
        merged = self.inactive.files()
        for filename, size in self.active.files().items():
            merged[filename] = merged.get(filename, 0.0) + size
        return merged

    # ------------------------------------------------------------- mutations
    def balance(self) -> float:
        """Demote LRU active data until active <= ratio x inactive.

        The ratio is :data:`ACTIVE_TO_INACTIVE_RATIO`.  Exactly the excess
        is demoted (the last demoted fragment is split if needed), so the
        structural invariant ``active <= ratio x inactive``
        holds after every cache update, matching the kernel's steady state
        where the active list is kept at most twice the inactive list.
        Returns the number of bytes demoted.
        """
        active, inactive = self.active, self.inactive
        ratio = ACTIVE_TO_INACTIVE_RATIO
        excess = active._size - ratio * inactive._size
        if excess <= BYTE_EPSILON:
            return 0.0
        # Demoting x bytes must yield active - x <= ratio * (inactive + x).
        to_demote = excess / (1.0 + ratio)
        demoted = 0.0
        while demoted < to_demote - BYTE_EPSILON and active._length > 0:
            run = active.front_run()
            head = run.head
            row = run.row
            size = row[head]
            entry_time = row[head + 1]
            last_access = row[head + 2]
            filename, dirty, storage = run.filename, run.dirty, run.storage
            needed = to_demote - demoted
            if size <= needed + BYTE_EPSILON:
                mark = active.take(run, head)
                inactive.push(filename, dirty, storage, size, entry_time,
                              last_access, mark)
                demoted += size
            else:
                # Demote the fragment's first ``needed`` bytes; both parts
                # keep its metadata.
                active.take(run, head)
                inactive.push(filename, dirty, storage, needed, entry_time,
                              last_access)
                active.push(filename, dirty, storage, size - needed,
                            entry_time, last_access)
                demoted += needed
        return demoted

    def assert_consistent(self) -> None:
        """Validate accounting of both lists."""
        self.inactive.assert_consistent()
        self.active.assert_consistent()

    def __repr__(self) -> str:
        return (
            f"<PageCacheLists inactive={self.inactive.size:.0f}B "
            f"active={self.active.size:.0f}B dirty={self.dirty_size:.0f}B>"
        )
