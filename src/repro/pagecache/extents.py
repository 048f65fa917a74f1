"""Extent runs: the storage representation of the page-cache LRU lists.

An :class:`ExtentRun` holds the *fragments* one file keeps in one state
(dirty or clean) in one LRU list, sorted by LRU position.  The run — not
the fragment — is the unit enqueued in the flush/eviction state heaps and
referenced by the per-file index, so the structural cost of the cache
scales with the number of live (file, state) streams, not with
``bytes / chunk_size``.

Ordering is *by key, not by links*.  Every fragment has a total LRU
position ``(last_access, stamp)`` — the stamp is a per-list monotone
counter that breaks last-access ties in insertion order, exactly as the
historical one-block-per-list-node implementation did.  Since that key
defines the complete order, the global linked list of the old
implementation is redundant: each run keeps its own fragments sorted,
and consumers that need the global order (eviction, flushing, the
balance demotion loop) interleave runs through the state heaps by
comparing front keys.  Runs of one file and state never split — a
fragment whose key falls inside the row is inserted at its sorted
position, and consumption carves the front — so a cache holds at most
``files x 2`` runs per list no matter how many concurrent streams
interleave their chunks.

Fragments are numbers.  A run keeps its fragments in one packed
``array("d")`` row of :data:`WIDTH` doubles each — size, entry time,
last access and stamp — and holds the filename, the state and the
backing storage once for all of them, so a cached chunk costs 32 bytes
of row and no object.  Stamps are exact in a double below 2**53.  This
row *is* the paper's data block: every path reads and edits the lists
through run fronts and row offsets.  The one thing that holds a place in
a row across simulated time is the periodic flusher's snapshot: a
:class:`Mark` (run, stamp and last access) registered in its run's
``marks`` dict under its stamp.  The row edits that move a fragment
whole carry its mark along; every other removal drops it.

Losslessness.  Fragments keep their exact, individually recorded byte
sizes and metadata; joining a run moves a fragment, it never sums sizes.
Every byte quantity an operation observes (accounting totals,
flush/evict/read consumption, background write-back sizes) is produced
by the same float operations in the same order as the historical
representation, so simulation results are bit-identical — the property
that PR 3's opt-in extent merging (which summed merged block sizes,
re-associating float additions) could not give, and the reason it had
to default off while this representation is default-on (and the only
mode).

Consumption model.  All hot-path consumption carves fragments off the
*front* of runs: the ``head`` offset moves past the consumed fragment and
the row is compacted periodically, so consuming a fragment is O(1)
amortized.  A run dies when its last fragment goes and is never reused:
its ``_list`` stays ``None`` for good, which fences every stale
reference a heap entry or a cursor may still hold.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import CacheConsistencyError

#: Doubles per fragment in a run's row: size, entry time, last access and
#: stamp, at offsets 0 to 3 from the fragment's offset.
WIDTH = 4

#: Compact a run's row once this many consumed fragments accumulate at its
#: front (and they outnumber the live fragments).
_COMPACT_THRESHOLD = 32


class Mark:
    """The place of one fragment that a flusher pass holds.

    ``run`` is the run holding the fragment, ``stamp`` its stamp and
    ``last_access`` its last access, so ``(last_access, stamp)`` is its
    position key.  While ``run`` is set the mark is registered in
    ``run.marks``; ``run`` is ``None`` once the fragment was split,
    evicted or invalidated, or the flusher released the mark.
    """

    __slots__ = ("run", "stamp", "last_access")

    def __init__(self, run: ExtentRun, stamp: float, last_access: float):
        self.run: Optional[ExtentRun] = run
        self.stamp = stamp
        self.last_access = last_access


class ExtentRun:
    """One file's fragments in one state, sorted by LRU position.

    ``row[head:]`` holds the live fragments, oldest first, :data:`WIDTH`
    doubles each: the fragment at offset ``p`` has size ``row[p]``, entry
    time ``row[p + 1]``, last access ``row[p + 2]`` and stamp
    ``row[p + 3]``.  The doubles before ``head`` are consumed and reclaimed
    in bulk.  ``storage`` is the backing device of every fragment (a cache
    keeps one storage per file).  ``marks`` maps the stamps of marked
    fragments to their :class:`Mark` and is ``None`` while empty.
    ``_list`` is the owning :class:`~repro.pagecache.lru.LRUList`
    (``None`` once dead).
    """

    __slots__ = ("filename", "dirty", "storage", "row", "head", "marks",
                 "_list")

    def __init__(self, filename: str, dirty: bool, storage: Any, row: array):
        self.filename = filename
        self.dirty = dirty
        self.storage = storage
        self.row = row
        self.head = 0
        self.marks: Optional[Dict[float, Mark]] = None
        self._list = None

    # ------------------------------------------------------------------ views
    def offsets(self) -> range:
        """Row offsets of the live fragments, oldest first."""
        return range(self.head, len(self.row), WIDTH)

    def front_key(self) -> Tuple[float, float]:
        """Position key of the live front fragment."""
        row, head = self.row, self.head
        return (row[head + 2], row[head + 3])

    def length(self) -> float:
        """Run length in bytes: the left-to-right sum of fragment sizes.

        With fragments recorded at exact sizes this is the byte range the
        run covers; unit tests assert the list totals are exactly the sum
        of run lengths on integer-sized workloads.
        """
        row = self.row
        total = 0.0
        for offset in range(self.head, len(row), WIDTH):
            total += row[offset]
        return total

    def compact(self) -> None:
        """Reclaim the consumed doubles at the front of the row."""
        head = self.head
        if head:
            del self.row[:head]
            self.head = 0

    # ------------------------------------------------------------------ marks
    def register(self, mark: Mark, stamp: float) -> None:
        """Register ``mark`` for this run's fragment ``stamp``."""
        mark.run = self
        mark.stamp = stamp
        marks = self.marks
        if marks is None:
            self.marks = marks = {}
        marks[stamp] = mark

    def unregister(self, stamp: float) -> Optional[Mark]:
        """Unregister the mark of fragment ``stamp``, if one is held, and
        return it detached."""
        marks = self.marks
        if marks is None:
            return None
        mark = marks.pop(stamp, None)
        if not marks:
            self.marks = None
        if mark is not None:
            mark.run = None
        return mark

    def offset_of(self, mark: Mark) -> int:
        """Row offset of the fragment ``mark`` holds the place of."""
        row = self.row
        head = self.head
        stamp = mark.stamp
        if row[head + 3] == stamp:
            return head
        key = (mark.last_access, stamp)
        lo, hi = head // WIDTH, len(row) // WIDTH
        while lo < hi:
            mid = (lo + hi) // 2
            offset = mid * WIDTH
            if (row[offset + 2], row[offset + 3]) < key:
                lo = mid + 1
            else:
                hi = mid
        offset = lo * WIDTH
        if offset >= len(row) or row[offset + 3] != stamp:
            raise CacheConsistencyError(
                f"mark of stamp {stamp} is out of step with its run {self!r}"
            )
        return offset

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        return (
            f"<ExtentRun {self.filename!r} {state} "
            f"frags={(len(self.row) - self.head) // WIDTH}>"
        )


class RunIndex:
    """The (at most) two runs — clean and dirty — of one file."""

    __slots__ = ("clean", "dirty")

    def __init__(self):
        self.clean: Optional[ExtentRun] = None
        self.dirty: Optional[ExtentRun] = None


class StateHeap:
    """Lazy-deletion priority queue over the runs of one state.

    Entries are ``(last_access, stamp, seq, run)`` — the run's *front*
    key at push time plus a monotone sequence number so duplicate pushes
    never fall through to comparing runs.  A run never changes state, so
    an entry is live while the run is still in the owning list and still
    fronted by the fragment the entry was pushed for (fragment stamps are
    never reused within a list); everything else is a tombstone, skipped
    on pop and swept out when tombstones outnumber live runs.  Front
    advances do not touch the heap eagerly: the owning list collects runs
    whose front moved in a pending set and re-pushes them in bulk the next
    time a consumer needs the heap.

    ``live`` counts the runs currently in this state (maintained by the
    owning list at run creation and death).
    """

    __slots__ = ("owner", "heap", "live", "_seq")

    def __init__(self, owner):
        self.owner = owner
        self.heap: List[Tuple[float, float, int, ExtentRun]] = []
        self.live = 0
        self._seq = 0

    def _is_live(self, entry: Tuple[float, float, int, ExtentRun]) -> bool:
        run = entry[3]
        if run._list is not self.owner:
            return False
        head = run.head
        row = run.row
        if head >= len(row):
            return False
        return row[head + 3] == entry[1] and row[head + 2] == entry[0]

    def push(self, run: ExtentRun) -> None:
        row, head = run.row, run.head
        seq = self._seq
        self._seq = seq + 1
        heappush(self.heap, (row[head + 2], row[head + 3], seq, run))
        # Sweep tombstones once they dominate; keeps the heap O(live).
        if len(self.heap) > 2 * self.live + 64:
            self.heap = [e for e in self.heap if self._is_live(e)]
            heapify(self.heap)

    def skim(self) -> Optional[Tuple[float, float, int, ExtentRun]]:
        """The live minimum entry, leaving it in the heap (dead entries
        at the top are discarded along the way)."""
        heap = self.heap
        while heap:
            entry = heap[0]
            if self._is_live(entry):
                return entry
            heappop(heap)
        return None

    def pop_live(self) -> Optional[ExtentRun]:
        """Pop and return the least recently used live run, if any."""
        heap = self.heap
        while heap:
            entry = heappop(heap)
            if self._is_live(entry):
                return entry[3]
        return None


class StateCursor:
    """Consuming cursor over one state's fragments in exact LRU order.

    ``next()`` returns the run whose *front* fragment is the globally
    least recently used live fragment of the state whose file is not
    excluded; the caller must *consume* that fragment — remove it, flip
    its state or split it out — before asking for the next one.  The
    cursor keeps returning the same run while its front remains the
    state's minimum, so a sequential stream costs no per-fragment heap
    traffic; when another run's front becomes older (interleaved
    streams), the cursor re-enqueues the current run and switches — the
    same per-fragment heap cost the one-block-per-node implementation paid
    on every block.  Excluded runs are held aside and returned to the heap
    on ``close()``.
    """

    __slots__ = ("heap", "excluded", "held", "run", "limit")

    def __init__(self, heap: StateHeap, excluded: FrozenSet[str]):
        self.heap = heap
        self.excluded = excluded
        self.held: List[ExtentRun] = []
        self.run: Optional[ExtentRun] = None
        #: Key of the next-oldest enqueued run at acquisition time: the
        #: cursor may stream its current run without consulting the heap
        #: while the front key stays below it.  Valid for the cursor's
        #: lifetime because nothing pushes a smaller key mid-consumption:
        #: front advances go to the owner's pending set (flushed only at
        #: cursor creation), and the split/re-insert paths end the
        #: caller's loop by contract.
        self.limit: Optional[Tuple[float, float]] = None

    def next(self) -> Optional[ExtentRun]:
        heap = self.heap
        run = self.run
        if run is not None:
            head = run.head
            row = run.row
            if run._list is heap.owner and head < len(row):
                limit = self.limit
                if limit is None or (row[head + 2], row[head + 3]) < limit:
                    return run
                # Another run's front is older: re-enqueue and switch.
                heap.push(run)
            self.run = None
        excluded = self.excluded
        while True:
            run = heap.pop_live()
            if run is None:
                return None
            if run.filename in excluded:
                self.held.append(run)
                continue
            self.run = run
            top = heap.skim()
            self.limit = None if top is None else (top[0], top[1])
            return run

    def close(self) -> None:
        heap = self.heap
        pending = heap.owner._pending_repush
        for run in self.held:
            if run._list is heap.owner and run.head < len(run.row):
                pending[run] = None
        self.held = []
        run = self.run
        if run is not None:
            if run._list is heap.owner and run.head < len(run.row):
                pending[run] = None
            self.run = None


class FileCursor:
    """Consuming cursor over one file's fragments in exact LRU order.

    Replays the semantics of iterating a snapshot of the file's blocks
    (the pre-extent read path) at O(fragments touched) cost: the file
    holds at most one clean and one dirty run per list, and the cursor
    merges the two rows by front key, returning the run whose front
    fragment comes next.  A stamp bound captured from the owning list
    excludes fragments linked after creation — a fragment appended,
    promoted or re-inserted *while* the cursor is draining is invisible to
    it, exactly as it was invisible to the old eager snapshot.

    The caller must consume each returned front fragment before
    requesting the next one, and must stop iterating after re-inserting a
    split remainder (the read path's "partial last block" case always
    does).
    """

    __slots__ = ("owner", "clean", "dirty", "stamp_bound")

    def __init__(self, owner, index: Optional[RunIndex], stamp_bound: int):
        self.owner = owner
        self.clean = index.clean if index is not None else None
        self.dirty = index.dirty if index is not None else None
        self.stamp_bound = stamp_bound

    def _front_stamp(self, run: Optional[ExtentRun]) -> Optional[float]:
        """The stamp of ``run``'s front fragment, or ``None`` when the run
        is gone, exhausted or fronted by a fragment linked after the
        cursor's creation."""
        if run is None or run._list is not self.owner:
            return None
        head = run.head
        row = run.row
        if head >= len(row):
            return None
        stamp = row[head + 3]
        if stamp >= self.stamp_bound:
            return None
        return stamp

    def next(self) -> Optional[ExtentRun]:
        clean, dirty = self.clean, self.dirty
        clean_stamp = self._front_stamp(clean)
        if clean_stamp is None:
            self.clean = None
        dirty_stamp = self._front_stamp(dirty)
        if dirty_stamp is None:
            self.dirty = None
            if clean_stamp is None:
                return None
            return clean
        if clean_stamp is None:
            return dirty
        if (clean.row[clean.head + 2], clean_stamp) <= (
                dirty.row[dirty.head + 2], dirty_stamp):
            return clean
        return dirty
