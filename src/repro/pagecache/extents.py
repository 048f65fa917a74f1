"""Extent runs: the storage representation of the page-cache LRU lists.

An :class:`ExtentRun` is the row of *fragments*
(:class:`~repro.pagecache.block.Block` objects) one file keeps in one
state (dirty or clean) in one LRU list, sorted by LRU position.  The run
— not the fragment — is the unit enqueued in the flush/eviction state
heaps and referenced by the per-file index, so the structural cost of
the cache scales with the number of live (file, state) streams, not with
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

Stamps live in their run.  The fragment keeps its ``last_access``; the
run keeps the stamps in an ``array("q")`` row index-aligned with the
fragment row, so a cached chunk costs one object (its
:class:`~repro.pagecache.block.Block`) and an 8-byte stamp slot instead
of a block plus an int object.  Every edit of the fragment row edits the
stamp row at the same index.

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
*front* of runs: ``frags[head]`` with a moving ``head`` cursor and
periodic compaction of both rows, so consuming a fragment is O(1)
amortized.  A run dies when its last fragment goes and is never reused:
its ``_list`` stays ``None`` for good, which fences every stale
reference a heap entry or a cursor may still hold.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import FrozenSet, List, Optional, Tuple

from repro.pagecache.block import Block

#: Compact a run's fragment row once this many consumed slots accumulate
#: at its front (and they outnumber the live fragments).
_COMPACT_THRESHOLD = 32


class ExtentRun:
    """One file's fragments in one state, sorted by LRU position.

    The fragment row ``frags[head:]`` holds the live fragments, oldest
    first; slots before ``head`` are consumed (cleared to ``None``) and
    reclaimed in bulk.  ``stamps`` is the stamp row: ``stamps[i]`` is the
    per-list insertion stamp of ``frags[i]``, and both rows always have
    the same length (a consumed slot keeps a stale stamp).  ``_list`` is
    the owning :class:`~repro.pagecache.lru.LRUList` (``None`` once dead).
    """

    __slots__ = ("filename", "dirty", "frags", "stamps", "head", "_list")

    def __init__(self, filename: str, dirty: bool):
        self.filename = filename
        self.dirty = dirty
        self.frags: List[Optional[Block]] = []
        self.stamps = array("q")
        self.head = 0
        self._list = None

    # ------------------------------------------------------------------ views
    def fragments(self) -> List[Block]:
        """Snapshot of the live fragments, oldest first."""
        return self.frags[self.head:]

    def keyed(self) -> List[Tuple[Tuple[float, int], Block]]:
        """Snapshot of the live fragments with their ``(last_access,
        stamp)`` position keys, oldest first."""
        frags, stamps = self.frags, self.stamps
        return [((frags[index].last_access, stamps[index]), frags[index])
                for index in range(self.head, len(frags))]

    def front_key(self) -> Tuple[float, int]:
        """Position key of the live front fragment."""
        head = self.head
        return (self.frags[head].last_access, self.stamps[head])

    def length(self) -> float:
        """Run length in bytes: the left-to-right sum of fragment sizes.

        With fragments recorded at exact sizes this is the byte range the
        run covers; unit tests assert the list totals are exactly the sum
        of run lengths on integer-sized workloads.
        """
        total = 0.0
        for index in range(self.head, len(self.frags)):
            total += self.frags[index].size
        return total

    def compact(self) -> None:
        """Reclaim the consumed slots at the front of both rows."""
        head = self.head
        if head:
            del self.frags[:head]
            del self.stamps[:head]
            self.head = 0

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        return (
            f"<ExtentRun {self.filename!r} {state} "
            f"frags={len(self.frags) - self.head}>"
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
        self.heap: List[Tuple[float, int, int, ExtentRun]] = []
        self.live = 0
        self._seq = 0

    def _is_live(self, entry: Tuple[float, int, int, ExtentRun]) -> bool:
        run = entry[3]
        if run._list is not self.owner:
            return False
        head = run.head
        frags = run.frags
        if head >= len(frags):
            return False
        return (run.stamps[head] == entry[1]
                and frags[head].last_access == entry[0])

    def push(self, run: ExtentRun) -> None:
        head = run.head
        seq = self._seq
        self._seq = seq + 1
        heappush(self.heap, (run.frags[head].last_access, run.stamps[head],
                             seq, run))
        # Sweep tombstones once they dominate; keeps the heap O(live).
        if len(self.heap) > 2 * self.live + 64:
            self.heap = [e for e in self.heap if self._is_live(e)]
            heapify(self.heap)

    def skim(self) -> Optional[Tuple[float, int, int, ExtentRun]]:
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

    ``next()`` returns the globally least recently used live fragment of
    the state whose file is not excluded; the caller must *consume* the
    fragment — remove it, flip its state or split it out — before asking
    for the next one.  The cursor keeps carving the same run while its
    front remains the state's minimum, so a sequential stream costs no
    per-fragment heap traffic; when another run's front becomes older
    (interleaved streams), the cursor re-enqueues the current run and
    switches — the same per-fragment heap cost the one-block-per-node
    implementation paid on every block.  Excluded runs are held aside
    and returned to the heap on ``close()``.
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
        self.limit: Optional[Tuple[float, int]] = None

    def next(self) -> Optional[Block]:
        heap = self.heap
        run = self.run
        if run is not None:
            head = run.head
            if run._list is heap.owner and head < len(run.frags):
                front = run.frags[head]
                limit = self.limit
                if (limit is None
                        or (front.last_access, run.stamps[head]) < limit):
                    return front
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
            return run.frags[run.head]

    def close(self) -> None:
        heap = self.heap
        pending = heap.owner._pending_repush
        for run in self.held:
            if run._list is heap.owner and run.head < len(run.frags):
                pending[run] = None
        self.held = []
        run = self.run
        if run is not None:
            if run._list is heap.owner and run.head < len(run.frags):
                pending[run] = None
            self.run = None


class FileCursor:
    """Consuming cursor over one file's fragments in exact LRU order.

    Replays the semantics of iterating a snapshot of the file's blocks
    (the pre-extent read path) at O(fragments touched) cost: the file
    holds at most one clean and one dirty run per list, and the cursor
    merges the two rows by front key.  A stamp bound captured from the
    owning list excludes fragments linked after creation — a fragment
    appended, promoted or re-inserted *while* the cursor is draining is
    invisible to it, exactly as it was invisible to the old eager
    snapshot.

    The caller must consume each returned fragment before requesting the
    next one, and must stop iterating after re-inserting a split
    remainder (the read path's "partial last block" case always does).
    """

    __slots__ = ("owner", "clean", "dirty", "stamp_bound")

    def __init__(self, owner, index: Optional[RunIndex], stamp_bound: int):
        self.owner = owner
        self.clean = index.clean if index is not None else None
        self.dirty = index.dirty if index is not None else None
        self.stamp_bound = stamp_bound

    def _front_stamp(self, run: Optional[ExtentRun]) -> Optional[int]:
        """The stamp of ``run``'s front fragment, or ``None`` when the run
        is gone, exhausted or fronted by a fragment linked after the
        cursor's creation."""
        if run is None or run._list is not self.owner:
            return None
        head = run.head
        if head >= len(run.frags):
            return None
        stamp = run.stamps[head]
        if stamp >= self.stamp_bound:
            return None
        return stamp

    def next(self) -> Optional[Block]:
        clean, dirty = self.clean, self.dirty
        clean_stamp = self._front_stamp(clean)
        if clean_stamp is None:
            self.clean = None
        dirty_stamp = self._front_stamp(dirty)
        if dirty_stamp is None:
            self.dirty = None
            if clean_stamp is None:
                return None
            return clean.frags[clean.head]
        dirty_front = dirty.frags[dirty.head]
        if clean_stamp is None:
            return dirty_front
        clean_front = clean.frags[clean.head]
        if (clean_front.last_access, clean_stamp) <= (
                dirty_front.last_access, dirty_stamp):
            return clean_front
        return dirty_front
