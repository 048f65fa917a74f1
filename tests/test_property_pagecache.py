"""Property-based tests (hypothesis) for the page cache data structures.

These tests drive the LRU lists and the Memory Manager with randomly
generated operation sequences and check the structural invariants that the
simulation results rely on:

* list accounting always matches the fragments actually stored;
* the two-list balance invariant (active <= 2 x inactive) holds;
* memory accounting is conservative: free + cached + anonymous == total;
* flushing and eviction never create or destroy cached bytes out of thin
  air (other than the intended removal).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lru_rows import Fragment, fragment, fragments, located
from repro.des import Environment
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.extents import _COMPACT_THRESHOLD, WIDTH, Mark
from repro.pagecache.lru import LRUList, PageCacheLists
from repro.pagecache.tolerances import BYTE_EPSILON
from repro.pagecache.memory_manager import MemoryManager
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.units import GB, MB, MBps

# ---------------------------------------------------------------------------
# LRU list properties
# ---------------------------------------------------------------------------

lru_operation = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 4), st.floats(1.0, 500.0),
              st.booleans()),
    st.tuples(st.just("promote"), st.integers(0, 50)),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("balance"), st.just(0)),
)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(lru_operation, min_size=1, max_size=40))
def test_lru_lists_invariants_under_random_operations(operations):
    lists = PageCacheLists()
    clock = [0.0]

    for operation in operations:
        clock[0] += 1.0
        kind = operation[0]
        if kind == "add":
            _, file_index, size, dirty = operation
            lists.inactive.push(f"file{file_index}", dirty, None, size,
                                clock[0], clock[0])
            lists.balance()
        elif kind == "promote":
            # Re-access: the fragment moves to the active list, touched.
            _, index = operation
            if len(lists.inactive) > 0:
                run, offset = located(lists.inactive)[
                    index % len(lists.inactive)]
                promoted = fragment(run, offset)
                lists.inactive.take(run, offset)
                lists.active.push(promoted.filename, promoted.dirty,
                                  run.storage, promoted.size,
                                  promoted.entry_time, clock[0])
                lists.balance()
        elif kind == "remove":
            _, index = operation
            cached = ([(lists.inactive, run, offset)
                       for run, offset in located(lists.inactive)]
                      + [(lists.active, run, offset)
                         for run, offset in located(lists.active)])
            if cached:
                lru, run, offset = cached[index % len(cached)]
                lru.take(run, offset)
        elif kind == "balance":
            lists.balance()

        # Accounting matches the actual block contents.
        lists.assert_consistent()
        # Dirty data never exceeds the total cached data.
        assert lists.dirty_size <= lists.size + 1e-6
        # Per-file accounting sums to the total.
        assert sum(lists.files().values()) == pytest.approx(lists.size)

    # The two-list balance invariant holds after the final balance call.
    lists.balance()
    assert lists.active.size <= 2 * lists.inactive.size + 1e-6


# ---------------------------------------------------------------------------
# Packed rows
# ---------------------------------------------------------------------------

class _StampedList:
    """An :class:`LRUList` checked against a model of its position keys.

    The model gives every pushed fragment the next stamp, keeps it
    through state changes and forgets it on removal; after each step the
    list must hold exactly the model's fragments, in key order, and every
    run's row must hold whole fragments whose keys are the model's.  The
    model marks every fragment, so each row edit must keep the marks in
    step: cleaning carries a mark, a removal drops it.
    """

    def __init__(self):
        self.lru = LRUList()
        self.keys = {}
        self.next_stamp = 0

    def append(self, filename, entry, access, dirty):
        stamp = self.next_stamp
        self.next_stamp += 1
        self.lru.push(filename, dirty, None, 10.0, entry, access)
        run = self.run_of(filename, dirty)
        mark = Mark(run, stamp, access)
        run.register(mark, stamp)
        self.keys[mark] = (access, stamp)
        return mark

    def remove(self, mark):
        run = mark.run
        assert self.lru.take(run, run.offset_of(mark)) is mark
        assert mark.run is None
        del self.keys[mark]

    def clean(self, mark):
        run = mark.run
        self.lru.clean(run, run.offset_of(mark))
        assert not mark.run.dirty

    def run_of(self, filename, dirty):
        index = self.lru._file_runs.get(filename)
        if index is None:
            return None
        return index.dirty if dirty else index.clean

    def check(self):
        self.lru.assert_consistent()
        keys = self.keys
        expected = [keys[mark][1] for mark in sorted(keys, key=keys.get)]
        assert [run.row[offset + 3]
                for run, offset in located(self.lru)] == expected
        for run in self.lru.runs():
            row = run.row
            assert len(row) % WIDTH == 0
            for offset in run.offsets():
                mark = mark_at(run, offset)
                assert mark.run is run and run.offset_of(mark) == offset
                assert keys[mark] == (row[offset + 2], row[offset + 3])


def mark_at(run, offset):
    """The model's mark of the fragment at ``offset`` of ``run``."""
    return run.marks[run.row[offset + 3]]


def marks_of(run):
    """The marks of ``run``'s live fragments, oldest first."""
    return [mark_at(run, offset) for offset in run.offsets()]


def _play(model, operations):
    clock = 0.0
    for operation in operations:
        kind, file_index, arg = operation
        filename = f"file{file_index}"
        if kind in ("append", "append-dirty"):
            # arg < 0 inserts behind the newest access time: a sorted
            # insert, a new front (head-slot reuse) or a tie.
            clock += 1.0
            model.append(filename, clock, clock + min(arg, 0) * 2.5,
                         kind == "append-dirty")
        elif kind == "burst":
            for _ in range(arg):
                clock += 1.0
                model.append(filename, clock, clock, False)
        else:
            kind, _, state = kind.partition("-")
            run = model.run_of(filename, kind == "clean" or state == "dirty")
            if run is not None:
                live = marks_of(run)
                if kind == "carve":
                    # Front carves: past the compaction threshold for
                    # long runs, and the whole run (its death) for short.
                    for mark in live[:arg]:
                        model.remove(mark)
                elif kind == "remove":
                    model.remove(live[arg % len(live)])
                else:
                    model.clean(live[arg % len(live)])
        model.check()


stamp_operation = st.one_of(
    st.tuples(st.sampled_from(["append", "append-dirty"]), st.integers(0, 2),
              st.integers(-3, 1)),
    st.tuples(st.just("burst"), st.integers(0, 2),
              st.integers(1, 2 * _COMPACT_THRESHOLD + 8)),
    st.tuples(st.sampled_from(["carve", "carve-dirty"]), st.integers(0, 2),
              st.integers(1, 2 * _COMPACT_THRESHOLD + 8)),
    st.tuples(st.sampled_from(["remove", "remove-dirty", "clean"]),
              st.integers(0, 2), st.integers(0, 100)),
)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(stamp_operation, min_size=1, max_size=30))
def test_stamp_rows_follow_every_row_edit(operations):
    _play(_StampedList(), operations)


def test_stamp_rows_scripted_edits():
    """Each row edit, forced once, with the rows checked after every step."""
    model = _StampedList()
    # Tail appends, then front carves past the compaction threshold.
    _play(model, [("burst", 0, 2 * _COMPACT_THRESHOLD + 4)])
    run = model.run_of("file0", False)
    _play(model, [("carve", 0, _COMPACT_THRESHOLD + 2)])
    assert run.head == 0
    assert len(run.row) == (_COMPACT_THRESHOLD + 2) * WIDTH
    # A front carve, then an insert older than the new front reuses the
    # consumed head slot.
    _play(model, [("carve", 0, 1)])
    assert run.head == WIDTH
    front = fragment(run, WIDTH)
    mark = model.append("file0", 0.0, front.last_access - 0.5, False)
    model.check()
    assert run.head == 0 and mark_at(run, 0) is mark
    # A sorted insert into the middle, a middle removal and a back pop.
    middle = fragment(run, 5 * WIDTH)
    mark = model.append("file0", 0.0, middle.last_access - 0.5, False)
    model.check()
    assert mark_at(run, 5 * WIDTH) is mark
    model.remove(mark_at(run, 7 * WIDTH))
    model.check()
    model.remove(mark_at(run, len(run.row) - WIDTH))
    model.check()
    # Cleaning dirty fragments in the middle, at the back and at the
    # front of their run: each rejoins the clean run with its old stamp.
    _play(model, [("append-dirty", 0, 0) for _ in range(5)])
    dirty = model.run_of("file0", True)
    model.clean(mark_at(dirty, dirty.head + 2 * WIDTH))
    model.check()
    model.clean(mark_at(dirty, len(dirty.row) - WIDTH))
    model.check()
    model.clean(mark_at(dirty, dirty.head))
    model.check()
    # Run death: carving every fragment of the dirty run retires it.
    _play(model, [("carve-dirty", 0, 10)])
    assert model.run_of("file0", True) is None
    assert dirty._list is None and len(dirty.row) == 0


# ---------------------------------------------------------------------------
# Memory manager properties
# ---------------------------------------------------------------------------

mm_operation = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 3), st.floats(10.0, 2000.0)),
    st.tuples(st.just("write"), st.integers(0, 3), st.floats(10.0, 2000.0)),
    st.tuples(st.just("anon"), st.floats(1.0, 500.0)),
    st.tuples(st.just("release"), st.just(0)),
    st.tuples(st.just("evict"), st.floats(1.0, 2000.0)),
    st.tuples(st.just("flush"), st.floats(1.0, 2000.0)),
)


@settings(max_examples=40, deadline=None)
@given(operations=st.lists(mm_operation, min_size=1, max_size=30))
def test_memory_manager_accounting_invariants(operations):
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    mm = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False))

    def driver():
        for operation in operations:
            kind = operation[0]
            if kind == "read":
                _, file_index, size_mb = operation
                filename = f"file{file_index}"
                amount = size_mb * MB
                # Model an application read: cache what is not cached yet,
                # then read the cached part.
                uncached = max(0.0, amount - mm.cached_amount(filename))
                if uncached > 0 and mm.free_mem >= uncached:
                    mm.add_to_cache(filename, uncached, disk)
                mm.take_from_cache(filename, amount)
            elif kind == "write":
                _, file_index, size_mb = operation
                amount = size_mb * MB
                if mm.free_mem >= amount:
                    mm.put_to_cache(f"file{file_index}", amount, disk)
            elif kind == "anon":
                _, size_mb = operation
                amount = size_mb * MB
                if mm.free_mem >= amount:
                    mm.use_anonymous_memory(amount, owner="app")
            elif kind == "release":
                mm.release_anonymous_memory(owner="app")
            elif kind == "evict":
                _, size_mb = operation
                mm.evict(size_mb * MB)
            elif kind == "flush":
                _, size_mb = operation
                yield from mm.flush(size_mb * MB)

            # Invariants after every operation.
            mm.assert_consistent()
            assert mm.dirty <= mm.cached + 1e-6
            assert mm.cached <= mm.total_memory + 1e-6
            assert mm.anonymous >= 0
            assert (
                mm.lists.active.size
                <= 2 * mm.lists.inactive.size + 1e-6
            )

    process = env.process(driver())
    env.run(until=process)


@settings(max_examples=40, deadline=None)
@given(
    write_amounts=st.lists(st.floats(10.0, 1000.0), min_size=1, max_size=10),
    flush_request=st.floats(1.0, 20000.0),
)
def test_flush_conserves_cached_bytes_and_clears_dirty(write_amounts, flush_request):
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=50 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    mm = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False))

    def driver():
        total_written = 0.0
        for index, amount_mb in enumerate(write_amounts):
            amount = amount_mb * MB
            mm.put_to_cache(f"file{index}", amount, disk)
            total_written += amount
        cached_before = mm.cached
        dirty_before = mm.dirty
        flushed = yield from mm.flush(flush_request * MB)
        # Flushing changes dirtiness, never the amount of cached data.
        assert mm.cached == pytest.approx(cached_before)
        assert flushed == pytest.approx(dirty_before - mm.dirty)
        assert flushed <= dirty_before + 1e-6
        # The disk received exactly the flushed amount.
        assert disk.bytes_written == pytest.approx(flushed)

    process = env.process(driver())
    env.run(until=process)


@settings(max_examples=40, deadline=None)
@given(
    cached_files=st.lists(st.floats(10.0, 1000.0), min_size=1, max_size=8),
    evict_request=st.floats(1.0, 10000.0),
)
def test_evict_frees_exactly_what_it_reports(cached_files, evict_request):
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=50 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    mm = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False))

    for index, amount_mb in enumerate(cached_files):
        mm.add_to_cache(f"file{index}", amount_mb * MB, disk)

    cached_before = mm.cached
    free_before = mm.free_mem
    evicted = mm.evict(evict_request * MB)
    assert evicted <= evict_request * MB + 1e-6
    assert mm.cached == pytest.approx(cached_before - evicted, abs=1e-3)
    assert mm.free_mem == pytest.approx(free_before + evicted, abs=1e-3)
    mm.assert_consistent()


# ---------------------------------------------------------------------------
# Block splitting properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    size=st.floats(min_value=1.0, max_value=1e12),
    fraction=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_block_split_conserves_size_and_metadata(size, fraction):
    # A foreground flush of ``first_size`` bytes splits the dirty
    # fragment into a clean part of exactly that size and a dirty rest.
    first_size = size * fraction
    if not (BYTE_EPSILON < first_size < size - BYTE_EPSILON):
        return  # within the byte tolerance a flush does not split
    env = Environment()
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=2e12)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    mm = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False))
    env._now = 3.0
    mm.put_to_cache("f", size, disk)
    per_device, flushed = mm.select_flush(first_size)
    assert flushed == first_size and per_device == {disk: first_size}
    first, second = fragments(mm.lists.inactive)
    assert first == Fragment("f", first_size, 3.0, 3.0, False)
    assert second == Fragment("f", size - first_size, 3.0, 3.0, True)
    assert first.size + second.size == pytest.approx(size)
    (run,) = [run for run in mm.lists.inactive.runs() if run.dirty]
    assert run.storage is disk
    mm.assert_consistent()
