"""Edge-case tests for the extent-run page cache core.

The extent representation must be *lossless*: fragments keep their exact
byte sizes through every structural event — coalescing, state changes,
partial flushes, partial evictions, pooled run reuse — and the byte
totals the accounting reports are exactly the sum of the run lengths (no
float slack needed on integer-sized workloads).  These tests drive the
true state boundaries one by one.
"""

from __future__ import annotations

import pytest

from lru_rows import Fragment, fragment, fragments, marked, push
from repro.errors import CacheConsistencyError
from repro.pagecache import MemoryManager, PageCacheConfig
from repro.pagecache.lru import LRUList, PageCacheLists
from repro.pagecache.stats import ExtentOccupancy
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.units import GB, MB, MBps


def exact_totals(lru: LRUList):
    """(size, dirty) recomputed as the plain sum of the run lengths."""
    total = 0.0
    dirty = 0.0
    for run in lru.runs():
        length = run.length()
        total += length
        if run.dirty:
            dirty += length
    return total, dirty


@pytest.fixture
def mm_setup(env):
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    manager = MemoryManager(env, memory,
                            PageCacheConfig(periodic_flushing=False))
    return env, manager, disk


class TestPartialFlushSplits:
    """A foreground flush that stops mid-run splits at the exact byte."""

    def test_partial_flush_carves_the_dirty_run(self, mm_setup, runner):
        env, mm, disk = mm_setup
        for step in range(4):
            env._now = float(step)
            mm.add_to_cache("f", 100.0 * MB, disk, dirty=True)
        assert mm.lists.inactive.run_count == 1
        # Flush two and a half fragments' worth.
        flushed = runner(env, mm.flush(250.0 * MB))
        assert flushed == 250.0 * MB
        # The flushed bytes are clean, the remainder dirty; the split
        # fragment's halves carry exactly the split sizes.
        assert mm.dirty == 150.0 * MB
        assert mm.cached == 400.0 * MB
        sizes = sorted(f.size for f in fragments(mm.lists.inactive)
                       if f.dirty)
        assert sizes == [50.0 * MB, 100.0 * MB]
        mm.lists.assert_consistent()
        total, dirty = exact_totals(mm.lists.inactive)
        assert mm.lists.inactive.size == total
        assert mm.lists.inactive.dirty_size == dirty

    def test_background_flush_cleans_a_mid_run_fragment(self, mm_setup,
                                                        runner):
        env, mm, disk = mm_setup
        lru = mm.lists.inactive
        # Three dirty fragments; the middle one is old enough to expire.
        push(lru, "f", 10.0, entry=100.0, access=100.0, dirty=True,
             storage=disk)
        push(lru, "f", 20.0, entry=0.0, access=101.0, dirty=True,
             storage=disk)
        push(lru, "f", 30.0, entry=102.0, access=102.0, dirty=True,
             storage=disk)
        env._now = 103.0
        (mark,) = lru.expired_blocks(now=103.0, expiration=50.0)
        assert [f.size for f in marked([mark])] == [20.0]
        # Cleaning the middle fragment moves it to the clean run; the
        # dirty neighbours stay in one dirty run (no split needed: order
        # lives in the position keys).
        run = mark.run
        lru.clean(run, run.offset_of(mark))
        assert lru.dirty_size == 40.0
        assert lru.run_count == 2
        assert [f.size for f in fragments(lru) if f.dirty] == [10.0, 30.0]
        assert [f.size for f in fragments(lru) if not f.dirty] == [20.0]
        assert marked([mark]) == [Fragment("f", 20.0, 0.0, 101.0, False)]
        # Byte-exact totals, no tolerance.
        total, dirty = exact_totals(lru)
        assert lru.size == total == 60.0
        assert lru.dirty_size == dirty == 40.0
        lru.assert_consistent()


class TestEvictionCarving:
    """Eviction consumes clean runs front-first, splitting at the byte."""

    def test_partial_eviction_splits_the_front_fragment(self, mm_setup):
        env, mm, disk = mm_setup
        for step in range(3):
            env._now = float(step)
            mm.add_to_cache("f", 100.0 * MB, disk, dirty=False)
        evicted = mm.evict(150.0 * MB)
        assert evicted == 150.0 * MB
        assert mm.cached == 150.0 * MB
        # The carved fragment keeps the exact remainder.
        sizes = [f.size for f in fragments(mm.lists.inactive) if not f.dirty]
        assert sizes == [50.0 * MB, 100.0 * MB]
        mm.lists.assert_consistent()

    def test_eviction_interleaves_files_in_exact_lru_order(self, mm_setup):
        env, mm, disk = mm_setup
        # a and b interleave in time; each still occupies one run.
        for step, name in enumerate(["a", "b", "a", "b"]):
            env._now = float(step)
            mm.add_to_cache(name, 10.0, disk, dirty=False)
        assert mm.lists.inactive.run_count == 2
        # Evicting 25 bytes must take a[0], b[1], and half of a[2].
        evicted = mm.evict(25.0)
        assert evicted == 25.0
        assert mm.cached_amount("a") == 5.0
        assert mm.cached_amount("b") == 10.0
        mm.lists.assert_consistent()

    def test_excluded_file_survives_and_stays_reachable(self, mm_setup):
        env, mm, disk = mm_setup
        mm.add_to_cache("keep", 10.0, disk, dirty=False)
        env._now = 1.0
        mm.add_to_cache("evictme", 10.0, disk, dirty=False)
        assert mm.evict(100.0, exclude_file="keep") == 10.0
        assert mm.cached_amount("keep") == 10.0
        # The held-aside run must return to the heap: a later eviction
        # without the exclusion reclaims it.
        assert mm.evict(100.0) == 10.0
        assert mm.cached == 0.0
        mm.lists.assert_consistent()


class TestStateBoundaries:
    def test_adjacent_dirty_and_clean_runs_never_merge(self, mm_setup):
        env, mm, disk = mm_setup
        mm.add_to_cache("f", 10.0, disk, dirty=False)
        env._now = 1.0
        mm.add_to_cache("f", 10.0, disk, dirty=True)
        lru = mm.lists.inactive
        assert lru.run_count == 2
        states = {run.dirty for run in lru.runs()}
        assert states == {True, False}
        lru.assert_consistent()

    def test_redirty_of_a_clean_sub_range_coexists(self, mm_setup, runner):
        env, mm, disk = mm_setup
        # A fully clean cached file...
        mm.add_to_cache("f", 100.0, disk, dirty=False)
        # ... gets new dirty data written over part of its range (the
        # model appends dirty blocks; it never re-dirties in place).
        mm.put_to_cache("f", 40.0, disk)
        lru = mm.lists.inactive
        assert lru.run_count == 2
        assert lru.dirty_size == 40.0
        assert lru.size == 140.0
        # Flushing the re-dirtied range merges it back into clean data.
        runner(env, mm.flush(40.0))
        assert lru.run_count == 1
        assert lru.dirty_size == 0.0
        total, dirty = exact_totals(lru)
        assert lru.size == total == 140.0
        assert dirty == 0.0
        lru.assert_consistent()


class TestZeroLengthInvariants:
    def test_no_empty_runs_after_full_consumption(self, mm_setup):
        env, mm, disk = mm_setup
        mm.add_to_cache("f", 10.0, disk, dirty=False)
        assert mm.evict(10.0) == 10.0
        assert mm.lists.inactive.run_count == 0
        assert mm.lists.run_count == 0
        assert mm.lists.fragment_count == 0
        mm.lists.assert_consistent()

    def test_assert_consistent_rejects_stored_empty_run(self):
        lru = LRUList()
        push(lru, "f", 10.0)
        (run,) = lru.runs()
        # Corrupt the run behind the list's back.
        del run.row[:]
        run.head = 0
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()

    def test_assert_consistent_rejects_a_misaligned_stamp_row(self):
        lru = LRUList()
        push(lru, "f", 10.0)
        push(lru, "f", 10.0, access=1.0)
        lru.assert_consistent()
        # Whole fragments of four doubles, consumed slots included: a
        # stray double shifts every stamp after it.
        (run,) = lru.runs()
        run.row.append(99.0)
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()

    def test_fragment_sizes_must_stay_positive(self):
        lru = LRUList()
        push(lru, "f", 10.0)
        (run,) = lru.runs()
        run.row[run.head] = 0.0
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()


class TestExactAccounting:
    """Integer-sized workloads need no float slack at all."""

    def test_totals_are_exactly_the_sum_of_run_lengths(self, mm_setup,
                                                       runner):
        env, mm, disk = mm_setup
        for step in range(8):
            env._now = float(step)
            mm.add_to_cache(f"f{step % 3}", float(64 * MB), disk,
                            dirty=step % 2 == 0)
        runner(env, mm.flush(96.0 * MB))
        mm.evict(32.0 * MB)
        for lru in (mm.lists.inactive, mm.lists.active):
            total, dirty = exact_totals(lru)
            assert lru.size == total
            assert lru.dirty_size == dirty
        assert mm.cached == (mm.lists.inactive.size
                             + mm.lists.active.size)

    def test_read_consumption_is_byte_exact(self, mm_setup):
        env, mm, disk = mm_setup
        for step in range(4):
            env._now = float(step)
            mm.add_to_cache("f", float(10 * MB), disk, dirty=False)
        env._now = 10.0
        served = mm.take_from_cache("f", float(25 * MB))
        assert served == float(25 * MB)
        # 25 MB re-accessed (merged into one active fragment), 15 MB left
        # behind: 5 MB carved from the third fragment plus the fourth.
        assert mm.cached_amount("f") == float(40 * MB)
        assert mm.lists.active.cached_of_file("f") >= float(25 * MB)
        sizes = [f.size for f in fragments(mm.lists.inactive, "f")]
        assert sizes == [float(5 * MB), float(10 * MB)]
        mm.lists.assert_consistent()


class TestRunPooling:
    """Dead runs are never reused; their references stay fenced."""

    def test_killed_run_is_never_reused(self):
        lru = LRUList()
        push(lru, "a", 10.0, access=0.0)
        (run,) = lru.runs()
        lru.take(run, run.head)
        assert run._list is None
        assert len(run.row) == 0 and run.head == 0  # the row is cleared
        push(lru, "a", 5.0, access=1.0)
        push(lru, "b", 5.0, access=2.0)
        assert all(live is not run for live in lru.runs())
        assert run._list is None  # dead for good
        lru.assert_consistent()

    def test_stale_file_cursor_sees_reuse_as_exhaustion(self):
        lru = LRUList()
        push(lru, "a", 10.0, access=0.0)
        cursor = lru.file_cursor("a")
        (run,) = lru.runs()
        lru.take(run, run.head)  # the run dies under the cursor
        push(lru, "a", 5.0, access=1.0)  # a new run for a
        assert cursor.next() is None

    def test_file_cursor_skips_fragments_linked_after_creation(self):
        lru = LRUList()
        push(lru, "a", 10.0, access=0.0)
        cursor = lru.file_cursor("a")
        push(lru, "a", 20.0, access=1.0)
        run = cursor.next()
        assert fragment(run, run.head) == Fragment("a", 10.0, 0.0, 0.0, False)
        lru.take(run, run.head)
        # The second fragment was linked after the snapshot bound.
        assert cursor.next() is None


class TestOccupancy:
    def test_extent_occupancy_reports_structure(self, mm_setup):
        env, mm, disk = mm_setup
        for step in range(10):
            env._now = float(step)
            mm.add_to_cache("stream", 10.0, disk, dirty=False)
        occupancy = ExtentOccupancy.of(mm.lists)
        assert occupancy.runs == 1
        assert occupancy.fragments == 10
        assert occupancy.merges == 9
        assert occupancy.fragments_per_run == pytest.approx(10.0)
        as_dict = occupancy.as_dict()
        assert as_dict["runs"] == 1
        assert as_dict["fragments"] == 10


class TestBalanceAcrossRuns:
    def test_demotion_carves_the_global_lru_front(self):
        lists = PageCacheLists()
        # Fill inactive, promote its front six times, and let balancing
        # demote exactly the excess from the least recently used end.
        for step in range(6):
            push(lists.inactive, f"f{step % 2}", 30.0, access=float(step))
        inactive, active = lists.inactive, lists.active
        for step in range(6):
            run = inactive.front_run()
            size, entry_time = run.row[run.head], run.row[run.head + 1]
            inactive.take(run, run.head)
            active.push(run.filename, False, None, size, entry_time,
                        10.0 + step)
            lists.balance()
            assert active.size <= 2 * inactive.size + 1e-6
        total = lists.inactive.size + lists.active.size
        assert total == pytest.approx(180.0)
        lists.assert_consistent()


class TestPackedRows:
    """Fragments are numbers in their run's row; handles are held."""

    def test_a_fragment_is_four_doubles_of_its_run_row(self, mm_setup):
        env, mm, disk = mm_setup
        for step in range(3):
            env._now = float(step)
            mm.add_to_cache("f", 10.0 * (step + 1), disk, dirty=True)
        (run,) = mm.lists.inactive.runs()
        assert (run.filename, run.dirty, run.storage) == ("f", True, disk)
        assert list(run.row) == [10.0, 0.0, 0.0, 0.0,
                                 20.0, 1.0, 1.0, 1.0,
                                 30.0, 2.0, 2.0, 2.0]
        assert run.marks is None  # no flusher pass holds a fragment

    def test_a_handle_is_registered_only_while_held(self):
        # A flusher mark is registered from the expiry scan until the
        # flusher reaches it and unregisters it.
        lru = LRUList()
        push(lru, "f", 10.0, dirty=True)
        (run,) = lru.runs()
        assert run.marks is None
        (mark,) = lru.expired_blocks(now=30.0, expiration=30.0)
        assert mark.run is run and run.marks == {mark.stamp: mark}
        assert run.offset_of(mark) == run.head
        lru.assert_consistent()
        assert run.unregister(mark.stamp) is mark
        assert run.marks is None and mark.run is None
        lru.assert_consistent()

    def test_a_file_keeps_one_storage_per_cache(self, mm_setup):
        env, mm, disk = mm_setup
        other = Disk.symmetric(env, "other", 100 * MBps)
        mm.add_to_cache("f", 10.0, disk)
        with pytest.raises(CacheConsistencyError):
            mm.add_to_cache("f", 10.0, other)
        mm.lists.assert_consistent()


class TestMarks:
    """A flusher mark follows its fragment through the three whole moves
    (a read promotion, a ``balance`` demotion and cleaning) and is
    dropped by any split, eviction or invalidation."""

    @staticmethod
    def mark_all(mm):
        """Mark every dirty fragment, as a flusher pass with no expiry
        delay would."""
        now = mm.env.now
        return (mm.lists.inactive.expired_blocks(now, 0.0)
                + mm.lists.active.expired_blocks(now, 0.0))

    def test_a_read_promotion_carries_the_mark(self, mm_setup):
        env, mm, disk = mm_setup
        mm.add_to_cache("big", 1000.0, disk)  # keeps balance from demoting
        mm.put_to_cache("f", 10.0, disk)
        (mark,) = self.mark_all(mm)
        env._now = 5.0
        assert mm.take_from_cache("f", 10.0) == 10.0
        assert mark.run._list is mm.lists.active
        assert marked([mark]) == [Fragment("f", 10.0, 0.0, 5.0, True)]
        mm.assert_consistent()

    def test_a_whole_demotion_carries_the_mark(self):
        lists = PageCacheLists()
        push(lists.inactive, "i", size=10)
        push(lists.active, "d", size=30, access=1.0, dirty=True)
        push(lists.active, "e", size=100, access=2.0)
        (mark,) = lists.active.expired_blocks(now=0.0, expiration=0.0)
        # 110 bytes of excess: d's whole fragment and a part of e's go.
        lists.balance()
        assert mark.run._list is lists.inactive
        assert marked([mark]) == [Fragment("d", 30.0, 0.0, 1.0, True)]
        lists.assert_consistent()

    def test_cleaning_carries_the_mark(self):
        lru = LRUList()
        push(lru, "f", size=10, access=1.0, dirty=True)
        push(lru, "f", size=20, access=2.0, dirty=True)
        first, second = lru.expired_blocks(now=0.0, expiration=0.0)
        run = second.run
        lru.clean(run, run.offset_of(second))
        assert second.run is not run and not second.run.dirty
        assert marked([first, second]) == [
            Fragment("f", 10.0, 0.0, 1.0, True),
            Fragment("f", 20.0, 0.0, 2.0, False)]
        lru.assert_consistent()

    def test_a_split_demotion_drops_the_mark(self):
        lists = PageCacheLists()
        push(lists.inactive, "i", size=10)
        push(lists.active, "d", size=100, access=1.0, dirty=True)
        (mark,) = lists.active.expired_blocks(now=0.0, expiration=0.0)
        lists.balance()  # demotes 80 / 3 bytes of d's fragment
        assert mark.run is None
        assert lists.active.cached_of_file("d") > 0
        lists.assert_consistent()

    def test_a_flush_split_drops_the_mark(self, mm_setup, runner):
        env, mm, disk = mm_setup
        mm.put_to_cache("f", 100.0, disk)
        (mark,) = self.mark_all(mm)
        assert runner(env, mm.flush(50.0)) == 50.0
        assert mark.run is None
        mm.assert_consistent()

    def test_eviction_drops_the_mark(self, mm_setup, runner):
        env, mm, disk = mm_setup
        mm.put_to_cache("f", 100.0, disk)
        (mark,) = self.mark_all(mm)
        assert runner(env, mm.flush(100.0)) == 100.0  # cleaned: carried
        assert mark.run is not None
        assert mm.evict(100.0) == 100.0
        assert mark.run is None
        mm.assert_consistent()

    def test_invalidation_drops_the_mark(self, mm_setup):
        env, mm, disk = mm_setup
        mm.put_to_cache("f", 100.0, disk)
        (mark,) = self.mark_all(mm)
        assert mm.invalidate_file("f") == 100.0
        assert mark.run is None
        mm.assert_consistent()

    def test_assert_consistent_detects_a_stale_mark(self):
        lru = LRUList()
        push(lru, "f", size=10, dirty=True)
        (mark,) = lru.expired_blocks(now=0.0, expiration=0.0)
        mark.last_access = 5.0  # out of step with its fragment's key
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()
