"""Unit tests for the LRU lists and the two-list page cache structure."""

import pytest

from lru_rows import Fragment, fragment, fragments, marked, push
from repro.errors import CacheConsistencyError
from repro.pagecache.extents import Mark
from repro.pagecache.lru import LRUList, PageCacheLists


def first_of(cursor):
    """The file of the first fragment a state cursor hands out (none
    consumed)."""
    try:
        run = cursor.next()
        return None if run is None else run.filename
    finally:
        cursor.close()


def pop(lru):
    """Take the least recently used fragment of ``lru`` and return it."""
    run = lru.front_run()
    popped = fragment(run, run.head)
    lru.take(run, run.head)
    return popped


class TestLRUList:
    def test_append_accumulates_sizes(self):
        lru = LRUList()
        push(lru, size=10, dirty=True)
        push(lru, size=20)
        assert lru.size == 30
        assert lru.dirty_size == 10
        assert lru.clean_size == 20
        assert len(lru) == 2

    def test_append_keeps_access_order(self):
        lru = LRUList()
        push(lru, access=1.0)
        push(lru, access=2.0)
        assert [f.last_access for f in fragments(lru)] == [1.0, 2.0]

    def test_out_of_order_append_inserts_ordered(self):
        lru = LRUList()
        push(lru, access=5.0)
        push(lru, access=1.0)  # older access time: must land first
        assert [f.last_access for f in fragments(lru)] == [1.0, 5.0]
        lru.assert_consistent()

    def test_remove_updates_accounting(self):
        lru = LRUList()
        push(lru, size=10, dirty=True)
        (run,) = lru.runs()
        lru.take(run, run.head)
        assert lru.size == 0
        assert lru.dirty_size == 0
        assert len(lru) == 0
        assert lru.runs() == []

    def test_pop_lru_returns_oldest(self):
        lru = LRUList()
        push(lru, "old", access=1.0)
        push(lru, "new", access=2.0)
        assert pop(lru).filename == "old"
        assert [f.filename for f in fragments(lru)] == ["new"]

    def test_front_run_of_an_empty_list_is_none(self):
        lru = LRUList()
        assert lru.front_run() is None
        assert first_of(lru.dirty_cursor()) is None
        assert first_of(lru.clean_cursor()) is None

    def test_mark_clean(self):
        lru = LRUList()
        push(lru, size=10, entry=1.0, access=2.0, dirty=True)
        (run,) = lru.runs()
        lru.clean(run, run.head)
        assert fragments(lru) == [Fragment("f", 10.0, 1.0, 2.0, False)]
        assert lru.dirty_size == 0
        assert lru.size == 10
        lru.assert_consistent()

    def test_mark_clean_of_foreign_block_raises(self):
        # The flusher finds the fragment a mark holds with ``offset_of``
        # before it cleans it; a mark of no fragment of the run raises.
        lru = LRUList()
        push(lru, dirty=True)
        (run,) = lru.runs()
        with pytest.raises(CacheConsistencyError):
            run.offset_of(Mark(run, 99.0, 0.0))

    def test_per_file_accounting(self):
        lru = LRUList()
        push(lru, "a", size=10)
        push(lru, "b", size=20)
        push(lru, "a", size=5)
        assert lru.cached_of_file("a") == 15
        assert lru.cached_of_file("b") == 20
        assert lru.cached_of_file("missing") == 0
        assert lru.files() == {"a": 15, "b": 20}

    def test_blocks_of_file(self):
        # The file cursor hands out one file's fragments in LRU order.
        lru = LRUList()
        push(lru, "a", access=1.0)
        push(lru, "b", access=2.0)
        push(lru, "a", access=3.0, dirty=True)
        cursor = lru.file_cursor("a")
        seen = []
        run = cursor.next()
        while run is not None:
            seen.append(fragment(run, run.head))
            lru.take(run, run.head)
            run = cursor.next()
        assert seen == [Fragment("a", 10.0, 0.0, 1.0, False),
                        Fragment("a", 10.0, 0.0, 3.0, True)]
        assert [f.filename for f in fragments(lru)] == ["b"]

    def test_dirty_and_clean_block_queries(self):
        lru = LRUList()
        push(lru, "a", dirty=True)
        push(lru, "b", dirty=False)
        push(lru, "c", dirty=True)
        assert [f.filename for f in fragments(lru) if f.dirty] == ["a", "c"]
        assert [f.filename for f in fragments(lru) if not f.dirty] == ["b"]
        # The consuming cursors hand out one state in LRU order and skip
        # excluded files.
        assert first_of(lru.dirty_cursor()) == "a"
        assert first_of(lru.dirty_cursor(exclude_file="a")) == "c"
        assert first_of(lru.clean_cursor()) == "b"
        assert first_of(lru.clean_cursor(exclude_files=["b"])) is None
        lru.assert_consistent()

    def test_expired_blocks(self):
        lru = LRUList()
        push(lru, "a", entry=0.0, dirty=True)
        push(lru, "b", entry=50.0, dirty=True)
        push(lru, "c", entry=0.0, dirty=False)
        marks = lru.expired_blocks(now=40.0, expiration=30.0)
        assert [f.filename for f in marked(marks)] == ["a"]

    def test_expired_blocks_boundary(self):
        # Data exactly ``expiration`` seconds old has expired.
        lru = LRUList()
        push(lru, "d", entry=0.0, dirty=True)
        push(lru, "c", entry=0.0, dirty=False)
        marks = lru.expired_blocks(now=30.0, expiration=30.0)
        assert [f.filename for f in marked(marks)] == ["d"]
        assert lru.expired_blocks(now=29.5, expiration=30.0) == []

    def test_expired_blocks_are_not_an_lru_prefix(self):
        # B was written at t=5 and C at t=8; C was read again at t=15 and
        # B at t=20.  A re-read moves dirty data to the recent end but
        # keeps its entry time, so the dirty order is C, then B.  At t=37
        # with a 30 s expiry only B has expired, and it sits behind the
        # unexpired C: a scan that stopped at the first fragment too young
        # to expire would miss it.
        lru = LRUList()
        push(lru, "B", size=100, entry=5.0, access=20.0, dirty=True)
        push(lru, "C", size=100, entry=8.0, access=15.0, dirty=True)
        assert [f.filename for f in fragments(lru)] == ["C", "B"]
        marks = lru.expired_blocks(now=37.0, expiration=30.0)
        assert [f.filename for f in marked(marks)] == ["B"]

    def test_assert_consistent_detects_drift(self):
        lru = LRUList()
        push(lru, size=10)
        (run,) = lru.runs()
        run.row[run.head] = 20.0  # corrupt the row behind the list's back
        with pytest.raises(CacheConsistencyError):
            lru.assert_consistent()


class TestExtentRuns:
    """Consecutive same-file, same-state fragments share one extent run.

    Coalescing is structural and lossless: joining a run moves the
    fragment — its exact size, entry time and access time travel with it
    untouched — so it is always on; there is no knob and no arithmetic.
    """

    def test_sequential_stream_coalesces_into_one_run(self):
        lru = LRUList()
        for step in range(5):
            push(lru, "a", size=10, entry=float(step))
        assert len(lru) == 5  # fragments keep their identity...
        assert lru.run_count == 1  # ...but cost a single list node
        assert lru.merges == 4
        assert lru.cached_of_file("a") == 50
        lru.assert_consistent()

    def test_fragment_sizes_survive_coalescing_exactly(self):
        # The sizes of coalesced fragments are never summed or rewritten:
        # taking them back out yields the exact values that went in.
        lru = LRUList()
        sizes = [10.125, 0.375, 7.25]
        for step, size in enumerate(sizes):
            push(lru, "a", size=size, access=float(step))
        assert lru.run_count == 1
        assert [pop(lru).size for _ in sizes] == sizes

    def test_dirty_and_clean_fragments_never_share_a_run(self):
        lru = LRUList()
        push(lru, "a", size=10, access=1.0, dirty=True)
        push(lru, "a", size=10, access=2.0, dirty=False)
        push(lru, "a", size=10, access=3.0, dirty=True)
        # One dirty run and one clean run: state is a hard boundary, but
        # the dirty fragments straddling the clean one still share a row.
        assert lru.run_count == 2
        assert lru.dirty_size == 20
        assert [f.dirty for f in fragments(lru)] == [True, False, True]
        lru.assert_consistent()

    def test_different_files_never_share_a_run(self):
        lru = LRUList()
        push(lru, "a", size=10, access=1.0)
        push(lru, "b", size=10, access=1.0)
        assert lru.run_count == 2
        assert lru.merges == 0

    def test_interleaved_files_keep_one_run_each(self):
        # b's fragment lands between a's fragments in LRU order; since
        # runs are ordered by position key, not by adjacency links,
        # neither file fragments into extra runs — this is what keeps
        # concurrent chunk streams cheap.
        lru = LRUList()
        push(lru, "a", size=10, access=1.0)
        push(lru, "a", size=10, access=3.0)
        assert lru.run_count == 1
        push(lru, "b", size=10, access=2.0)
        assert lru.run_count == 2
        assert [f.filename for f in fragments(lru)] == ["a", "b", "a"]
        # Consumption still interleaves by exact LRU position.
        assert [pop(lru).filename for _ in range(3)] == ["a", "b", "a"]
        lru.assert_consistent()

    def test_mark_clean_joins_the_clean_neighbour(self):
        # A flush split leaves a clean and a dirty fragment side by side;
        # cleaning the dirty one re-joins the clean run structurally.
        lru = LRUList()
        push(lru, "a", size=30, entry=2.0, access=4.0, dirty=True)
        (original,) = lru.runs()
        lru.take(original, original.head)
        push(lru, "a", size=10, entry=2.0, access=4.0, dirty=False)
        push(lru, "a", size=20, entry=2.0, access=4.0, dirty=True)
        assert lru.run_count == 2
        (rest,) = [run for run in lru.runs() if run.dirty]
        lru.clean(rest, rest.head)
        assert lru.run_count == 1
        assert len(lru) == 2  # both fragments survive, sizes untouched
        assert [f.size for f in fragments(lru)] == [10.0, 20.0]
        assert lru.size == 30
        assert lru.dirty_size == 0
        lru.assert_consistent()

    def test_totals_are_exactly_the_sum_of_run_lengths(self):
        # With exact fragment sizes the accounting needs no slack on
        # integer-byte workloads: the incrementally maintained totals
        # equal the left-to-right sum over the runs, exactly.
        lru = LRUList()
        for step in range(8):
            push(lru, f"f{step % 2}", size=3 * step + 1, access=float(step),
                 dirty=step % 3 == 0)
        total = 0.0
        dirty = 0.0
        for run in lru.runs():
            length = run.length()
            total += length
            if run.dirty:
                dirty += length
        assert lru.size == total
        assert lru.dirty_size == dirty


class TestPageCacheLists:
    def test_new_blocks_enter_inactive(self, memory_manager, disk):
        memory_manager.add_to_cache("f", 10.0, disk)
        lists = memory_manager.lists
        assert lists.inactive.size == 10
        assert lists.active.size == 0
        assert lists.size == 10

    def test_promote_moves_to_active_and_touches(self, env, memory_manager,
                                                 disk):
        mm = memory_manager
        mm.add_to_cache("big", 100.0, disk)  # keeps the ratio at bay
        env._now = 1.0
        mm.add_to_cache("f", 10.0, disk)
        env._now = 9.0
        assert mm.take_from_cache("f", 10.0) == 10.0
        assert fragments(mm.lists.active) == [
            Fragment("f", 10.0, 1.0, 9.0, False)]
        assert mm.lists.inactive.cached_of_file("f") == 0
        mm.assert_consistent()

    def test_promote_with_balancing_keeps_ratio(self, env, memory_manager,
                                                disk):
        mm = memory_manager
        env._now = 1.0
        mm.add_to_cache("f", 12.0, disk)
        env._now = 9.0
        mm.take_from_cache("f", 12.0)
        # Exactly the excess is demoted back: 8 bytes stay active, 4 inactive.
        lists = mm.lists
        assert lists.active.size == pytest.approx(8.0)
        assert lists.inactive.size == pytest.approx(4.0)
        assert lists.size == pytest.approx(12.0)

    def test_cached_of_file_spans_both_lists(self):
        lists = PageCacheLists()
        push(lists.inactive, "a", size=10, access=1.0)
        push(lists.active, "a", size=5, access=3.0)
        lists.balance()
        assert lists.cached_of_file("a") == 15
        assert lists.files() == {"a": 15}

    def test_balance_keeps_active_at_most_twice_inactive(self):
        lists = PageCacheLists()
        # Start with a small inactive list and a growing active list.
        push(lists.inactive, "i", size=10, access=0.0)
        for index in range(6):
            push(lists.active, f"a{index}", size=50, entry=float(index + 1),
                 access=float(index + 10))
            lists.balance()
        assert lists.active.size <= 2 * lists.inactive.size + 1e-6
        assert lists.size == pytest.approx(10 + 6 * 50)
        lists.assert_consistent()

    def test_balance_moves_least_recently_used_first(self):
        lists = PageCacheLists()
        push(lists.inactive, "i", size=10, access=0.0)
        push(lists.active, "old", size=100, entry=1.0, access=11.0)
        push(lists.active, "new", size=100, entry=2.0, access=12.0)
        lists.balance()
        # The demoted data must come from the least recently used fragment.
        assert lists.inactive.cached_of_file("old") > 0
        assert lists.inactive.cached_of_file("new") == 0
        assert lists.active.size <= 2 * lists.inactive.size + 1e-6

    def test_balance_disabled(self):
        # Balancing runs only when ``balance()`` is called: pushing rows
        # never rebalances, so a test can build an unbalanced state.
        lists = PageCacheLists()
        push(lists.inactive, "i", size=1)
        push(lists.active, "big", size=1000, access=5.0)
        assert lists.active.size == 1000  # no demotion
        assert lists.balance() == pytest.approx(998 / 3)
        assert lists.active.size <= 2 * lists.inactive.size + 1e-6

    def test_remove_from_either_list(self):
        lists = PageCacheLists()
        push(lists.inactive, "a", size=10)
        push(lists.active, "b", size=5)
        for lru in (lists.inactive, lists.active):
            run = lru.front_run()
            lru.take(run, run.head)
        assert lists.size == 0
        assert lists.files() == {}
        lists.assert_consistent()

    def test_dirty_size_aggregation(self):
        lists = PageCacheLists()
        push(lists.inactive, "a", size=10, dirty=True)
        push(lists.active, "b", size=5, access=1.0, dirty=True)
        lists.balance()
        assert lists.dirty_size == 15
        assert lists.clean_size == 0
