"""Unit tests for the LRU lists and the two-list page cache structure."""

import pytest

from repro.errors import CacheConsistencyError
from repro.pagecache.block import Block
from repro.pagecache.lru import LRUList, PageCacheLists


def make_block(filename="f", size=10.0, entry=0.0, access=None, dirty=False):
    return Block(filename, size, entry_time=entry, last_access=access, dirty=dirty)


def first_of(cursor):
    """The first fragment a state cursor hands out (none consumed)."""
    try:
        run = cursor.next()
        return None if run is None else run.block(run.head)
    finally:
        cursor.close()


class TestLRUList:
    def test_append_accumulates_sizes(self):
        lru = LRUList()
        lru.append(make_block(size=10, dirty=True))
        lru.append(make_block(size=20))
        assert lru.size == 30
        assert lru.dirty_size == 10
        assert lru.clean_size == 20
        assert len(lru) == 2

    def test_append_keeps_access_order(self):
        lru = LRUList()
        first = make_block(access=1.0)
        second = make_block(access=2.0)
        lru.append(first)
        lru.append(second)
        assert lru.blocks == [first, second]

    def test_out_of_order_append_inserts_ordered(self):
        lru = LRUList()
        newer = make_block(access=5.0)
        older = make_block(access=1.0)
        lru.append(newer)
        lru.append(older)  # older access time: must land before `newer`
        assert lru.blocks == [older, newer]

    def test_remove_updates_accounting(self):
        lru = LRUList()
        block = make_block(size=10, dirty=True)
        lru.append(block)
        lru.remove(block)
        assert lru.size == 0
        assert lru.dirty_size == 0
        assert len(lru) == 0

    def test_pop_lru_returns_oldest(self):
        lru = LRUList()
        old = make_block(access=1.0)
        new = make_block(access=2.0)
        lru.append(old)
        lru.append(new)
        assert lru.pop_lru() is old

    def test_pop_lru_on_empty_list_raises(self):
        with pytest.raises(CacheConsistencyError):
            LRUList().pop_lru()

    def test_mark_clean(self):
        lru = LRUList()
        block = make_block(size=10, dirty=True)
        lru.append(block)
        lru.mark_clean(block)
        assert block.dirty is False
        assert lru.dirty_size == 0
        assert lru.size == 10

    def test_mark_clean_of_foreign_block_raises(self):
        lru = LRUList()
        with pytest.raises(CacheConsistencyError):
            lru.mark_clean(make_block())

    def test_per_file_accounting(self):
        lru = LRUList()
        lru.append(make_block("a", size=10))
        lru.append(make_block("b", size=20))
        lru.append(make_block("a", size=5))
        assert lru.cached_of_file("a") == 15
        assert lru.cached_of_file("b") == 20
        assert lru.cached_of_file("missing") == 0
        assert lru.files() == {"a": 15, "b": 20}

    def test_blocks_of_file(self):
        lru = LRUList()
        a1 = make_block("a", access=1.0)
        b = make_block("b", access=2.0)
        a2 = make_block("a", access=3.0)
        for block in (a1, b, a2):
            lru.append(block)
        assert lru.blocks_of_file("a") == [a1, a2]

    def test_dirty_and_clean_block_queries(self):
        lru = LRUList()
        dirty_a = make_block("a", dirty=True)
        clean_b = make_block("b", dirty=False)
        dirty_c = make_block("c", dirty=True)
        for block in (dirty_a, clean_b, dirty_c):
            lru.append(block)
        assert [block for block in lru.blocks if block.dirty] == [dirty_a, dirty_c]
        assert [block for block in lru.blocks if not block.dirty] == [clean_b]
        # The consuming cursors hand out one state in LRU order and skip
        # excluded files.
        assert first_of(lru.dirty_cursor()) is dirty_a
        assert first_of(lru.dirty_cursor(exclude_file="a")) is dirty_c
        assert first_of(lru.clean_cursor()) is clean_b
        assert first_of(lru.clean_cursor(exclude_files=["b"])) is None
        lru.assert_consistent()

    def test_expired_blocks(self):
        lru = LRUList()
        old_dirty = make_block("a", entry=0.0, dirty=True)
        new_dirty = make_block("b", entry=50.0, dirty=True)
        old_clean = make_block("c", entry=0.0, dirty=False)
        for block in (old_dirty, new_dirty, old_clean):
            lru.append(block)
        assert lru.expired_blocks(now=40.0, expiration=30.0) == [old_dirty]

    def test_expired_blocks_boundary(self):
        # Data exactly ``expiration`` seconds old has expired.
        lru = LRUList()
        dirty = make_block("d", entry=0.0, dirty=True)
        lru.append(dirty)
        lru.append(make_block("c", entry=0.0, dirty=False))
        assert lru.expired_blocks(now=30.0, expiration=30.0) == [dirty]
        assert lru.expired_blocks(now=29.5, expiration=30.0) == []

    def test_expired_blocks_are_not_an_lru_prefix(self):
        # B was written at t=5 and C at t=8; C was read again at t=15 and
        # B at t=20.  A re-read moves dirty data to the recent end but
        # keeps its entry time, so the dirty order is C, then B.  At t=37
        # with a 30 s expiry only B has expired, and it sits behind the
        # unexpired C: a scan that stopped at the first fragment too young
        # to expire would miss it.
        lru = LRUList()
        c = make_block("C", size=100, entry=8.0, access=15.0, dirty=True)
        b = make_block("B", size=100, entry=5.0, access=20.0, dirty=True)
        lru.append(b)
        lru.append(c)
        assert lru.blocks == [c, b]
        assert lru.expired_blocks(now=37.0, expiration=30.0) == [b]

    def test_assert_consistent_detects_drift(self):
        lru = LRUList()
        block = make_block(size=10)
        lru.append(block)
        block.size = 20  # corrupt the block behind the list's back
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
            lru.append(make_block("a", size=10, entry=float(step),
                                  access=float(step)))
        assert len(lru) == 5  # fragments keep their identity...
        assert lru.run_count == 1  # ...but cost a single list node
        assert lru.merges == 4
        assert lru.cached_of_file("a") == 50
        lru.assert_consistent()

    def test_fragment_sizes_survive_coalescing_exactly(self):
        # The sizes of coalesced fragments are never summed or rewritten:
        # popping them back out yields the exact values that went in.
        lru = LRUList()
        sizes = [10.125, 0.375, 7.25]
        for step, size in enumerate(sizes):
            lru.append(make_block("a", size=size, access=float(step)))
        assert lru.run_count == 1
        assert [lru.pop_lru().size for _ in sizes] == sizes

    def test_dirty_and_clean_fragments_never_share_a_run(self):
        lru = LRUList()
        lru.append(make_block("a", size=10, access=1.0, dirty=True))
        lru.append(make_block("a", size=10, access=2.0, dirty=False))
        lru.append(make_block("a", size=10, access=3.0, dirty=True))
        # One dirty run and one clean run: state is a hard boundary, but
        # the dirty fragments straddling the clean one still share a row.
        assert lru.run_count == 2
        assert lru.dirty_size == 20
        assert [block.dirty for block in lru.blocks] == [True, False, True]
        lru.assert_consistent()

    def test_different_files_never_share_a_run(self):
        lru = LRUList()
        lru.append(make_block("a", size=10, access=1.0))
        lru.append(make_block("b", size=10, access=1.0))
        assert lru.run_count == 2
        assert lru.merges == 0

    def test_interleaved_files_keep_one_run_each(self):
        # b's block lands between a's fragments in LRU order; since runs
        # are ordered by position key, not by adjacency links, neither
        # file fragments into extra runs — this is what keeps concurrent
        # chunk streams cheap.
        lru = LRUList()
        lru.append(make_block("a", size=10, access=1.0))
        lru.append(make_block("a", size=10, access=3.0))
        assert lru.run_count == 1
        lru.append(make_block("b", size=10, access=2.0))
        assert lru.run_count == 2
        assert [block.filename for block in lru.blocks] == ["a", "b", "a"]
        # Consumption still interleaves by exact LRU position.
        assert [lru.pop_lru().filename for _ in range(3)] == ["a", "b", "a"]
        lru.assert_consistent()

    def test_mark_clean_joins_the_clean_neighbour(self):
        # A flush split leaves a clean and a dirty fragment side by side;
        # cleaning the dirty one re-joins the clean run structurally.
        lru = LRUList()
        original = make_block("a", size=30, entry=2.0, access=4.0, dirty=True)
        lru.append(original)
        flushed, rest = original.split(10.0)
        flushed.dirty = False
        lru.remove(original)
        lru.append(flushed)
        lru.append(rest)
        assert lru.run_count == 2
        lru.mark_clean(rest)
        assert lru.run_count == 1
        assert len(lru) == 2  # both fragments survive, sizes untouched
        assert lru.size == 30
        assert lru.dirty_size == 0
        lru.assert_consistent()

    def test_totals_are_exactly_the_sum_of_run_lengths(self):
        # With exact fragment sizes the accounting needs no slack on
        # integer-byte workloads: the incrementally maintained totals
        # equal the left-to-right sum over the runs, exactly.
        lru = LRUList()
        for step in range(8):
            lru.append(make_block(f"f{step % 2}", size=float(3 * step + 1),
                                  access=float(step), dirty=step % 3 == 0))
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
    def test_new_blocks_enter_inactive(self):
        lists = PageCacheLists()
        lists.add_to_inactive(make_block(size=10))
        assert lists.inactive.size == 10
        assert lists.active.size == 0
        assert lists.size == 10

    def test_promote_moves_to_active_and_touches(self):
        lists = PageCacheLists(balance=False)
        block = make_block(size=10, access=1.0)
        lists.add_to_inactive(block)
        lists.promote(block, now=9.0)
        assert block in lists.active
        assert block not in lists.inactive
        assert block.last_access == 9.0

    def test_promote_with_balancing_keeps_ratio(self):
        lists = PageCacheLists()
        block = make_block(size=12, access=1.0)
        lists.add_to_inactive(block)
        lists.promote(block, now=9.0)
        # Exactly the excess is demoted back: 8 bytes stay active, 4 inactive.
        assert lists.active.size == pytest.approx(8.0)
        assert lists.inactive.size == pytest.approx(4.0)
        assert lists.size == pytest.approx(12.0)

    def test_cached_of_file_spans_both_lists(self):
        lists = PageCacheLists()
        a1 = make_block("a", size=10, access=1.0)
        a2 = make_block("a", size=5, access=2.0)
        lists.add_to_inactive(a1)
        lists.add_to_inactive(a2)
        lists.promote(a2, now=3.0)
        assert lists.cached_of_file("a") == 15
        assert lists.files() == {"a": 15}

    def test_balance_keeps_active_at_most_twice_inactive(self):
        lists = PageCacheLists()
        # Start with a small inactive list and a large active list.
        inactive_block = make_block("i", size=10, access=0.0)
        lists.add_to_inactive(inactive_block)
        for index in range(6):
            block = make_block(f"a{index}", size=50, access=float(index + 1))
            lists.add_to_inactive(block)
            lists.promote(block, now=float(index + 10))
        assert lists.active.size <= 2 * lists.inactive.size + 1e-6
        assert lists.size == pytest.approx(10 + 6 * 50)

    def test_balance_moves_least_recently_used_first(self):
        lists = PageCacheLists(balance=False)
        lists.add_to_inactive(make_block("i", size=10, access=0.0))
        oldest = make_block("old", size=100, access=1.0)
        newest = make_block("new", size=100, access=2.0)
        for block in (oldest, newest):
            lists.add_to_inactive(block)
            lists.promote(block, now=block.last_access + 10)
        lists.balance_enabled = True
        lists.balance()
        # The demoted data must come from the least recently used block.
        assert lists.inactive.cached_of_file("old") > 0
        assert lists.inactive.cached_of_file("new") == 0
        assert lists.active.size <= 2 * lists.inactive.size + 1e-6

    def test_balance_disabled(self):
        lists = PageCacheLists(balance=False)
        lists.add_to_inactive(make_block("i", size=1))
        big = make_block("big", size=1000)
        lists.add_to_inactive(big)
        lists.promote(big, now=5.0)
        assert lists.active.size == 1000  # no demotion

    def test_remove_from_either_list(self):
        lists = PageCacheLists()
        block = make_block(size=10)
        lists.add_to_inactive(block)
        lists.remove(block)
        assert lists.size == 0
        with pytest.raises(CacheConsistencyError):
            lists.remove(block)

    def test_dirty_size_aggregation(self):
        lists = PageCacheLists()
        lists.add_to_inactive(make_block("a", size=10, dirty=True))
        promoted = make_block("b", size=5, dirty=True)
        lists.add_to_inactive(promoted)
        lists.promote(promoted, now=1.0)
        assert lists.dirty_size == 15
        assert lists.clean_size == 0
