"""Property-based tests (hypothesis) for the page cache data structures.

These tests drive the LRU lists and the Memory Manager with randomly
generated operation sequences and check the structural invariants that the
simulation results rely on:

* list accounting always matches the blocks actually stored;
* the two-list balance invariant (active <= 2 x inactive) holds;
* memory accounting is conservative: free + cached + anonymous == total;
* flushing and eviction never create or destroy cached bytes out of thin
  air (other than the intended removal).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Environment
from repro.pagecache.block import Block
from repro.pagecache.config import PageCacheConfig
from repro.pagecache.lru import PageCacheLists
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
            lists.add_to_inactive(
                Block(f"file{file_index}", size, entry_time=clock[0], dirty=dirty)
            )
        elif kind == "promote":
            _, index = operation
            if len(lists.inactive) > 0:
                block = lists.inactive.blocks[index % len(lists.inactive)]
                lists.promote(block, now=clock[0])
        elif kind == "remove":
            _, index = operation
            blocks = lists.inactive.blocks + lists.active.blocks
            if blocks:
                lists.remove(blocks[index % len(blocks)])
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
    block = Block("f", size, entry_time=3.0, last_access=7.0, dirty=True)
    first_size = size * fraction
    if not (0 < first_size < size):
        return  # degenerate floating point corner, nothing to check
    first, second = block.split(first_size)
    assert first.size + second.size == pytest.approx(size)
    for part in (first, second):
        assert part.entry_time == block.entry_time
        assert part.last_access == block.last_access
        assert part.dirty == block.dirty
        assert part.filename == block.filename
