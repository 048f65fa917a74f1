"""Unit tests for the Memory Manager (flushing, eviction, accounting)."""

import pytest

from lru_rows import Fragment, fragments
from repro.errors import ConfigurationError
from repro.pagecache import MemoryManager, PageCacheConfig
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.units import GB, MB, MBps


GB_F = float(GB)


@pytest.fixture
def setup(env):
    """Environment, 10 GB memory manager and a disk, flusher disabled."""
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    manager = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False))
    return env, manager, disk


class TestConstruction:
    def test_requires_memory_device(self, env):
        with pytest.raises(ConfigurationError):
            MemoryManager(env, None)

    def test_initial_state(self, setup):
        _, mm, _ = setup
        assert mm.free_mem == 10 * GB
        assert mm.cached == 0
        assert mm.dirty == 0
        assert mm.anonymous == 0
        assert mm.used_memory == 0
        mm.assert_consistent()


class TestAnonymousMemory:
    def test_use_and_release(self, setup):
        _, mm, _ = setup
        mm.use_anonymous_memory(2 * GB, owner="app1")
        assert mm.anonymous == 2 * GB
        assert mm.free_mem == 8 * GB
        released = mm.release_anonymous_memory(owner="app1")
        assert released == 2 * GB
        assert mm.anonymous == 0
        assert mm.free_mem == 10 * GB
        mm.assert_consistent()

    def test_partial_release(self, setup):
        _, mm, _ = setup
        mm.use_anonymous_memory(3 * GB, owner="app")
        mm.release_anonymous_memory(1 * GB, owner="app")
        assert mm.anonymous == 2 * GB
        assert mm.release_anonymous_memory(owner="app") == 2 * GB

    def test_release_without_owner_releases_all(self, setup):
        _, mm, _ = setup
        mm.use_anonymous_memory(1 * GB)
        mm.use_anonymous_memory(2 * GB)
        assert mm.release_anonymous_memory() == 3 * GB
        assert mm.anonymous == 0

    def test_release_is_capped_at_allocated(self, setup):
        _, mm, _ = setup
        mm.use_anonymous_memory(1 * GB)
        assert mm.release_anonymous_memory(5 * GB) == 1 * GB

    def test_negative_allocation_rejected(self, setup):
        _, mm, _ = setup
        with pytest.raises(ValueError):
            mm.use_anonymous_memory(-1)

    def test_zero_allocation_is_noop(self, setup):
        _, mm, _ = setup
        mm.use_anonymous_memory(0)
        assert mm.free_mem == 10 * GB


class TestCacheAccounting:
    def test_add_to_cache_creates_inactive_clean_block(self, setup):
        _, mm, disk = setup
        assert mm.add_to_cache("f", 1 * GB, disk) is None
        assert fragments(mm.lists.inactive) == [
            Fragment("f", 1 * GB, 0.0, 0.0, False)]
        assert mm.cached == 1 * GB
        assert mm.free_mem == 9 * GB
        assert mm.cached_amount("f") == 1 * GB
        mm.assert_consistent()

    def test_add_to_cache_zero_amount(self, setup):
        _, mm, disk = setup
        assert mm.add_to_cache("f", 0, disk) is None

    def test_write_to_cache_creates_dirty_block(self, setup):
        _, mm, disk = setup
        mm.put_to_cache("f", 2 * GB, disk)
        assert mm.dirty == 2 * GB
        assert mm.cached == 2 * GB
        assert mm.free_mem == 8 * GB
        assert mm.stats.cache_write_bytes == 2 * GB
        mm.assert_consistent()

    def test_cache_content_reports_per_file(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        mm.add_to_cache("b", 2 * GB, disk)
        assert mm.cache_content() == {"a": 1 * GB, "b": 2 * GB}

    def test_invalidate_file(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        mm.add_to_cache("b", 2 * GB, disk)
        removed = mm.invalidate_file("a")
        assert removed == 1 * GB
        assert mm.cached == 2 * GB
        assert mm.free_mem == 8 * GB
        mm.assert_consistent()

    def test_dirty_capacity_total_base(self, setup):
        _, mm, _ = setup
        assert mm.dirty_capacity == pytest.approx(0.2 * 10 * GB)

    def test_dirty_capacity_available_base(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        mm = MemoryManager(
            env, memory,
            PageCacheConfig(periodic_flushing=False, dirty_threshold_base="available"),
        )
        mm.use_anonymous_memory(5 * GB)
        assert mm.dirty_capacity == pytest.approx(0.2 * 5 * GB)

    def test_snapshot_fields(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("f", 1 * GB, disk)
        mm.use_anonymous_memory(2 * GB)
        snap = mm.snapshot()
        assert snap.total == 10 * GB
        assert snap.cached == 1 * GB
        assert snap.anonymous == 2 * GB
        assert snap.used == 3 * GB
        assert snap.free == 7 * GB
        assert snap.as_dict()["dirty"] == 0


class TestEviction:
    def test_evicts_clean_inactive_blocks_lru_first(self, setup):
        env, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        env.run(until=1.0)
        mm.add_to_cache("b", 1 * GB, disk)
        evicted = mm.evict(1 * GB)
        assert evicted == 1 * GB
        assert mm.cached_amount("a") == 0  # oldest evicted first
        assert mm.cached_amount("b") == 1 * GB
        assert [f.filename for f in fragments(mm.lists.inactive)] == ["b"]
        mm.assert_consistent()

    def test_partial_eviction_splits_block(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 2 * GB, disk)
        evicted = mm.evict(0.5 * GB)
        assert evicted == pytest.approx(0.5 * GB)
        assert mm.cached_amount("a") == pytest.approx(1.5 * GB)
        assert mm.free_mem == pytest.approx(8.5 * GB)
        mm.assert_consistent()

    def test_dirty_blocks_are_not_evicted(self, setup):
        _, mm, disk = setup
        mm.put_to_cache("d", 1 * GB, disk)
        assert mm.evict(1 * GB) == 0.0
        assert mm.cached == 1 * GB

    def test_excluded_file_is_skipped(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("keep", 1 * GB, disk)
        mm.add_to_cache("drop", 1 * GB, disk)
        evicted = mm.evict(2 * GB, exclude_file="keep")
        assert evicted == 1 * GB
        assert mm.cached_amount("keep") == 1 * GB

    def test_non_positive_amount_is_noop(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        assert mm.evict(0) == 0.0
        assert mm.evict(-5) == 0.0
        assert mm.evict(None) == 0.0

    def test_active_list_not_evicted_by_default(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        mm.take_from_cache("a", 1 * GB)  # promote to active
        # Balancing demotes exactly one third back to the inactive list;
        # a single eviction pass may only reclaim that demoted part.
        assert mm.lists.active.cached_of_file("a") == pytest.approx(2 * GB / 3)
        assert mm.evict(1 * GB) == pytest.approx(1 * GB / 3)
        # Two thirds of the file survive the eviction (rebalanced between
        # the lists), and the structural invariant still holds.
        assert mm.cached_amount("a") == pytest.approx(2 * GB / 3)
        assert (
            mm.lists.active.size <= 2 * mm.lists.inactive.size + 1e-6
        )

    def test_active_list_evicted_when_enabled(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        mm = MemoryManager(
            env, memory,
            PageCacheConfig(periodic_flushing=False, evict_from_active=True),
        )
        mm.add_to_cache("a", 1 * GB, disk)
        mm.take_from_cache("a", 1 * GB)
        assert mm.evict(1 * GB) == pytest.approx(1 * GB)

    def test_protected_written_files_not_evicted(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        mm = MemoryManager(
            env, memory,
            PageCacheConfig(periodic_flushing=False, protect_written_files=True),
        )
        mm.add_to_cache("hot", 1 * GB, disk)
        mm.mark_file_being_written("hot")
        assert mm.evict(1 * GB) == 0.0
        mm.unmark_file_being_written("hot")
        assert mm.evict(1 * GB) == pytest.approx(1 * GB)

    def test_evicted_bytes_statistic(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("a", 1 * GB, disk)
        mm.evict(0.5 * GB)
        assert mm.stats.evicted_bytes == pytest.approx(0.5 * GB)
        assert mm.stats.evict_ops == 1


class TestFlushing:
    def test_flush_writes_dirty_data_to_disk(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("f", 1 * GB, disk)
        start = env.now
        flushed = runner(env, mm.flush(1 * GB))
        assert flushed == pytest.approx(1 * GB)
        assert mm.dirty == 0
        assert mm.cached == 1 * GB  # data stays cached, now clean
        # 1 GB at 100 MBps disk write.
        assert env.now - start == pytest.approx(10.0)
        assert disk.bytes_written == pytest.approx(1 * GB)
        mm.assert_consistent()

    def test_flush_is_bounded_by_dirty_data(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("f", 1 * GB, disk)
        flushed = runner(env, mm.flush(5 * GB))
        assert flushed == pytest.approx(1 * GB)

    def test_partial_flush_splits_block(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("f", 2 * GB, disk)
        flushed = runner(env, mm.flush(0.5 * GB))
        assert flushed == pytest.approx(0.5 * GB)
        assert mm.dirty == pytest.approx(1.5 * GB)
        assert mm.cached == pytest.approx(2 * GB)
        mm.assert_consistent()

    def test_flush_excludes_file(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("keep", 1 * GB, disk)
        mm.put_to_cache("flushme", 1 * GB, disk)
        flushed = runner(env, mm.flush(2 * GB, exclude_file="keep"))
        assert flushed == pytest.approx(1 * GB)
        assert mm.dirty == pytest.approx(1 * GB)

    def test_flush_lru_order(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("old", 1 * GB, disk)
        mm.put_to_cache("new", 1 * GB, disk)
        runner(env, mm.flush(1 * GB))
        # The oldest dirty block must have been flushed first.
        dirty = [f.filename for f in fragments(mm.lists.inactive) if f.dirty]
        assert dirty == ["new"]

    def test_flush_zero_or_negative_amount(self, setup, runner):
        env, mm, _ = setup
        assert runner(env, mm.flush(0)) == 0.0
        assert runner(env, mm.flush(-1 * GB)) == 0.0

    def test_flush_with_no_dirty_data(self, setup, runner):
        env, mm, _ = setup
        assert runner(env, mm.flush(1 * GB)) == 0.0

    def test_flushed_bytes_statistic(self, setup, runner):
        env, mm, disk = setup
        mm.put_to_cache("f", 1 * GB, disk)
        runner(env, mm.flush(1 * GB))
        assert mm.stats.flushed_bytes == pytest.approx(1 * GB)
        assert mm.stats.flush_ops == 1


class TestCacheReads:
    def test_read_promotes_clean_block_to_active(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("f", 1 * GB, disk)
        served = mm.take_from_cache("f", 1 * GB)
        assert served == pytest.approx(1 * GB)
        # The whole file stays cached; balancing keeps two thirds active.
        assert mm.cached_amount("f") == pytest.approx(1 * GB)
        assert mm.lists.active.cached_of_file("f") == pytest.approx(2 * GB / 3)
        assert mm.lists.inactive.cached_of_file("f") == pytest.approx(1 * GB / 3)
        assert mm.stats.cache_hit_bytes == pytest.approx(1 * GB)

    def test_read_merges_clean_blocks(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("f", 0.5 * GB, disk)
        mm.add_to_cache("f", 0.5 * GB, disk)
        mm.take_from_cache("f", 1 * GB)
        # The two clean blocks are merged into a single re-accessed block
        # (which balancing may split once between the two lists).
        active_blocks = fragments(mm.lists.active, "f")
        inactive_blocks = fragments(mm.lists.inactive, "f")
        assert len(active_blocks) == 1
        assert len(active_blocks) + len(inactive_blocks) <= 2
        assert mm.cached_amount("f") == pytest.approx(1 * GB)

    def test_one_fragment_hit_keeps_the_fragment_size(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("g", 1 * GB, disk)  # keeps balance from demoting
        mm.add_to_cache("f", 0.5 * GB, disk)
        (size,) = [f.size for f in fragments(mm.lists.inactive, "f")]
        mm.take_from_cache("f", 0.5 * GB)
        # The merged fragment of a hit on one clean fragment holds that
        # fragment's size: the same double, packed in the active list's
        # row (a cached size is no float object of its own).
        (run,) = mm.lists.active.runs()
        assert run.row[run.head] == size
        assert [f.size for f in fragments(mm.lists.active, "f")] == [size]

    def test_read_moves_dirty_blocks_individually(self, setup):
        _, mm, disk = setup
        mm.put_to_cache("f", 0.5 * GB, disk)
        mm.put_to_cache("f", 0.5 * GB, disk)
        mm.take_from_cache("f", 1 * GB)
        # Dirty blocks are not merged: they keep their identity (and entry
        # time) when promoted, so the file still spans several dirty blocks.
        cached = (fragments(mm.lists.active, "f")
                  + fragments(mm.lists.inactive, "f"))
        assert len(cached) >= 2
        assert all(f.dirty for f in cached)
        assert mm.dirty == pytest.approx(1 * GB)

    def test_partial_block_read_splits(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("f", 1 * GB, disk)
        served = mm.take_from_cache("f", 0.25 * GB)
        assert served == pytest.approx(0.25 * GB)
        assert mm.lists.active.cached_of_file("f") == pytest.approx(0.25 * GB)
        assert mm.lists.inactive.cached_of_file("f") == pytest.approx(0.75 * GB)
        assert mm.cached == pytest.approx(1 * GB)

    def test_read_bounded_by_cached_amount(self, setup):
        _, mm, disk = setup
        mm.add_to_cache("f", 0.5 * GB, disk)
        served = mm.take_from_cache("f", 2 * GB)
        assert served == pytest.approx(0.5 * GB)

    def test_read_of_uncached_file_serves_nothing(self, setup):
        _, mm, _ = setup
        assert mm.take_from_cache("missing", 1 * GB) == 0.0

    def test_zero_read(self, setup):
        _, mm, _ = setup
        assert mm.take_from_cache("f", 0) == 0.0


class TestPeriodicFlushing:
    def test_expired_dirty_blocks_are_flushed_in_background(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        config = PageCacheConfig(dirty_expire=10.0, writeback_interval=2.0)
        mm = MemoryManager(env, memory, config)

        def scenario(env):
            mm.put_to_cache("f", 1 * GB, disk)
            # Wait past the expiration time, one flusher period and the
            # 10 s write-back.
            yield env.timeout(21.0)
            return mm.dirty

        process = env.process(scenario(env))
        dirty_after = env.run(until=process)
        mm.stop()
        assert dirty_after == 0.0
        assert mm.stats.background_flushed_bytes == pytest.approx(1 * GB)
        assert disk.bytes_written == pytest.approx(1 * GB)

    def test_unexpired_blocks_stay_dirty(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        config = PageCacheConfig(dirty_expire=1000.0, writeback_interval=2.0)
        mm = MemoryManager(env, memory, config)

        def scenario(env):
            mm.put_to_cache("f", 1 * GB, disk)
            yield env.timeout(20.0)
            return mm.dirty

        process = env.process(scenario(env))
        dirty_after = env.run(until=process)
        mm.stop()
        assert dirty_after == pytest.approx(1 * GB)

    def test_expiry_follows_entry_time_not_lru_order(self, env):
        # B is written at t=5 and C at t=8; C is read again at t=15 and B
        # at t=20, so the dirty LRU order is C, then B.  The flusher's
        # t=35 pass finds B 30 s old (expired) behind C, 27 s old (not).
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        mm = MemoryManager(env, memory, PageCacheConfig())

        def scenario(env):
            yield env.timeout(5.0)
            mm.put_to_cache("B", 100 * MB, disk)
            yield env.timeout(3.0)
            mm.put_to_cache("C", 100 * MB, disk)
            yield env.timeout(7.0)
            mm.take_from_cache("C", 100 * MB)
            yield env.timeout(5.0)
            mm.take_from_cache("B", 100 * MB)

        env.process(scenario(env))
        env.run(until=34.0)
        assert [f.filename for f in fragments(mm.lists.active)
                if f.dirty] == ["C", "B"]
        env.run(until=37.0)
        mm.stop()
        dirty_files = {f.filename
                       for lru in (mm.lists.inactive, mm.lists.active)
                       for f in fragments(lru) if f.dirty}
        assert dirty_files == {"C"}
        assert mm.dirty == pytest.approx(100 * MB)
        assert mm.stats.background_flushed_bytes == pytest.approx(100 * MB)

    def test_expired_blocks_listing(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        mm = MemoryManager(env, memory, PageCacheConfig(periodic_flushing=False,
                                                        dirty_expire=5.0))
        mm.add_to_cache("clean", 1 * GB, disk)
        mm.add_to_cache("dirty", 1 * GB, disk, dirty=True)
        env.timeout(10.0)
        env.run()
        # The flusher's pass writes exactly the expired dirty fragment.
        flushed = env.run(until=env.process(mm._flush_expired()))
        assert flushed == 1 * GB
        assert mm.dirty == 0.0
        assert disk.bytes_written == 1 * GB


class TestFlusherSnapshot:
    """The periodic flusher holds its expiry snapshot across its writes.

    At t = 10 the flusher's pass marks two expired dirty fragments, ``a``
    then ``b``, cleans ``a`` and writes it for one second.  Meanwhile
    something happens to ``b``; these tests pin what the flusher then
    does with the fragment it still holds a mark of.
    """

    @staticmethod
    def make(env):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        mm = MemoryManager(env, memory, PageCacheConfig(
            dirty_expire=10.0, writeback_interval=5.0))
        return mm, disk

    @staticmethod
    def play(env, mm, setup, meddle, until=14.0):
        """Run ``setup`` at t = 0 and ``meddle`` at t = 10.5, then stop at
        ``until``, before the flusher's next pass."""

        def scenario(env):
            yield from setup()
            yield env.timeout(10.5 - env.now)
            yield from meddle()

        env.process(scenario(env))
        env.run(until=until)
        mm.stop()

    def test_promoted_fragment_is_flushed_from_the_active_list(self, env):
        mm, disk = self.make(env)

        def setup():
            mm.put_to_cache("a", 100 * MB, disk)
            mm.put_to_cache("b", 100 * MB, disk)
            yield env.timeout(0)

        def meddle():
            # A read promotes b's dirty fragment to the active list.
            assert mm.take_from_cache("b", 100 * MB) == 100 * MB
            assert mm.lists.active.dirty_size == 100 * MB
            yield env.timeout(0)

        self.play(env, mm, setup, meddle)
        assert mm.dirty == 0.0
        assert mm.lists.active.cached_of_file("b") == 100 * MB
        assert mm.stats.background_flushed_bytes == 200 * MB
        assert disk.bytes_written == 200 * MB
        mm.assert_consistent()

    def test_demoted_fragment_is_flushed_from_the_inactive_list(self, env):
        mm, disk = self.make(env)

        def setup():
            mm.put_to_cache("a", 100 * MB, disk)
            mm.put_to_cache("b", 100 * MB, disk)
            yield env.timeout(1.0)
            mm.take_from_cache("b", 100 * MB)
            yield env.timeout(1.0)
            mm.add_to_cache("d", 500 * MB, disk)
            assert mm.lists.active.dirty_size == 100 * MB

        def meddle():
            # A read promotes d, and balancing demotes b's whole fragment
            # (the active list's oldest) and part of d's.
            mm.take_from_cache("d", 500 * MB)
            assert mm.lists.active.dirty_size == 0.0
            assert mm.lists.inactive.dirty_size == 100 * MB
            yield env.timeout(0)

        self.play(env, mm, setup, meddle)
        assert mm.dirty == 0.0
        assert mm.lists.inactive.cached_of_file("b") == 100 * MB
        assert mm.stats.background_flushed_bytes == 200 * MB
        assert disk.bytes_written == 200 * MB
        mm.assert_consistent()

    def test_fragment_split_by_a_foreground_flush_is_skipped(self, env):
        mm, disk = self.make(env)

        def setup():
            mm.put_to_cache("a", 100 * MB, disk)
            mm.put_to_cache("b", 100 * MB, disk)
            yield env.timeout(0)

        def meddle():
            # A foreground flush writes half of b: the fragment is split.
            flushed = yield from mm.flush(50 * MB)
            assert flushed == 50 * MB

        self.play(env, mm, setup, meddle)
        # The flusher wrote a only; b's dirty half waits for the next pass.
        assert mm.dirty == 50 * MB
        assert mm.stats.background_flushed_bytes == 100 * MB
        assert mm.stats.flushed_bytes == 50 * MB
        assert disk.bytes_written == 150 * MB
        mm.assert_consistent()

    def test_fragment_cleaned_by_a_foreground_flush_is_written_again(self,
                                                                    env):
        mm, disk = self.make(env)

        def setup():
            mm.put_to_cache("a", 100 * MB, disk)
            mm.put_to_cache("b", 100 * MB, disk)
            yield env.timeout(0)

        def meddle():
            # A foreground flush cleans b's whole fragment before the
            # flusher reaches it.
            flushed = yield from mm.flush(100 * MB)
            assert flushed == 100 * MB

        self.play(env, mm, setup, meddle)
        # The flusher still holds b and writes it a second time.
        assert mm.dirty == 0.0
        assert mm.stats.flushed_bytes == 100 * MB
        assert mm.stats.background_flushed_bytes == 200 * MB
        assert disk.bytes_written == 300 * MB
        mm.assert_consistent()
