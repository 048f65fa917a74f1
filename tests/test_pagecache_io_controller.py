"""Unit tests for the I/O Controller (Algorithms 2 and 3, writethrough)."""

import pytest

from repro.errors import ConfigurationError
from repro.pagecache import IOController, MemoryManager, PageCacheConfig
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk
from repro.units import GB, MB, MBps


@pytest.fixture
def small_setup(env):
    """10 GB of memory, 100 MBps disk, 1000 MBps memory, no background flush."""
    memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
    disk = Disk.symmetric(env, "ssd", 100 * MBps)
    config = PageCacheConfig(periodic_flushing=False, chunk_size=100 * MB)
    manager = MemoryManager(env, memory, config)
    controller = IOController(env, manager)
    return env, manager, controller, disk


class TestConstruction:
    def test_requires_memory_manager(self, env):
        with pytest.raises(ConfigurationError):
            IOController(env, None)

    def test_config_defaults_to_manager_config(self, small_setup):
        _, mm, io, _ = small_setup
        assert io.config is mm.config


class TestChunkReads:
    def test_uncached_chunk_reads_from_disk(self, small_setup, runner):
        env, mm, io, disk = small_setup
        disk_read, cache_read = runner(
            env, io.read_chunk("f", 1 * GB, 100 * MB, disk)
        )
        assert disk_read == 100 * MB
        assert cache_read == 0
        assert env.now == pytest.approx(1.0)  # 100 MB at 100 MBps
        assert mm.cached_amount("f") == 100 * MB
        assert mm.anonymous == 100 * MB

    def test_cached_chunk_reads_from_memory(self, small_setup, runner):
        env, mm, io, disk = small_setup
        mm.add_to_cache("f", 1 * GB, disk)
        disk_read, cache_read = runner(
            env, io.read_chunk("f", 1 * GB, 100 * MB, disk)
        )
        assert disk_read == 0
        assert cache_read == 100 * MB
        assert env.now == pytest.approx(0.1)  # 100 MB at 1000 MBps

    def test_partially_cached_file_reads_uncached_part_first(self, small_setup, runner):
        env, mm, io, disk = small_setup
        mm.add_to_cache("f", 0.9 * GB, disk)
        # File is 1 GB, 0.9 GB cached: the first chunk must hit the disk for
        # the remaining 0.1 GB only.
        disk_read, cache_read = runner(
            env, io.read_chunk("f", 1 * GB, 200 * MB, disk)
        )
        assert disk_read == pytest.approx(100 * MB)
        assert cache_read == pytest.approx(100 * MB)

    def test_read_without_anonymous_memory(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.read_chunk("f", 1 * GB, 100 * MB, disk,
                                  use_anonymous_memory=False))
        assert mm.anonymous == 0

    def test_read_records_statistics(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.read_chunk("f", 1 * GB, 100 * MB, disk))
        assert mm.stats.cache_miss_bytes == 100 * MB
        assert mm.stats.read_ops == 1


class TestFileReads:
    def test_fully_uncached_read_time(self, small_setup, runner):
        env, mm, io, disk = small_setup
        result = runner(env, io.read_file("f", 1 * GB, disk))
        assert result.storage_bytes == pytest.approx(1 * GB)
        assert result.cache_bytes == 0
        assert result.elapsed == pytest.approx(10.0)  # 1 GB at 100 MBps
        assert result.chunks == 10
        assert mm.cached_amount("f") == pytest.approx(1 * GB)

    def test_fully_cached_read_time(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.read_file("f", 1 * GB, disk))
        mm.release_anonymous_memory()
        result = runner(env, io.read_file("f", 1 * GB, disk))
        assert result.cache_bytes == pytest.approx(1 * GB)
        assert result.storage_bytes == 0
        assert result.elapsed == pytest.approx(1.0)  # 1 GB at 1000 MBps
        assert result.cache_fraction == pytest.approx(1.0)

    def test_read_allocates_anonymous_memory_per_owner(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.read_file("f", 1 * GB, disk, anonymous_owner="app1"))
        assert mm.release_anonymous_memory(owner="app1") == pytest.approx(1 * GB)

    def test_read_larger_than_memory_evicts_lru_data(self, small_setup, runner):
        env, mm, io, disk = small_setup
        # 6 GB file + 6 GB anonymous copy > 10 GB memory: the cache must
        # evict its own least recently used blocks to make room.
        result = runner(env, io.read_file("big", 6 * GB, disk))
        assert result.storage_bytes == pytest.approx(6 * GB)
        assert mm.free_mem >= -1e-3
        assert mm.cached <= 10 * GB
        assert mm.anonymous == pytest.approx(6 * GB)
        mm.assert_consistent()


class TestChunkWrites:
    def test_write_below_dirty_threshold_goes_to_memory(self, small_setup, runner):
        env, mm, io, disk = small_setup
        cache_written, flushed = runner(env, io.write_chunk("f", 100 * MB, disk))
        assert cache_written == 100 * MB
        assert flushed == 0
        assert mm.dirty == 100 * MB
        assert env.now == pytest.approx(0.1)  # memory write only
        assert disk.bytes_written == 0

    def test_write_beyond_dirty_threshold_flushes(self, small_setup, runner):
        env, mm, io, disk = small_setup
        # dirty capacity = 20% of 10 GB = 2 GB; write 3 GB.
        result = runner(env, io.write_file("f", 3 * GB, disk))
        assert result.cache_bytes == pytest.approx(3 * GB)
        assert result.storage_bytes > 0  # some data had to be flushed
        assert mm.dirty <= mm.dirty_capacity + 1e-3
        assert disk.bytes_written == pytest.approx(result.storage_bytes)
        mm.assert_consistent()

    def test_small_writes_never_touch_disk(self, small_setup, runner):
        env, mm, io, disk = small_setup
        result = runner(env, io.write_file("f", 1 * GB, disk))
        assert result.storage_bytes == 0
        assert result.elapsed == pytest.approx(1.0)  # 1 GB at memory bandwidth
        assert disk.bytes_written == 0

    def test_write_records_statistics(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.write_file("f", 1 * GB, disk))
        assert mm.stats.cache_write_bytes == pytest.approx(1 * GB)
        assert mm.stats.write_ops == 10


class TestWritethrough:
    def test_writethrough_pays_disk_bandwidth(self, small_setup, runner):
        env, mm, io, disk = small_setup
        result = runner(env, io.write_file("f", 1 * GB, disk, writethrough=True))
        assert result.elapsed == pytest.approx(10.0)  # 1 GB at 100 MBps
        assert result.storage_bytes == pytest.approx(1 * GB)
        assert disk.bytes_written == pytest.approx(1 * GB)

    def test_writethrough_populates_cache_with_clean_data(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.write_file("f", 1 * GB, disk, writethrough=True))
        assert mm.cached_amount("f") == pytest.approx(1 * GB)
        assert mm.dirty == 0

    def test_writethrough_statistics(self, small_setup, runner):
        env, mm, io, disk = small_setup
        runner(env, io.write_file("f", 1 * GB, disk, writethrough=True))
        assert mm.stats.direct_write_bytes == pytest.approx(1 * GB)


class TestWrittenFileTracking:
    def test_file_marked_during_write_and_unmarked_after(self, env, runner):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=10 * GB)
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        config = PageCacheConfig(periodic_flushing=False,
                                 protect_written_files=True)
        mm = MemoryManager(env, memory, config)
        io = IOController(env, mm)

        observed = {}

        def observer(env):
            yield env.timeout(0.5)
            observed["during"] = "f" in mm._files_being_written

        env.process(observer(env))
        runner(env, io.write_file("f", 1 * GB, disk))
        assert observed["during"] is True
        assert "f" not in mm._files_being_written


class TestIOResult:
    def test_elapsed_and_cache_fraction(self, small_setup, runner):
        env, mm, io, disk = small_setup
        mm.add_to_cache("f", 0.5 * GB, disk)
        result = runner(env, io.read_file("f", 1 * GB, disk))
        assert result.elapsed == result.end_time - result.start_time
        assert result.cache_fraction == pytest.approx(0.5)

    def test_zero_size_cache_fraction(self):
        from repro.pagecache.io_controller import IOResult

        result = IOResult("f", 0.0, 0.0, 0.0)
        assert result.cache_fraction == 0.0
