"""Unit tests for storage and memory devices."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.platform.memory import MemoryDevice
from repro.platform.storage import Disk, StorageDevice
from repro.units import GB, GiB, MB, MBps


class TestStorageDeviceConstruction:
    def test_bandwidths_must_be_positive(self, env):
        with pytest.raises(ConfigurationError):
            StorageDevice(env, "bad", read_bandwidth=0, write_bandwidth=100)

    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ConfigurationError):
            StorageDevice(env, "bad", read_bandwidth=1, write_bandwidth=1, capacity=0)

    def test_symmetric_disk_uses_unified_channel(self, env):
        disk = Disk.symmetric(env, "ssd", 465 * MBps)
        assert disk.read_channel is disk.write_channel

    def test_asymmetric_disk_uses_separate_channels(self, env):
        disk = Disk(env, "ssd", read_bandwidth=510 * MBps, write_bandwidth=420 * MBps)
        assert disk.read_channel is not disk.write_channel

    def test_channel_is_unified_exactly_when_bandwidths_are_equal(self, env):
        for device in (
            StorageDevice(env, "hdd", read_bandwidth=200 * MBps, write_bandwidth=200 * MBps),
            MemoryDevice(env, "ram", size=GB, read_bandwidth=4000 * MBps,
                         write_bandwidth=4000 * MBps),
        ):
            assert device.read_channel is device.write_channel
        for device in (
            StorageDevice(env, "hdd", read_bandwidth=200 * MBps, write_bandwidth=100 * MBps),
            MemoryDevice(env, "ram", size=GB, read_bandwidth=4000 * MBps,
                         write_bandwidth=3000 * MBps),
        ):
            assert device.read_channel is not device.write_channel


class TestTransfers:
    def test_read_time_matches_bandwidth(self, env, runner):
        disk = Disk.symmetric(env, "ssd", 465 * MBps)

        def proc(env):
            yield disk.read(465 * MB)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(1.0)

    def test_write_time_matches_bandwidth(self, env, runner):
        disk = Disk(env, "ssd", read_bandwidth=510 * MBps, write_bandwidth=420 * MBps)

        def proc(env):
            yield disk.write(840 * MB)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(2.0)

    def test_negative_amounts_rejected(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        with pytest.raises(ValueError):
            disk.read(-1)
        with pytest.raises(ValueError):
            disk.write(-1)

    def test_unified_channel_shares_between_reads_and_writes(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        finish = {}

        def reader(env):
            yield disk.read(100 * MB)
            finish["read"] = env.now

        def writer(env):
            yield disk.write(100 * MB)
            finish["write"] = env.now

        env.process(reader(env))
        env.process(writer(env))
        env.run()
        assert finish["read"] == pytest.approx(2.0)
        assert finish["write"] == pytest.approx(2.0)

    def test_separate_channels_do_not_interfere(self, env):
        disk = Disk(env, "ssd", read_bandwidth=100 * MBps, write_bandwidth=50 * MBps)
        finish = {}

        def reader(env):
            yield disk.read(100 * MB)
            finish["read"] = env.now

        def writer(env):
            yield disk.write(50 * MB)
            finish["write"] = env.now

        env.process(reader(env))
        env.process(writer(env))
        env.run()
        assert finish["read"] == pytest.approx(1.0)
        assert finish["write"] == pytest.approx(1.0)

    def test_statistics_counters(self, env, runner):
        disk = Disk.symmetric(env, "ssd", 100 * MBps)

        def proc(env):
            yield disk.read(10 * MB)
            yield disk.write(20 * MB)

        runner(env, proc(env))
        assert disk.bytes_read == 10 * MB
        assert disk.bytes_written == 20 * MB
        assert disk.read_ops == 1
        assert disk.write_ops == 1


class TestCapacityAccounting:
    def test_allocate_and_deallocate(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps, capacity=10 * GB)
        disk.allocate(4 * GB)
        assert disk.used == 4 * GB
        assert disk.free_space == 6 * GB
        disk.deallocate(1 * GB)
        assert disk.used == 3 * GB

    def test_allocation_beyond_capacity_raises(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps, capacity=1 * GB)
        with pytest.raises(StorageError):
            disk.allocate(2 * GB)

    def test_deallocate_never_goes_negative(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps, capacity=1 * GB)
        disk.allocate(0.5 * GB)
        disk.deallocate(2 * GB)
        assert disk.used == 0.0

    def test_negative_amounts_rejected(self, env):
        disk = Disk.symmetric(env, "ssd", 100 * MBps)
        with pytest.raises(ValueError):
            disk.allocate(-1)
        with pytest.raises(ValueError):
            disk.deallocate(-1)


class TestMemoryDevice:
    def test_size_must_be_positive(self, env):
        with pytest.raises(ConfigurationError):
            MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=0)

    def test_size_alias(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 4812 * MBps, size=16 * GiB)
        assert memory.size == 16 * GiB
        assert memory.capacity == 16 * GiB

    def test_symmetric_memory_uses_unified_channel(self, env):
        memory = MemoryDevice.symmetric(env, "ram", 4812 * MBps, size=GiB)
        assert memory.read_channel is memory.write_channel

    def test_asymmetric_memory_uses_separate_channels(self, env):
        memory = MemoryDevice(
            env, "ram", size=GiB,
            read_bandwidth=6860 * MBps, write_bandwidth=2764 * MBps,
        )
        assert memory.read_channel is not memory.write_channel

    def test_memory_transfer_time(self, env, runner):
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=16 * GiB)

        def proc(env):
            yield memory.read(2000 * MB)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(2.0)
