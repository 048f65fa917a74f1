"""Unit tests for the cacheless, page-cached and NFS storage services."""

import pytest

from repro.errors import ConfigurationError
from repro.des import Environment
from repro.filesystem import File
from repro.pagecache.config import PageCacheConfig
from repro.platform.host import Host
from repro.platform.memory import MemoryDevice
from repro.platform.network import Network
from repro.platform.storage import Disk
from repro.simulator.cacheless import SimpleStorageService
from repro.simulator.storage_service import NFSStorageService, PageCachedStorageService
from repro.units import GB, MBps


def make_host(env, name, with_memory=True, memory_size=10 * GB):
    memory = (
        MemoryDevice.symmetric(env, f"{name}.ram", 1000 * MBps, size=memory_size)
        if with_memory else None
    )
    host = Host(env, name, cores=4, memory=memory)
    disk = Disk.symmetric(env, f"{name}.ssd", 100 * MBps, capacity=100 * GB)
    host.add_disk(disk, mount_point="/data")
    return host, disk


def make_network(env, *hosts):
    network = Network(env)
    link = network.add_link("lan", 1000 * MBps)
    for i, src in enumerate(hosts):
        for dst in hosts[i + 1:]:
            network.add_route(src, dst, [link])
    return network


CACHE_OFF = PageCacheConfig(periodic_flushing=False)


class TestSimpleStorageService:
    def test_read_and_write_at_disk_bandwidth(self, env, runner):
        host, disk = make_host(env, "node1", with_memory=False)
        service = SimpleStorageService(env, host, disk)
        file = File("f", 1 * GB)

        def scenario(env):
            write = yield from service.write_file(file, writer_host=host)
            read = yield from service.read_file(file, reader_host=host)
            return write, read

        write, read = runner(env, scenario(env))
        assert write.elapsed == pytest.approx(10.0)
        assert read.elapsed == pytest.approx(10.0)
        assert read.cache_bytes == 0

    def test_repeated_reads_cost_the_same(self, env, runner):
        host, disk = make_host(env, "node1", with_memory=False)
        service = SimpleStorageService(env, host, disk)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            first = yield from service.read_file(file, reader_host=host)
            second = yield from service.read_file(file, reader_host=host)
            return first.elapsed, second.elapsed

        first, second = runner(env, scenario(env))
        assert first == pytest.approx(second)

    def test_remote_access_requires_network(self, env, runner):
        server, disk = make_host(env, "server", with_memory=False)
        client, _ = make_host(env, "client", with_memory=False)
        service = SimpleStorageService(env, server, disk)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            yield from service.read_file(file, reader_host=client)

        with pytest.raises(ConfigurationError):
            runner(env, scenario(env))

    def test_remote_access_pays_network_transfer(self, env, runner):
        server, disk = make_host(env, "server", with_memory=False)
        client, _ = make_host(env, "client", with_memory=False)
        network = make_network(env, "server", "client")
        service = SimpleStorageService(env, server, disk, network=network)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            result = yield from service.read_file(file, reader_host=client)
            return result

        result = runner(env, scenario(env))
        # 10 s of disk read + 1 s of network transfer.
        assert result.elapsed == pytest.approx(11.0)

    def test_stage_and_delete_track_disk_usage(self, env):
        host, disk = make_host(env, "node1", with_memory=False)
        service = SimpleStorageService(env, host, disk)
        file = File("f", 10 * GB)
        service.stage_file(file)
        assert disk.used == 10 * GB
        service.delete_file(file)
        assert disk.used == 0


class TestPageCachedStorageService:
    def test_requires_host_memory(self, env):
        host, disk = make_host(env, "node1", with_memory=False)
        with pytest.raises(ConfigurationError):
            PageCachedStorageService(env, host, disk, cache_config=CACHE_OFF)

    def test_second_read_hits_cache(self, env, runner):
        host, disk = make_host(env, "node1")
        service = PageCachedStorageService(env, host, disk, cache_config=CACHE_OFF)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            first = yield from service.read_file(file, reader_host=host, owner="app")
            host.memory_manager.release_anonymous_memory(owner="app")
            second = yield from service.read_file(file, reader_host=host, owner="app")
            return first, second

        first, second = runner(env, scenario(env))
        assert first.elapsed == pytest.approx(10.0)  # disk
        assert second.elapsed == pytest.approx(1.0)  # memory
        assert second.cache_bytes == pytest.approx(1 * GB)

    def test_writeback_write_is_fast_then_readable_from_cache(self, env, runner):
        host, disk = make_host(env, "node1")
        service = PageCachedStorageService(env, host, disk, cache_config=CACHE_OFF)
        file = File("f", 1 * GB)

        def scenario(env):
            write = yield from service.write_file(file, writer_host=host)
            read = yield from service.read_file(file, reader_host=host)
            return write, read

        write, read = runner(env, scenario(env))
        assert write.elapsed == pytest.approx(1.0)  # memory bandwidth
        assert read.cache_bytes == pytest.approx(1 * GB)
        assert service.cache_mode == "writeback"

    def test_writethrough_mode(self, env, runner):
        host, disk = make_host(env, "node1")
        service = PageCachedStorageService(
            env, host, disk, cache_config=CACHE_OFF, writethrough=True
        )
        file = File("f", 1 * GB)

        def scenario(env):
            write = yield from service.write_file(file, writer_host=host)
            return write

        write = runner(env, scenario(env))
        assert write.elapsed == pytest.approx(10.0)  # disk bandwidth
        assert service.cache_mode == "writethrough"
        assert host.memory_manager.dirty == 0

    def test_shared_memory_manager_per_host(self, env):
        host, disk = make_host(env, "node1")
        other_disk = Disk.symmetric(env, "ssd2", 100 * MBps)
        host.add_disk(other_disk, mount_point="/data2")
        a = PageCachedStorageService(env, host, disk, cache_config=CACHE_OFF)
        b = PageCachedStorageService(env, host, other_disk, cache_config=CACHE_OFF)
        assert a.memory_manager is b.memory_manager

    def test_delete_file_invalidates_cache(self, env, runner):
        host, disk = make_host(env, "node1")
        service = PageCachedStorageService(env, host, disk, cache_config=CACHE_OFF)
        file = File("f", 1 * GB)

        def scenario(env):
            yield from service.write_file(file, writer_host=host)

        runner(env, scenario(env))
        service.delete_file(file)
        assert host.memory_manager.cached_amount("f") == 0


class TestNFSStorageService:
    def _setup(self, env, writethrough=True):
        server, server_disk = make_host(env, "server")
        client, _ = make_host(env, "client")
        network = make_network(env, "server", "client")
        service = NFSStorageService(
            env, server, server_disk, network,
            cache_config=CACHE_OFF, writethrough=writethrough,
        )
        return service, server, client

    def test_requires_server_memory(self, env):
        server, disk = make_host(env, "server", with_memory=False)
        network = make_network(env, "server", "client")
        with pytest.raises(ConfigurationError):
            NFSStorageService(env, server, disk, network)

    def test_reads_require_reader_host(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            yield from service.read_file(file)

        with pytest.raises(ConfigurationError):
            runner(env, scenario(env))

    def test_first_read_pays_disk_plus_network(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            result = yield from service.read_file(file, reader_host=client)
            return result

        result = runner(env, scenario(env))
        # 10 s server disk read + 1 s network.
        assert result.elapsed == pytest.approx(11.0)
        assert result.storage_bytes == pytest.approx(1 * GB)

    def test_second_read_hits_server_cache(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            yield from service.read_file(file, reader_host=client)
            second = yield from service.read_file(file, reader_host=client)
            return second

        second = runner(env, scenario(env))
        # 1 s server memory read + 1 s network.
        assert second.elapsed == pytest.approx(2.0)
        assert second.cache_bytes == pytest.approx(1 * GB)

    def test_writethrough_write_pays_network_and_disk(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)

        def scenario(env):
            result = yield from service.write_file(file, writer_host=client)
            return result

        result = runner(env, scenario(env))
        # 1 s network + 10 s server disk write (writethrough).
        assert result.elapsed == pytest.approx(11.0)
        assert result.storage_bytes == pytest.approx(1 * GB)
        assert server.memory_manager.dirty == 0
        # The written data populates the server read cache.
        assert server.memory_manager.cached_amount("f") == pytest.approx(1 * GB)

    def test_writeback_server_cache(self, env, runner):
        service, server, client = self._setup(env, writethrough=False)
        file = File("f", 1 * GB)

        def scenario(env):
            result = yield from service.write_file(file, writer_host=client)
            return result

        result = runner(env, scenario(env))
        # 1 s network + 1 s server memory write.
        assert result.elapsed == pytest.approx(2.0)
        assert server.memory_manager.dirty == pytest.approx(1 * GB)

    def test_cache_mode_property(self, env):
        service, _, _ = self._setup(env)
        assert service.cache_mode == "writethrough"
        service, _, _ = self._setup(Environment(), writethrough=False)
        assert service.cache_mode == "writeback"

    def test_delete_invalidates_server_cache(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)

        def scenario(env):
            yield from service.write_file(file, writer_host=client)

        runner(env, scenario(env))
        assert server.memory_manager.cached_amount("f") == pytest.approx(1 * GB)
        service.delete_file(file)
        assert server.memory_manager.cached_amount("f") == 0

    def test_client_anonymous_memory_accounted(self, env, runner):
        service, server, client = self._setup(env)
        file = File("f", 1 * GB)
        service.stage_file(file)

        def scenario(env):
            yield from service.read_file(file, reader_host=client, owner="app")

        runner(env, scenario(env))
        assert client.memory_manager is None  # no cache on the client host


NETWORK_BANDWIDTH = 1000 * MBps
ORACLE_FILES = [File(f"f{index}", 1.5 * GB) for index in range(3)]


def _oracle_run(writethrough, nfs):
    """Write, then read, ``ORACLE_FILES`` on a 4 GB server: locally, or
    from a client over NFS.  Local reads skip anonymous memory, as the NFS
    server's reads do (the client has no memory manager to account any)."""
    env = Environment()
    server, disk = make_host(env, "server", memory_size=4 * GB)
    if nfs:
        client, _ = make_host(env, "client")
        network = make_network(env, "server", "client")
        service = NFSStorageService(env, server, disk, network,
                                    cache_config=CACHE_OFF,
                                    writethrough=writethrough)

        def write(file):
            return service.write_file(file, writer_host=client)

        def read(file):
            return service.read_file(file, reader_host=client)
    else:
        service = PageCachedStorageService(env, server, disk,
                                           cache_config=CACHE_OFF,
                                           writethrough=writethrough)
        write = service.write_file

        def read(file):
            return service.io_controller.read_file(
                file.name, file.size, disk, use_anonymous_memory=False)
    results = []

    def scenario():
        for operation in (write, read):
            for file in ORACLE_FILES:
                results.append((yield from operation(file)))

    env.run(until=env.process(scenario()))
    return results, server.memory_manager.stats


class TestNFSIsLocalPlusNetworkHop:
    """Oracle: an NFS operation costs the server's local page-cache
    operation plus one uncontended network transfer per chunk."""

    @pytest.mark.parametrize("writethrough", [False, True],
                             ids=["writeback", "writethrough"])
    def test_each_operation_adds_one_network_term(self, writethrough):
        local, local_stats = _oracle_run(writethrough, nfs=False)
        nfs, nfs_stats = _oracle_run(writethrough, nfs=True)
        assert len(nfs) == len(local) == 2 * len(ORACLE_FILES)
        for remote, base in zip(nfs, local):
            assert remote.filename == base.filename
            assert remote.chunks == base.chunks == 15
            assert remote.elapsed == pytest.approx(
                base.elapsed + remote.size / NETWORK_BANDWIDTH, rel=1e-12)
            assert remote.cache_bytes == base.cache_bytes
            assert remote.storage_bytes == base.storage_bytes
        assert nfs_stats.flush_ops == local_stats.flush_ops
        assert nfs_stats.flushed_bytes == local_stats.flushed_bytes
        if not writethrough:
            # 4.5 GB of writes against a 0.8 GB dirty threshold.
            assert nfs_stats.flush_ops > 0
