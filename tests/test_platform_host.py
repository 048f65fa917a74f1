"""Unit tests for CPU, Host, Platform and the paper's cluster."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.calibration import TABLE3_BANDWIDTHS
from repro.experiments.harness import ScenarioConfig, build_simulation
from repro.platform.cpu import CPU
from repro.platform.host import Host
from repro.platform.memory import MemoryDevice
from repro.platform.platform import NETWORK_LATENCY, Platform, concordia_cluster
from repro.platform.storage import Disk
from repro.units import GiB, MBps


class TestCPU:
    def test_invalid_parameters(self, env):
        with pytest.raises(ConfigurationError):
            CPU(env, cores=0)
        with pytest.raises(ConfigurationError):
            CPU(env, speed=0)

    def test_execute_duration(self, env, runner):
        cpu = CPU(env, cores=1, speed=1e9)

        def proc(env):
            yield cpu.execute(4.4e9)
            return env.now

        assert runner(env, proc(env)) == pytest.approx(4.4)

    def test_tasks_queue_when_cores_busy(self, env):
        cpu = CPU(env, cores=2, speed=1e9)
        finish = []

        def proc(env):
            yield cpu.execute(1e9)
            finish.append(env.now)

        for _ in range(4):
            env.process(proc(env))
        env.run()
        # Two run immediately, the two others wait for a free core.
        assert sorted(finish) == [1.0, 1.0, 2.0, 2.0]

    def test_parallel_tasks_on_enough_cores(self, env):
        cpu = CPU(env, cores=4, speed=1e9)
        finish = []

        def proc(env):
            yield cpu.execute(3e9)
            finish.append(env.now)

        for _ in range(4):
            env.process(proc(env))
        env.run()
        assert finish == [3.0] * 4

    def test_negative_flops_rejected(self, env):
        cpu = CPU(env)
        with pytest.raises(ValueError):
            cpu.execute(-1)

    def test_statistics(self, env, runner):
        cpu = CPU(env, cores=1, speed=1e9)

        def proc(env):
            first = yield cpu.execute(5e8)
            second = yield cpu.execute(5e8)
            return first, second

        # Each computation reports its seconds on a core.
        assert runner(env, proc(env)) == (0.5, 0.5)
        assert env.now == 1.0
        assert cpu.busy_cores == 0


class TestHost:
    def test_disk_registration_and_lookup(self, env):
        host = Host(env, "node1", cores=4)
        disk = Disk.symmetric(env, "ssd", 465 * MBps)
        host.add_disk(disk, mount_point="/local")
        assert host.disk("/local") is disk
        with pytest.raises(ConfigurationError):
            host.disk("/missing")
        with pytest.raises(ConfigurationError):
            host.add_disk(disk, mount_point="/local")

    def test_memory_size_without_memory(self, env):
        assert Host(env, "node1").memory_size == 0.0
        memory = MemoryDevice.symmetric(env, "ram", 1000 * MBps, size=GiB)
        assert Host(env, "node2", memory=memory).memory_size == GiB

    def test_core_and_speed_properties(self, env):
        host = Host(env, "node1", cores=16)
        assert host.cores == 16
        assert host.speed == CPU.DEFAULT_SPEED
        host.cpu.set_speed(2e9)
        assert host.speed == 2e9


class TestPlatform:
    def test_duplicate_host_rejected(self, env):
        platform = Platform(env)
        platform.add_host(Host(env, "node1"))
        with pytest.raises(ConfigurationError):
            platform.add_host(Host(env, "node1"))
        assert len(platform) == 1


class TestConcordiaCluster:
    def test_default_cluster_shape(self, env):
        platform = concordia_cluster(env)
        assert set(platform.host_names()) == {"node1", "storage1"}
        node = platform.host("node1")
        assert node.cores == 32
        assert node.memory_size == pytest.approx(250 * GiB)
        assert node.disk("/local").read_bandwidth == pytest.approx(465 * MBps)
        storage = platform.host("storage1")
        assert storage.disk("/export").read_bandwidth == pytest.approx(445 * MBps)
        assert platform.network.route("node1", "storage1").dst == "storage1"

    def test_cluster_without_nfs(self, env):
        platform = concordia_cluster(env, with_nfs_server=False)
        assert set(platform.host_names()) == {"node1"}

    def test_multiple_compute_nodes(self, env):
        platform = concordia_cluster(env, compute_nodes=3)
        assert {"node1", "node2", "node3", "storage1"} == set(platform.host_names())
        assert platform.network.route("node3", "storage1").dst == "storage1"

    def test_asymmetric_bandwidths(self, env):
        platform = concordia_cluster(
            env,
            with_nfs_server=False,
            local_disk_read_bandwidth=510 * MBps,
            local_disk_write_bandwidth=420 * MBps,
        )
        disk = platform.host("node1").disk("/local")
        assert disk.read_bandwidth == pytest.approx(510 * MBps)
        assert disk.write_bandwidth == pytest.approx(420 * MBps)
        assert disk.read_channel is not disk.write_channel

    def test_calibrated_reference_bandwidths(self):
        # The calibrated reference passes measured, asymmetric bandwidths
        # beside symmetric ones; the asymmetric ones win, on two channels.
        simulation, _ = build_simulation("real", ScenarioConfig(
            nfs=True, compute_nodes=2))
        platform = simulation.platform
        table = TABLE3_BANDWIDTHS
        devices = [(platform.host(name).memory, table.memory)
                   for name in ("node1", "node2", "storage1")]
        devices += [(platform.host(name).disk("/local"), table.local_disk)
                    for name in ("node1", "node2")]
        devices.append((platform.host("storage1").disk("/export"),
                        table.remote_disk))
        for device, bandwidths in devices:
            assert device.read_bandwidth == bandwidths.real_read
            assert device.write_bandwidth == bandwidths.real_write
            assert device.read_channel is not device.write_channel
        link = platform.network.links["cluster_net"]
        assert list(platform.network.links) == ["cluster_net"]
        assert link.bandwidth == table.network.real_read
        for name in ("node1", "node2"):
            for route in (platform.network.route(name, "storage1"),
                          platform.network.route("storage1", name)):
                assert route.links == [link]
                assert route.latency == NETWORK_LATENCY == 100e-6

    def test_sharing_flag_propagates(self, env):
        platform = concordia_cluster(env, sharing=False)
        for host in platform.hosts.values():
            assert host.channels()
            assert all(not channel.sharing for channel in host.channels())
        assert platform.network.links["cluster_net"].channel.sharing is False

    def test_unknown_host_lookup(self, env):
        platform = concordia_cluster(env, with_nfs_server=False)
        with pytest.raises(ConfigurationError):
            platform.host("node2")
